"""W3C-``traceparent``-compatible request correlation context.

A :class:`TraceContext` names one end-to-end request: a 128-bit
``trace_id`` (32 lowercase hex digits), the span id of the caller's
enclosing span (``parent_span_id``, our process-unique 64-bit span ids),
and a sampled flag.  It travels

* **in process** via a :mod:`contextvars` variable
  (:func:`use_trace_context` / :func:`current_trace_context`), so every
  span opened while a context is installed is stamped with its trace id
  (:mod:`repro.obs.tracing`) -- as are structured log records, slow-query
  entries, and flight-ring records;
* **across HTTP** as the standard ``traceparent`` request header
  (:meth:`TraceContext.to_traceparent` / :func:`parse_traceparent`); the
  server echoes the resolved trace id back as ``x-repro-trace-id`` on
  every response, including sheds, so clients can name the server-side
  trace of any request.

Sampling is *tail-based* and deterministic: :func:`trace_keep` hashes the
trace id itself, so the loadtest client and the server independently
agree on which unexceptional traces to keep without any coordination
(slow, error, and shed traces are always kept by the sink regardless --
see :mod:`repro.obs.tracesink`).
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from typing import Iterator

__all__ = [
    "TRACEPARENT_HEADER",
    "TRACE_ID_HEADER",
    "TraceContext",
    "current_trace_context",
    "use_trace_context",
    "parse_traceparent",
    "format_span_id",
    "trace_keep",
]

#: Inbound request header carrying the caller's context (W3C Trace Context).
TRACEPARENT_HEADER = "traceparent"

#: Response header echoing the trace id the server used for the request.
TRACE_ID_HEADER = "x-repro-trace-id"

#: ``version-trace_id-parent_id-flags``; lowercase hex only, per the spec.
_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<parent_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})(?:$|-)"
)

_SAMPLED_FLAG = 0x01


def format_span_id(span_id: int) -> str:
    """Render an internal span id as the 16-hex-digit wire form."""
    return format(span_id & 0xFFFFFFFFFFFFFFFF, "016x")


@dataclass(frozen=True)
class TraceContext:
    """Identity of one end-to-end request (immutable; derive with ``child``)."""

    #: 32 lowercase hex digits; never all zeros for a valid context.
    trace_id: str
    #: Span id of the caller's enclosing span (0 = no parent yet).
    parent_span_id: int = 0
    #: Upstream sampling hint (W3C ``sampled`` flag).  The tail-sampling
    #: sink makes its own keep/drop decision; this records the wire flag.
    sampled: bool = True
    #: Serving endpoint that owns the request (e.g. ``/v1/skyline``).
    #: Not part of the wire format; carried so deep call sites (the query
    #: engine's slowlog) can attribute work without plumbing arguments.
    endpoint: str = ""

    @classmethod
    def new(cls, endpoint: str = "") -> "TraceContext":
        """Fresh root context with a random 128-bit trace id.

        Uses :func:`os.urandom`, which is fork-safe: a forked child that
        inherits module state still generates independent ids.
        """
        return cls(trace_id=os.urandom(16).hex(), endpoint=endpoint)

    def child(self, parent_span_id: int) -> "TraceContext":
        """Same trace, re-parented under ``parent_span_id``."""
        return replace(self, parent_span_id=parent_span_id)

    def to_traceparent(self) -> str:
        """Render as a ``traceparent`` header value (version 00)."""
        flags = _SAMPLED_FLAG if self.sampled else 0
        return (
            f"00-{self.trace_id}-{format_span_id(self.parent_span_id)}"
            f"-{flags:02x}"
        )


def parse_traceparent(value: object) -> TraceContext | None:
    """Parse a ``traceparent`` header value; ``None`` on anything malformed.

    Per the W3C spec, a receiver that cannot parse the header must ignore
    it (and mint a fresh context) rather than fail the request, so every
    malformed shape -- wrong field widths, uppercase hex, all-zero trace
    or version ``ff`` -- maps to ``None``.  Versions above 00 are accepted
    as long as the leading fields parse (forward compatibility).
    """
    if not isinstance(value, str):
        return None
    match = _TRACEPARENT_RE.match(value.strip())
    if match is None:
        return None
    version = match.group("version")
    trace_id = match.group("trace_id")
    parent_id = match.group("parent_id")
    if version == "ff":
        return None
    if version == "00" and match.group(0) != value.strip():
        # Version 00 defines exactly four fields; trailing data is invalid.
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    flags = int(match.group("flags"), 16)
    return TraceContext(
        trace_id=trace_id,
        parent_span_id=int(parent_id, 16),
        sampled=bool(flags & _SAMPLED_FLAG),
    )


def trace_keep(trace_id: str, probability: float) -> bool:
    """Deterministic probabilistic keep decision for tail sampling.

    Hashes the trace id itself (first 8 hex digits as a uniform 32-bit
    value), so independent processes -- the loadtest client and the
    server -- reach the same verdict for the same trace without
    coordinating.  ``probability`` of 1.0 keeps everything, 0.0 nothing.
    """
    if probability >= 1.0:
        return True
    if probability <= 0.0:
        return False
    try:
        bucket = int(trace_id[:8], 16)
    except (ValueError, TypeError):
        return False
    return bucket / 0x100000000 < probability


#: The context the current logical task is executing under, if any.
_CURRENT: ContextVar[TraceContext | None] = ContextVar(
    "repro_obs_trace_context", default=None
)


def current_trace_context() -> TraceContext | None:
    """The ambient :class:`TraceContext`, or ``None`` outside any request."""
    return _CURRENT.get()


@contextmanager
def use_trace_context(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Install ``ctx`` as the ambient context for the dynamic extent.

    Spans opened inside the block are stamped with ``ctx.trace_id``
    (see :mod:`repro.obs.tracing`); structured logs and slowlog entries
    pick it up the same way.  Passing ``None`` masks any outer context.
    """
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)
