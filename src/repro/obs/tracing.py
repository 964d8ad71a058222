"""Hierarchical tracing spans with near-zero overhead when disabled.

The library's instrumentation substrate.  A :class:`Span` is one timed
region of work (monotonic clock, nanosecond resolution) with optional
attributes (static facts: algorithm name, input size) and counters
(accumulated quantities: dominance comparisons, objects scanned).  Spans
nest: a :class:`Tracer` keeps the stack of open spans and attaches each new
span to the innermost open one, yielding a tree per top-level operation.

Two ways to record spans:

* **Explicit tracer** -- ``tracer = Tracer(); with tracer.span("phase"): ...``
  Always records.  :func:`repro.core.stellar.stellar` uses one internally so
  its per-phase stats exist even when global tracing is off.
* **Ambient API** -- ``with span("skyline.sfs"): ...`` / ``@traced``.
  Attaches to the innermost active tracer (an explicit tracer whose span is
  currently open, or the process-global tracer installed by
  :func:`enable_tracing`).  When no tracer is active these are no-ops that
  return a shared :data:`NULL_SPAN` singleton -- no ``Span`` object is
  allocated and no clock is read, which is what keeps always-on call sites
  (the skyline registry, the query engine) effectively free.

Export helpers live in :mod:`repro.obs.export`; metric aggregation in
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import functools
import os
import time
from contextvars import ContextVar
from dataclasses import dataclass, field
from itertools import count
from typing import Iterator

from .context import current_trace_context

__all__ = [
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "traced",
    "current_tracer",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "SpanBackedTimings",
    "add_span_listener",
    "remove_span_listener",
    "open_span_depth",
]


#: Monotonically increasing low bits of the span-id (never reused in-process).
_SPAN_IDS = count(1)

#: Random per-process high bits, lazily (re)seeded so span ids stay unique
#: across processes: a forked child inherits this module's state, so the
#: base is re-drawn whenever the pid changes.
_ID_BASE: int | None = None
_ID_PID: int = -1


def _next_span_id() -> int:
    global _ID_BASE, _ID_PID
    pid = os.getpid()
    if _ID_BASE is None or pid != _ID_PID:
        _ID_PID = pid
        _ID_BASE = int.from_bytes(os.urandom(4), "big") << 32
    return _ID_BASE | next(_SPAN_IDS)


@dataclass
class Span:
    """One timed region: name, monotonic interval, attributes, children.

    ``span_id`` is a process-unique correlation id: structured log records
    (:mod:`repro.obs.logging`) carry it so they can be joined back to the
    trace, and NDJSON span records link to their parent by it.  It is
    excluded from equality so spans rebuilt from an export (which
    allocate fresh ids) still compare equal field-for-field.
    """

    name: str
    start_ns: int = 0
    end_ns: int | None = None
    attributes: dict[str, object] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    span_id: int = field(default_factory=_next_span_id, compare=False)
    #: 32-hex-digit request trace id, stamped from the ambient
    #: :class:`repro.obs.context.TraceContext` ("" outside any request).
    trace_id: str = field(default="", compare=False)
    #: Span id of the parent span -- the enclosing span in this process,
    #: or the caller's span id carried across a process/HTTP boundary by
    #: the trace context (0 for true roots).
    parent_span_id: int = field(default=0, compare=False)

    @property
    def duration_ns(self) -> int:
        """Span duration in nanoseconds (0 while still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    @property
    def duration_seconds(self) -> float:
        """Span duration in seconds (0.0 while still open)."""
        return self.duration_ns / 1e9

    def annotate(self, **attributes: object) -> "Span":
        """Attach static attributes; returns ``self`` for chaining."""
        self.attributes.update(attributes)
        return self

    def count(self, name: str, amount: float = 1) -> "Span":
        """Accumulate into a named counter; returns ``self`` for chaining."""
        self.counters[name] = self.counters.get(name, 0) + amount
        return self

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first), if any."""
        for sp in self.walk():
            if sp.name == name:
                return sp
        return None


class _NullSpan:
    """Shared no-op span returned by :func:`span` when tracing is off.

    A process-wide singleton: the disabled fast path allocates no ``Span``,
    reads no clock, and mutates nothing.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def annotate(self, **attributes: object) -> "_NullSpan":
        return self

    def count(self, name: str, amount: float = 1) -> "_NullSpan":
        return self

    @property
    def attributes(self) -> dict[str, object]:
        return {}

    @property
    def counters(self) -> dict[str, float]:
        return {}

    @property
    def span_id(self) -> int:
        return 0

    @property
    def trace_id(self) -> str:
        return ""

    @property
    def parent_span_id(self) -> int:
        return 0


#: The singleton no-op span (identity-comparable in tests).
NULL_SPAN = _NullSpan()

#: Innermost tracer with an open span in this execution context.
_ACTIVE: ContextVar["Tracer | None"] = ContextVar("repro_obs_tracer", default=None)

#: Process-global tracer installed by :func:`enable_tracing` (CLI ``--trace``).
_GLOBAL: "Tracer | None" = None

#: Callbacks ``(event, span, root)`` fired on every span open ("start")
#: and close ("end"); ``root`` is True for a tracer's top-level span.  The
#: flight ring, the trace sink and the slow-query log each listen with
#: their own retention.  Replaced whole on change, so the hot path reads it
#: without a lock.
_LISTENERS: tuple = ()

#: Number of currently open spans across all tracers in this process.
#: Maintained with plain integer arithmetic (no lock), so under heavy
#: threading the value is approximate -- it is a telemetry sample for the
#: heartbeat, not an invariant.
_OPEN_SPANS = 0


def add_span_listener(listener) -> None:
    """Call ``listener(event, span, root)`` on every span open and close.

    ``event`` is ``"start"`` or ``"end"``.  The listener must be fast and
    must never raise: it runs inside the hot span open/close path.
    """
    global _LISTENERS
    if listener not in _LISTENERS:
        _LISTENERS = _LISTENERS + (listener,)


def remove_span_listener(listener) -> None:
    """Stop calling ``listener`` (a no-op if it is not registered)."""
    global _LISTENERS
    _LISTENERS = tuple(fn for fn in _LISTENERS if fn is not listener)


def open_span_depth() -> int:
    """How many spans are currently open in this process (approximate)."""
    return _OPEN_SPANS


class _SpanHandle:
    """Context manager opening one span on a tracer."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span", "_token")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict):
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        global _OPEN_SPANS
        sp = Span(name=self._name, start_ns=time.perf_counter_ns())
        if self._attributes:
            sp.attributes.update(self._attributes)
        tracer = self._tracer
        ctx = current_trace_context()
        if ctx is not None:
            sp.trace_id = ctx.trace_id
        root = not tracer._stack
        if not root:
            parent = tracer._stack[-1]
            sp.parent_span_id = parent.span_id
            parent.children.append(sp)
        else:
            if ctx is not None:
                # Root of this process's subtree: stitch under the caller's
                # span carried across the HTTP / pool boundary.
                sp.parent_span_id = ctx.parent_span_id
            tracer.roots.append(sp)
        tracer._stack.append(sp)
        # While this span is open, ambient span() calls attach to its tracer.
        self._token = _ACTIVE.set(tracer)
        self._span = sp
        _OPEN_SPANS += 1
        for listener in _LISTENERS:
            listener("start", sp, root)
        return sp

    def __exit__(self, *exc: object) -> bool:
        global _OPEN_SPANS
        self._span.end_ns = time.perf_counter_ns()
        self._tracer._stack.pop()
        _ACTIVE.reset(self._token)
        _OPEN_SPANS -= 1
        if _LISTENERS:
            root = not self._tracer._stack
            for listener in _LISTENERS:
                listener("end", self._span, root)
        return False


class Tracer:
    """Collects span trees; one per traced operation or process."""

    def __init__(self) -> None:
        #: Finished (or still-open) top-level spans, in start order.
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: object) -> _SpanHandle:
        """Open a span nested under the innermost open span (or as a root)."""
        return _SpanHandle(self, name, attributes)

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def clear(self) -> None:
        """Drop all recorded roots (open spans stay on the stack)."""
        self.roots = []


def current_tracer() -> Tracer | None:
    """The tracer ambient ``span()`` calls attach to, if any."""
    active = _ACTIVE.get()
    if active is not None:
        return active
    return _GLOBAL


def tracing_enabled() -> bool:
    """True when an ambient or global tracer is active."""
    return current_tracer() is not None


def enable_tracing(tracer: Tracer | None = None) -> Tracer:
    """Install (and return) the process-global tracer."""
    global _GLOBAL
    _GLOBAL = tracer if tracer is not None else Tracer()
    return _GLOBAL


def disable_tracing() -> None:
    """Remove the process-global tracer (ambient explicit tracers unaffected)."""
    global _GLOBAL
    _GLOBAL = None


def span(name: str, **attributes: object):
    """Open an ambient span, or return :data:`NULL_SPAN` when tracing is off.

    The disabled path is the hot one: a single context-variable read and the
    shared singleton, so instrumentation can stay in production code paths.
    """
    tracer = current_tracer()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def traced(fn=None, *, name: str | None = None):
    """Decorator tracing every call of ``fn`` as one ambient span.

    Usable bare (``@traced``) or parameterised (``@traced(name="q1")``).
    When tracing is disabled the wrapper adds one context-variable read and
    falls straight through to ``fn``.
    """

    def decorate(func):
        label = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracer = current_tracer()
            if tracer is None:
                return func(*args, **kwargs)
            with tracer.span(label):
                return func(*args, **kwargs)

        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate


class SpanBackedTimings:
    """Mixin deriving the legacy per-phase ``timings`` dict from a span tree.

    Stats classes (``StellarStats``, ``SkyeyStats``) historically maintained
    a hand-written ``timings: dict[str, float]``.  That dict is now *derived*
    from the run's recorded root span: each direct child is one phase, its
    key the span name, its value the span duration in seconds.

    .. deprecated::
        ``timings`` is kept (same keys, same semantics) for backwards
        compatibility; new code should read ``root_span`` directly, which
        also carries nesting, counters, and attributes.
    """

    #: Subclasses declare ``root_span: Span | None`` as a dataclass field.
    root_span: Span | None

    @property
    def timings(self) -> dict[str, float]:
        """Per-phase wall-clock seconds (derived; see class docstring)."""
        root = getattr(self, "root_span", None)
        if root is None:
            return {}
        out: dict[str, float] = {}
        for child in root.children:
            out[child.name] = out.get(child.name, 0.0) + child.duration_seconds
        return out

    @property
    def total_seconds(self) -> float:
        """Total wall-clock time across all phases."""
        return sum(self.timings.values())
