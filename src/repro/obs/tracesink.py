"""Tail-sampling on-disk trace store + cross-process trace reassembly.

A :class:`TraceSink` is a bounded directory of NDJSON trace files, one
file per kept trace (``<trace_id>.ndjson``), each line one finished span
flattened with its ``span_id``/``parent_span_id`` so spans recorded by
*different processes* -- the loadtest client and the serving process --
can be stitched back into a single tree.

A process has at most one sink, installed by :func:`install_trace_sink`
(the CLI's ``--trace-dir``) as a span listener: when a tracer's root span
with a trace id closes, the sink keeps or drops its whole tree, reading
the keep inputs from the root's own attributes.

Sampling is **tail-based**: the keep/drop decision is made after the
request finishes, when its outcome is known.

* slow (``seconds >= slow_threshold_s``), error (``status`` >= 500,
  ``status`` 0 or an ``error`` attribute) and shed (``status`` 503)
  requests are always kept -- those are the traces worth debugging;
* everything else is kept with probability ``keep_probability`` using the
  deterministic :func:`repro.obs.context.trace_keep` hash of the trace id,
  so the client and server independently keep the *same* baseline traces.
  A ``client.*`` root is recorded with ``source`` ``client``, any other
  with ``server``.

The store is bounded two ways: at most ``max_traces`` files (new traces
are dropped once full -- never evicted, so a kept slow trace cannot be
rotated away mid-investigation) and at most ``max_spans_per_trace`` lines
per file.  Appends use ``O_APPEND`` single-write semantics so concurrent
writers (client + server sharing a directory) interleave whole lines.

Reassembly helpers (:func:`list_traces`, :func:`load_trace`,
:func:`assemble_trace`, :func:`critical_path`) power the
``repro trace ls|show|critical-path`` CLI.  Phase attribution uses
*self time* (a span's duration minus its children's), so the per-phase
seconds sum exactly to the root span's duration by construction.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import tracing
from .context import current_trace_context, trace_keep
from .tracing import Span

__all__ = [
    "TraceSink",
    "install_trace_sink",
    "uninstall_trace_sink",
    "exemplar_trace_id",
    "span_records",
    "parse_span_records",
    "list_traces",
    "load_trace",
    "assemble_trace",
    "critical_path",
    "classify_phase",
    "PHASES",
]

_TRACE_ID_CHARS = set("0123456789abcdef")


def _safe_trace_id(trace_id: str) -> bool:
    return (
        isinstance(trace_id, str)
        and len(trace_id) == 32
        and set(trace_id) <= _TRACE_ID_CHARS
    )


def span_records(
    root: Span,
    *,
    trace_id: str,
    source: str = "server",
    pid: int | None = None,
) -> list[dict]:
    """Flatten a span tree into sink-ready records (depth-first).

    This is the one NDJSON span format: the trace sink appends these
    records and :func:`repro.obs.export.write_trace` writes them to
    ``*.ndjson`` files.  Each child links to its tree parent by
    ``parent_span_id``; the root keeps its own (the caller's span across a
    process boundary, 0 for a true root).
    """
    pid = os.getpid() if pid is None else pid
    records: list[dict] = []

    def emit(sp: Span, parent_span_id: int) -> None:
        records.append(
            {
                "trace_id": trace_id,
                "span_id": sp.span_id,
                "parent_span_id": parent_span_id,
                "name": sp.name,
                "start_ns": sp.start_ns,
                "end_ns": sp.end_ns,
                "attributes": dict(sp.attributes),
                "counters": dict(sp.counters),
                "source": source,
                "pid": pid,
            }
        )
        for child in sp.children:
            emit(child, sp.span_id)

    emit(root, root.parent_span_id)
    return records


class TraceSink:
    """Bounded tail-sampling NDJSON trace store (see module docstring)."""

    def __init__(
        self,
        root: str | Path,
        *,
        slow_threshold_s: float = 0.1,
        keep_probability: float = 0.05,
        max_traces: int = 512,
        max_spans_per_trace: int = 2000,
    ) -> None:
        self.root = Path(root)
        self.slow_threshold_s = float(slow_threshold_s)
        self.keep_probability = float(keep_probability)
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self.kept = 0
        self.dropped = 0
        self.root.mkdir(parents=True, exist_ok=True)

    def should_keep(
        self,
        trace_id: str,
        *,
        seconds: float | None = None,
        error: bool = False,
        shed: bool = False,
    ) -> bool:
        """The tail-sampling policy, without touching disk."""
        if error or shed:
            return True
        if seconds is not None and seconds >= self.slow_threshold_s:
            return True
        return trace_keep(trace_id, self.keep_probability)

    def offer(
        self,
        trace_id: str,
        records: Iterable[Mapping],
        *,
        seconds: float | None = None,
        error: bool = False,
        shed: bool = False,
    ) -> bool:
        """Apply the sampling policy and, on keep, append ``records``.

        Returns True when the trace was (already or newly) persisted.
        Records may arrive in several calls -- e.g. the client's span tree
        and the server's -- and append to the same file.  Unknown/malformed
        trace ids are dropped defensively (the id becomes a filename).
        """
        if not _safe_trace_id(trace_id):
            self.dropped += 1
            return False
        if not self.should_keep(trace_id, seconds=seconds, error=error, shed=shed):
            self.dropped += 1
            return False
        path = self.root / f"{trace_id}.ndjson"
        if not path.exists():
            existing = sum(1 for p in self.root.glob("*.ndjson"))
            if existing >= self.max_traces:
                self.dropped += 1
                return False
        lines = [
            json.dumps(dict(rec), sort_keys=True, default=str)
            for rec in list(records)[: self.max_spans_per_trace]
        ]
        if not lines:
            return False
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        # One os.write on an O_APPEND fd: concurrent client/server offers
        # to the same trace interleave at line granularity, not mid-line.
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)
        self.kept += 1
        return True

    def __call__(self, event: str, sp: Span, root: bool) -> None:
        """Span listener: offer each closing root that carries a trace id."""
        if event != "end" or not root or not sp.trace_id:
            return
        status = sp.attributes.get("status")
        source = "client" if sp.name.startswith("client.") else "server"
        failed = status == 0 or (isinstance(status, int) and status >= 500)
        try:
            self.offer(
                sp.trace_id,
                span_records(sp, trace_id=sp.trace_id, source=source),
                seconds=sp.duration_seconds,
                error=failed or "error" in sp.attributes,
                shed=status == 503,
            )
        except OSError:  # an unwritable sink must not fail the request
            self.dropped += 1


#: The process's one installed sink (None: request traces are not kept).
_SINK: TraceSink | None = None


def install_trace_sink(
    root: str | Path, *, slow_threshold_s: float = 0.1
) -> TraceSink:
    """Install the process-wide sink over ``root``, replacing any other."""
    global _SINK
    uninstall_trace_sink()
    _SINK = TraceSink(root, slow_threshold_s=slow_threshold_s)
    tracing.add_span_listener(_SINK)
    return _SINK


def uninstall_trace_sink() -> None:
    """Stop keeping traces (a no-op when no sink is installed)."""
    global _SINK
    if _SINK is not None:
        tracing.remove_span_listener(_SINK)
        _SINK = None


def exemplar_trace_id(seconds: float) -> str | None:
    """The current trace id iff the installed sink will keep its trace.

    ``should_keep`` is deterministic in (trace id, duration) and a request's
    root lasts at least ``seconds``, so the exemplar resolves to a kept trace.
    """
    sink = _SINK
    if sink is None:
        return None
    ctx = current_trace_context()
    if ctx is not None and sink.should_keep(ctx.trace_id, seconds=seconds):
        return ctx.trace_id
    return None


def list_traces(root: str | Path) -> list[dict]:
    """Summaries of every trace in the sink, newest first."""
    rootp = Path(root)
    out = []
    for path in rootp.glob("*.ndjson"):
        records = load_trace(rootp, path.stem)
        if not records:
            continue
        tree = assemble_trace(records)
        duration = max((r.span.duration_seconds for r in tree), default=0.0)
        names = {rec["name"] for rec in records}
        endpoint = ""
        for rec in records:
            endpoint = rec.get("attributes", {}).get("endpoint", "") or endpoint
        out.append(
            {
                "trace_id": path.stem,
                "spans": len(records),
                "roots": len(tree),
                "duration_s": duration,
                "endpoint": endpoint,
                "sources": sorted({rec.get("source", "?") for rec in records}),
                "names": sorted(names),
                "mtime": path.stat().st_mtime,
            }
        )
    out.sort(key=lambda item: item["mtime"], reverse=True)
    return out


def load_trace(root: str | Path, trace_id: str) -> list[dict]:
    """All span records persisted for ``trace_id`` (empty if unknown)."""
    path = Path(root) / f"{trace_id}.ndjson"
    if not path.exists():
        return []
    with path.open("r", encoding="utf-8") as fh:
        return parse_span_records(fh)


def parse_span_records(lines: Iterable[str]) -> list[dict]:
    """Parse NDJSON lines into span records, skipping unparseable ones."""
    records = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail line from a crashed writer
        if isinstance(rec, dict) and "span_id" in rec:
            records.append(rec)
    return records


@dataclass
class TraceNode:
    """One span re-hydrated from the sink, linked into the trace tree."""

    span: Span
    source: str = "server"
    pid: int = 0
    children: list["TraceNode"] = field(default_factory=list)

    def walk(self):
        """Yield this node then every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()


def assemble_trace(records: Sequence[Mapping]) -> list[TraceNode]:
    """Stitch flat records (possibly from several processes) into trees.

    Children attach by ``parent_span_id``; spans whose parent was never
    recorded (e.g. the client span when only the server side was kept)
    become roots.  Roots and children are ordered by start time -- valid
    across processes because span clocks are ``CLOCK_MONOTONIC`` of one
    host.
    """
    nodes: dict[int, TraceNode] = {}
    for rec in records:
        sid = int(rec["span_id"])
        if sid in nodes:  # duplicate offer (client + server overlap)
            continue
        sp = Span(
            name=str(rec.get("name", "?")),
            start_ns=int(rec.get("start_ns", 0)),
            end_ns=rec.get("end_ns"),
            attributes=dict(rec.get("attributes", {})),
            counters=dict(rec.get("counters", {})),
            trace_id=str(rec.get("trace_id", "")),
        )
        sp.span_id = sid
        sp.parent_span_id = int(rec.get("parent_span_id", 0))
        nodes[sid] = TraceNode(
            span=sp,
            source=str(rec.get("source", "?")),
            pid=int(rec.get("pid", 0)),
        )
    roots = []
    for node in nodes.values():
        parent = nodes.get(node.span.parent_span_id)
        if parent is not None and parent is not node:
            parent.children.append(node)
            parent.span.children.append(node.span)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.span.start_ns)
        node.span.children.sort(key=lambda s: s.start_ns)
    roots.sort(key=lambda n: n.span.start_ns)
    return roots


#: Phase names in display order; ``classify_phase`` maps span names here.
PHASES = ("client", "admission", "cache", "scan", "kernel", "serve", "other")


def classify_phase(name: str, inherited: str = "other") -> str:
    """Attribute one span's self-time to a wall-clock phase.

    A name no rule matches takes ``inherited``, its nearest ancestor's
    phase: Stellar's phase spans (``full_space_skyline``, ...) count as the
    ``kernel`` of the ``stellar`` span they run under.
    """
    if name.startswith("client."):
        return "client"
    if name == "serve.admission.wait":
        return "admission"
    if name.startswith("serve.cache"):
        return "cache"
    if name.startswith(("query.", "skyline.")):
        return "scan"
    if name.startswith("stellar"):
        return "kernel"
    if name.startswith("serve."):
        return "serve"
    return inherited


def _attribute_node(
    node: TraceNode,
    scale: float,
    out: list[tuple[TraceNode, str, float]],
    inherited: str = "other",
) -> None:
    """Wall-clock attribution of ``node``'s subtree: (node, phase, self ns).

    A sweep over the direct children's intervals (clamped to the parent)
    splits instants covered by k overlapping children equally, and each
    child's subtree is then compressed by the share it actually owns.
    The attributed self-times therefore *partition* the root's wall-clock
    duration exactly, which is what lets the ``repro trace critical-path``
    phase table sum to the request's measured latency even when sibling
    spans overlap.
    """
    sp = node.span
    end = sp.end_ns if sp.end_ns is not None else sp.start_ns
    duration = max(0, end - sp.start_ns)
    clamped = []
    for child in node.children:
        c = child.span
        c_end = c.end_ns if c.end_ns is not None else c.start_ns
        clamped.append((max(c.start_ns, sp.start_ns), min(c_end, end)))
    points = sorted({p for s, e in clamped if e > s for p in (s, e)})
    shares = [0.0] * len(node.children)
    covered = 0
    for a, b in zip(points, points[1:]):
        active = [i for i, (s, e) in enumerate(clamped) if s <= a and e >= b]
        if not active:
            continue
        covered += b - a
        for i in active:
            shares[i] += (b - a) / len(active)
    phase = classify_phase(sp.name, inherited)
    out.append((node, phase, scale * max(0, duration - covered)))
    for i, child in enumerate(node.children):
        c = child.span
        c_end = c.end_ns if c.end_ns is not None else c.start_ns
        c_duration = max(0, c_end - c.start_ns)
        child_scale = scale * (shares[i] / c_duration) if c_duration else 0.0
        _attribute_node(child, child_scale, out, phase)


def critical_path(roots: Sequence[TraceNode]) -> dict:
    """Phase attribution for an assembled trace.

    Every span contributes its wall-clock *self time* -- the part of its
    duration not covered by its children, with sibling overlap split and
    rescaled by :func:`_attribute_node` -- so the per-phase seconds
    partition each root's duration and ``attributed_s == total_s`` up to
    float rounding.
    """
    phases: dict[str, float] = {}
    steps = []
    total = 0.0
    for root in roots:
        total += root.span.duration_seconds
        entries: list[tuple[TraceNode, str, float]] = []
        _attribute_node(root, 1.0, entries)
        for node, phase, self_ns in entries:
            sp = node.span
            self_s = self_ns / 1e9
            phases[phase] = phases.get(phase, 0.0) + self_s
            steps.append(
                {
                    "name": sp.name,
                    "phase": phase,
                    "source": node.source,
                    "pid": node.pid,
                    "self_s": self_s,
                    "duration_s": sp.duration_seconds,
                }
            )
    steps.sort(key=lambda s: s["self_s"], reverse=True)
    return {
        "total_s": total,
        "phases": {p: phases[p] for p in PHASES if p in phases},
        "attributed_s": sum(phases.values()),
        "steps": steps,
    }
