"""Trace exporters: console tree, NDJSON lines, Chrome ``trace_event`` JSON.

Three renderings of the same span forest:

* :func:`render_span_tree` -- box-drawing tree with durations, counters and
  attributes; what ``--trace`` (no file) prints.
* :func:`spans_to_ndjson` / :func:`spans_from_ndjson` -- one JSON object per
  span in the trace sink's record format (:mod:`repro.obs.tracesink`);
  line-oriented so traces can be grepped, streamed, diffed, or read by
  ``repro trace``'s reassembly.  The pair round-trips, children in start
  order.
* :func:`spans_to_chrome_trace` -- the Chrome ``trace_event`` format
  (``{"traceEvents": [...]}`` with complete ``"ph": "X"`` events), loadable
  in ``about:tracing`` or https://ui.perfetto.dev.

:func:`write_trace` picks the format from the file suffix.
"""

from __future__ import annotations

import json
from pathlib import Path

from .tracesink import assemble_trace, parse_span_records, span_records
from .tracing import Span

__all__ = [
    "render_span_tree",
    "spans_to_ndjson",
    "spans_from_ndjson",
    "spans_to_chrome_trace",
    "write_trace",
    "TRACE_SUFFIXES",
]


def _as_list(spans: Span | list[Span]) -> list[Span]:
    return [spans] if isinstance(spans, Span) else list(spans)


#: Longest attribute/counter value rendered in the console tree; anything
#: longer is truncated with an ellipsis so one span stays one line.
_DETAIL_VALUE_LIMIT = 48


def _clip(value: object) -> str:
    """Render one detail value on a single line, escaped and truncated."""
    text = str(value)
    # Escape control characters (newlines, tabs, ...) so a multi-line
    # attribute cannot break the one-line-per-span console format.
    text = text.encode("unicode_escape").decode("ascii")
    if len(text) > _DETAIL_VALUE_LIMIT:
        text = text[: _DETAIL_VALUE_LIMIT - 1] + "…"
    return text


def _details(span: Span) -> str:
    parts = [f"{k}={_clip(v)}" for k, v in span.counters.items()]
    parts += [f"{k}={_clip(v)}" for k, v in span.attributes.items()]
    return f"  [{', '.join(parts)}]" if parts else ""


def render_span_tree(spans: Span | list[Span]) -> str:
    """Pretty console tree of one or more span roots."""
    lines: list[str] = []

    def emit(span: Span, prefix: str, child_prefix: str) -> None:
        ms = span.duration_ns / 1e6
        lines.append(f"{prefix}{span.name}  {ms:.3f} ms{_details(span)}")
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            branch = "└─ " if last else "├─ "
            extend = "   " if last else "│  "
            emit(child, child_prefix + branch, child_prefix + extend)

    for root in _as_list(spans):
        emit(root, "", "")
    return "\n".join(lines)


def spans_to_ndjson(spans: Span | list[Span]) -> str:
    """Serialise a span forest as NDJSON, one :func:`span_records` line each.

    The same flat format the trace sink stores: ``span_id`` /
    ``parent_span_id`` links, so :func:`spans_from_ndjson` (or
    :func:`~repro.obs.tracesink.assemble_trace`) rebuilds the trees.
    """
    lines = [
        json.dumps(rec, sort_keys=True, default=str)
        for root in _as_list(spans)
        for rec in span_records(root, trace_id=root.trace_id, source="local")
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_ndjson(text: str) -> list[Span]:
    """Rebuild the span forest of an NDJSON trace via ``assemble_trace``."""
    records = parse_span_records(text.splitlines())
    return [node.span for node in assemble_trace(records)]


def spans_to_chrome_trace(spans: Span | list[Span]) -> dict:
    """Convert a span forest to the Chrome ``trace_event`` JSON structure.

    Every span becomes one complete event (``"ph": "X"``) with microsecond
    ``ts``/``dur`` relative to the earliest span, counters and attributes
    merged into ``args``.  The result is ``json.dump``-able as is.
    """
    roots = _as_list(spans)
    starts = [s.start_ns for s in roots if s.start_ns]
    epoch = min(starts) if starts else 0
    events: list[dict] = []

    def emit(span: Span) -> None:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start_ns - epoch) / 1e3,
                "dur": span.duration_ns / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {**span.attributes, **span.counters},
            }
        )
        for child in span.children:
            emit(child)

    for root in roots:
        emit(root)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: File suffixes :func:`write_trace` understands, with their formats.
TRACE_SUFFIXES = {
    ".json": "chrome",
    ".ndjson": "ndjson",
    ".jsonl": "ndjson",
}


def write_trace(path: str | Path, spans: Span | list[Span]) -> Path:
    """Write a trace file; format chosen by suffix.

    ``.ndjson`` / ``.jsonl`` write NDJSON lines, ``.json`` the Chrome
    ``trace_event`` JSON.  Any other suffix raises :class:`ValueError`
    naming the supported ones (a silently mis-formatted trace file is
    worse than an error).  Parent directories are created as needed.
    """
    path = Path(path)
    fmt = TRACE_SUFFIXES.get(path.suffix)
    if fmt is None:
        supported = ", ".join(sorted(TRACE_SUFFIXES))
        raise ValueError(
            f"unsupported trace file suffix {path.suffix!r} for {path}; "
            f"supported suffixes: {supported}"
        )
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "ndjson":
        path.write_text(spans_to_ndjson(spans))
    else:
        path.write_text(json.dumps(spans_to_chrome_trace(spans), indent=1) + "\n")
    return path
