"""Slow-query log: retain the spans of the N worst queries.

A bounded, always-on capture of the most expensive queries the process has
served.  The :class:`SlowQueryLog` keeps the ``capacity`` worst query
:class:`~repro.obs.tracing.Span` objects by duration (a min-heap of the
retained set, so recording is O(log N) and a fast query that does not beat
the current floor costs one comparison).  The span already carries
everything needed to replay or explain the outlier after the fact: its name
(``query.<family>.<kind>``), the ``argument``/``strategy``/``endpoint``
attributes, the plan's work counters, and the ``span_id``/``trace_id`` that
join it to logs and kept traces.

The process-global instance (:func:`slow_query_log`) is fed by
:class:`repro.cube.query.QueryEngine`, dumped by the CLI ``--slowlog``
flag, and printed by ``examples/subspace_query_service.py`` on shutdown.
"""

from __future__ import annotations

import heapq
import threading

from .tracing import Span

__all__ = [
    "SlowQueryLog",
    "slow_query_log",
    "configure_slow_query_log",
    "reset_slow_queries",
]

#: Default number of worst queries retained.
DEFAULT_CAPACITY = 32


class SlowQueryLog:
    """Bounded worst-N-by-duration retention of finished query spans."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        #: Total queries offered to :meth:`record` (retained or not).
        self.seen = 0
        # Min-heap of (seconds, sequence, span): the root is the cheapest
        # retained query, i.e. the one a slower newcomer evicts.
        self._heap: list[tuple[float, int, Span]] = []
        self._seq = 0
        # Serve's handler threads share the global log.
        self._lock = threading.Lock()

    def record(self, sp: Span) -> bool:
        """Offer one finished query span; returns True when it was retained."""
        seconds = sp.duration_seconds
        with self._lock:
            self.seen += 1
            self._seq += 1
            item = (seconds, self._seq, sp)
            if len(self._heap) < self.capacity:
                heapq.heappush(self._heap, item)
                return True
            if seconds <= self._heap[0][0]:
                return False
            heapq.heapreplace(self._heap, item)
            return True

    def __len__(self) -> int:
        return len(self._heap)

    def entries(self) -> list[Span]:
        """Retained query spans, worst (slowest) first."""
        with self._lock:
            items = list(self._heap)
        return [item[2] for item in sorted(items, key=lambda it: (-it[0], it[1]))]

    def render(self, limit: int | None = None) -> str:
        """Human-readable report (the CLI ``--slowlog`` output)."""
        entries = self.entries()
        if limit is not None:
            entries = entries[:limit]
        if not entries:
            return "(no queries recorded)"
        lines = [
            f"slow-query log: {len(entries)} of {self.seen} queries "
            f"(capacity {self.capacity})"
        ]
        for i, sp in enumerate(entries, 1):
            attrs = sp.attributes
            kind = sp.name.removeprefix("query.")
            line = (
                f"{i:3d}. {sp.duration_seconds * 1e3:9.3f} ms  {kind}"
                f"({attrs.get('argument', '')})  span_id={sp.span_id}"
            )
            if sp.trace_id:
                line += f"  trace_id={sp.trace_id}"
            if attrs.get("endpoint"):
                line += f"  endpoint={attrs['endpoint']}"
            lines.append(line)
            if "strategy" in attrs:
                detail = ", ".join(f"{k}={v}" for k, v in sp.counters.items())
                lines.append(f"      plan: {attrs['strategy']}  [{detail}]")
        return "\n".join(lines)

    def clear(self) -> None:
        """Drop every retained entry and zero the seen count."""
        with self._lock:
            self._heap = []
            self._seq = 0
            self.seen = 0


#: The process-global slow-query log fed by the query engine.
_SLOW_LOG = SlowQueryLog()


def slow_query_log() -> SlowQueryLog:
    """The process-global slow-query log."""
    return _SLOW_LOG


def configure_slow_query_log(capacity: int | None = None) -> SlowQueryLog:
    """Re-create the global log with a new capacity.

    Previously retained entries are dropped (the retention invariant of
    the old capacity does not transfer).  Returns the new instance.
    """
    global _SLOW_LOG
    _SLOW_LOG = SlowQueryLog(
        capacity=capacity if capacity is not None else _SLOW_LOG.capacity
    )
    return _SLOW_LOG


def reset_slow_queries() -> None:
    """Clear the global log in place (tests, repeated CLI invocations)."""
    _SLOW_LOG.clear()
