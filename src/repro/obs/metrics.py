"""Process-local metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the aggregation side of the observability layer (spans are
the per-operation side): long-lived totals and latency distributions that
survive across many operations.  Histograms use *fixed* bucket boundaries,
so observation is O(log buckets) with no per-sample allocation and p50/p95/
p99 come for free via linear interpolation inside the winning bucket --
the standard Prometheus-style trade of a bounded quantile error for
constant memory.

Instances are cheap plain objects; a process-global default registry is
reachable via :func:`registry` and is what the query engine and CLI use.
:func:`reset_metrics` zeroes metrics *in place*, so call sites may cache
metric handles across resets.

Mutation is thread-safe: HTTP handler threads increment counters
concurrently, the heartbeat thread sets gauges concurrently with the
build, and the Prometheus endpoint reads the registry from its own
handler threads.  Each metric carries its own lock (allocated once at
creation, so the hot mutation path allocates nothing), and registry-level
get-or-create is guarded separately.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Info",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "registry",
    "reset_metrics",
]

#: Default histogram boundaries for latencies, in seconds: roughly
#: logarithmic from 5 microseconds to one minute.  Observations beyond the
#: last bound land in the overflow bucket.
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """Monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        """Zero the count."""
        with self._lock:
            self.value = 0


class Gauge:
    """Last-write-wins instantaneous value (thread-safe)."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Record the current value."""
        with self._lock:
            self.value = value

    def reset(self) -> None:
        """Zero the value."""
        with self._lock:
            self.value = 0.0


class Info:
    """A gauge whose value is a short string (phase names, versions).

    Exported to Prometheus as an info-style series:
    ``repro_build_phase{value="nonseed_extension"} 1``.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value: str = ""
        self._lock = threading.Lock()

    def set(self, value: str) -> None:
        """Record the current string value."""
        with self._lock:
            self.value = str(value)

    def reset(self) -> None:
        """Clear the value."""
        with self._lock:
            self.value = ""


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything beyond the last bound.
    """

    __slots__ = (
        "name", "bounds", "counts", "count", "total", "_min", "_max",
        "_exemplars", "_lock",
    )

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None):
        self.name = name
        self.bounds = tuple(sorted(bounds if bounds else DEFAULT_TIME_BUCKETS))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: bucket index -> (trace_id, observed value, unix timestamp); the
        #: last sampled trace that landed in each bucket, exported as an
        #: OpenMetrics exemplar (see repro.obs.promexport).
        self._exemplars: dict[int, tuple[str, float, float]] = {}
        self._lock = threading.Lock()

    def observe(self, value: float, *, trace_id: str | None = None) -> None:
        """Record one sample, optionally tagged with a trace exemplar.

        ``trace_id`` should only be passed for *sampled* requests (ones a
        trace sink actually kept), so exemplars always point at traces
        that can be looked up with ``repro trace show``.
        """
        with self._lock:
            bucket = bisect_left(self.bounds, value)
            self.counts[bucket] += 1
            self.count += 1
            self.total += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if trace_id:
                self._exemplars[bucket] = (trace_id, value, time.time())

    def exemplars(self) -> dict[int, tuple[str, float, float]]:
        """Per-bucket ``(trace_id, value, timestamp)`` exemplars (a copy)."""
        with self._lock:
            return dict(self._exemplars)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (NaN when empty)."""
        return self.total / self.count if self.count else math.nan

    @property
    def min(self) -> float:
        """Smallest observed sample (NaN when empty)."""
        return self._min if self.count else math.nan

    @property
    def max(self) -> float:
        """Largest observed sample (NaN when empty)."""
        return self._max if self.count else math.nan

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``0 < q <= 1``) by bucket interpolation.

        Exact to within one bucket width; the overflow bucket reports the
        maximum observed value.
        """
        if not 0 < q <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = q * self.count
        cumulative = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if cumulative + c >= target:
                if i == len(self.bounds):  # overflow bucket
                    return self._max
                lo = self.bounds[i - 1] if i > 0 else min(self._min, self.bounds[i])
                hi = self.bounds[i]
                fraction = (target - cumulative) / c
                estimate = lo + (hi - lo) * fraction
                # The true quantile can never leave the observed range.
                return min(max(estimate, self._min), self._max)
            cumulative += c
        return self._max

    @property
    def p50(self) -> float:
        """Median latency estimate."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th-percentile latency estimate."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th-percentile latency estimate."""
        return self.quantile(0.99)

    def reset(self) -> None:
        """Drop every sample, keeping the bucket boundaries."""
        with self._lock:
            self.counts = [0] * (len(self.bounds) + 1)
            self.count = 0
            self.total = 0.0
            self._min = math.inf
            self._max = -math.inf
            self._exemplars = {}

    def summary(self) -> dict[str, float]:
        """Headline statistics as a plain dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }


class MetricsRegistry:
    """Named metrics, created on first use and shared thereafter.

    Get-or-create is guarded by a registry lock, so two threads asking for
    the same name always share one metric object; the fast path (metric
    already exists) is a dict read before the lock is taken.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._infos: dict[str, Info] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.get(name)
                if c is None:
                    c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.get(name)
                if g is None:
                    g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """Get or create the histogram ``name`` (bounds fixed at creation)."""
        h = self._histograms.get(name)
        if h is None:
            with self._lock:
                h = self._histograms.get(name)
                if h is None:
                    h = self._histograms[name] = Histogram(name, bounds)
        return h

    def info(self, name: str) -> Info:
        """Get or create the string-valued info metric ``name``."""
        i = self._infos.get(name)
        if i is None:
            with self._lock:
                i = self._infos.get(name)
                if i is None:
                    i = self._infos[name] = Info(name)
        return i

    def counters(self) -> dict[str, Counter]:
        """Name-sorted view of every counter (exporters iterate this)."""
        return dict(sorted(self._counters.items()))

    def gauges(self) -> dict[str, Gauge]:
        """Name-sorted view of every gauge."""
        return dict(sorted(self._gauges.items()))

    def histograms(self) -> dict[str, Histogram]:
        """Name-sorted view of every histogram."""
        return dict(sorted(self._histograms.items()))

    def infos(self) -> dict[str, Info]:
        """Name-sorted view of every info metric."""
        return dict(sorted(self._infos.items()))

    def snapshot(self) -> dict[str, object]:
        """All current values as a JSON-friendly dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "infos": {n: i.value for n, i in sorted(self._infos.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable report (the CLI ``--metrics`` output)."""
        lines: list[str] = []
        for name, c in sorted(self._counters.items()):
            lines.append(f"counter    {name} = {c.value}")
        for name, g in sorted(self._gauges.items()):
            lines.append(f"gauge      {name} = {g.value:g}")
        for name, i in sorted(self._infos.items()):
            if i.value:
                lines.append(f"info       {name} = {i.value}")
        for name, h in sorted(self._histograms.items()):
            if h.count == 0:
                lines.append(f"histogram  {name}: (no samples)")
                continue
            lines.append(
                f"histogram  {name}: count={h.count} mean={_fmt(h.mean)} "
                f"p50={_fmt(h.p50)} p95={_fmt(h.p95)} p99={_fmt(h.p99)} "
                f"max={_fmt(h.max)}"
            )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def reset(self) -> None:
        """Zero every metric in place (cached handles remain valid)."""
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for i in self._infos.values():
            i.reset()
        for h in self._histograms.values():
            h.reset()


def _fmt(seconds: float) -> str:
    """Adaptive duration rendering for the text report."""
    if math.isnan(seconds):
        return "nan"
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds * 1e6:.1f}us"


#: The process-global registry used by built-in instrumentation.
_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def reset_metrics() -> None:
    """Zero the global registry (tests, repeated CLI invocations)."""
    _REGISTRY.reset()
