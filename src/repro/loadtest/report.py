"""Aggregation, capacity modelling, and ledger output for load runs.

:func:`summarize` folds the raw :class:`~repro.loadtest.runner
.RequestRecord` stream into the operator-facing numbers -- per-endpoint
p50/p95/p99 (exact, from the raw client-side samples, not histogram
buckets), shed and error rates, cache-hit ratio -- and fits the capacity
model:

    ``per_worker_rps = 1 / (h * t_hit + (1 - h) * t_miss)``

where ``h`` is the measured cache-hit ratio and ``t_hit`` / ``t_miss``
the median service time of cached and uncached responses.  One server
worker alternating between hits and misses at the observed mix sustains
that throughput; multiplying by the server's concurrency bound gives the
deployment's sustainable rate, and ``t_miss`` scaled per 1k cube groups
makes the model transferable across cube sizes (miss cost is group-bound
work; hit cost is not).

:func:`report_entry` turns a report into a ``BENCH_serve.json`` ledger
entry whose metrics are uniformly *higher is worse* (latencies, error
rate, cache-**miss** ratio, consistency violations), which is what lets
``repro bench diff --only '*_p99_s'`` gate tail-latency regressions.
"""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass, field

from ..bench.ledger import LedgerEntry, host_cpus
from ..obs.slo import SLOReport
from .runner import LoadtestResult, RequestRecord

__all__ = [
    "percentile",
    "slowest",
    "EndpointStats",
    "CapacityModel",
    "LoadtestReport",
    "fit_capacity",
    "summarize",
    "report_entry",
]


def percentile(samples: list[float], q: float) -> float:
    """Exact nearest-rank percentile of ``samples`` (NaN when empty)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(1, -(-int(q * 1000) * len(ordered) // 1000))  # ceil(q * n)
    return ordered[min(rank, len(ordered)) - 1]


@dataclass(frozen=True)
class EndpointStats:
    """Latency/outcome aggregation of one query kind."""

    kind: str
    count: int
    ok: int
    shed: int
    deadline_exceeded: int
    errors: int
    cache_hits: int
    p50_s: float
    p95_s: float
    p99_s: float
    mean_s: float
    #: The endpoint's worst requests (``slowest()`` output), each carrying
    #: the client-generated ``trace_id`` so report -> ``repro trace show``
    #: is one command, and the server's echoed ``cube_version``.
    slowest: tuple[dict, ...] = ()

    def to_dict(self) -> dict:
        """JSON-ready form of this endpoint's stats."""
        return {
            "kind": self.kind,
            "count": self.count,
            "ok": self.ok,
            "shed": self.shed,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "cache_hits": self.cache_hits,
            "p50_s": round(self.p50_s, 6),
            "p95_s": round(self.p95_s, 6),
            "p99_s": round(self.p99_s, 6),
            "mean_s": round(self.mean_s, 6),
            "slowest": [dict(s) for s in self.slowest],
        }


@dataclass(frozen=True)
class CapacityModel:
    """Fitted sustainable-throughput model (see module docstring)."""

    hit_ratio: float
    t_hit_s: float
    t_miss_s: float
    per_worker_rps: float
    n_groups: int | None = None
    t_miss_per_1k_groups_s: float | None = None

    def sustainable_rps(self, workers: int) -> float:
        """Throughput ``workers`` concurrent server slots can sustain."""
        return self.per_worker_rps * workers

    def to_dict(self) -> dict:
        """JSON-ready form of the fitted model."""
        payload = {
            "hit_ratio": round(self.hit_ratio, 4),
            "t_hit_s": round(self.t_hit_s, 6),
            "t_miss_s": round(self.t_miss_s, 6),
            "per_worker_rps": round(self.per_worker_rps, 2),
        }
        if self.n_groups is not None:
            payload["n_groups"] = self.n_groups
        if self.t_miss_per_1k_groups_s is not None:
            payload["t_miss_per_1k_groups_s"] = round(
                self.t_miss_per_1k_groups_s, 6
            )
        return payload

    def render(self) -> str:
        """Human-readable summary of the fitted model."""
        lines = [
            "capacity model (per_worker_rps = 1 / (h*t_hit + (1-h)*t_miss)):",
            f"  hit ratio h      {self.hit_ratio:.3f}",
            f"  t_hit (median)   {self.t_hit_s * 1e3:.3f} ms",
            f"  t_miss (median)  {self.t_miss_s * 1e3:.3f} ms",
            f"  per worker       {self.per_worker_rps:.1f} req/s",
        ]
        if self.t_miss_per_1k_groups_s is not None:
            lines.append(
                f"  miss cost        "
                f"{self.t_miss_per_1k_groups_s * 1e3:.3f} ms per 1k groups "
                f"(cube: {self.n_groups} groups)"
            )
        return "\n".join(lines)


def slowest(
    records: list[RequestRecord], limit: int = 5
) -> tuple[dict, ...]:
    """The ``limit`` slowest requests, worst first, trace ids attached.

    Each entry is report -> trace lookup material: the open-loop latency,
    the client-generated ``trace_id`` (same id the server's sink stores,
    so ``repro trace show <id>`` works directly), the echoed
    ``cube_version``, and the outcome (status / cached).
    """
    worst = sorted(records, key=lambda r: r.seconds, reverse=True)[:limit]
    return tuple(
        {
            "seconds": round(r.seconds, 6),
            "status": r.status,
            "cached": r.cached,
            "trace_id": r.trace_id,
            "cube_version": r.cube_version,
        }
        for r in worst
    )


def fit_capacity(
    records: list[RequestRecord], n_groups: int | None = None
) -> CapacityModel | None:
    """Fit the capacity model from successful requests (None if too few).

    Medians of *service* time (send to completion) are used, not the
    open-loop latency: queueing delay is the symptom capacity planning
    predicts, so it must not contaminate the model's inputs.  When one
    class (all-hits or all-misses) is empty its median falls back to the
    other's, collapsing the model to ``1 / t``.
    """
    ok = [r for r in records if r.ok]
    if not ok:
        return None
    hits = sorted(r.service_seconds for r in ok if r.cached)
    misses = sorted(r.service_seconds for r in ok if not r.cached)
    t_hit = percentile(hits or misses, 0.5)
    t_miss = percentile(misses or hits, 0.5)
    h = len(hits) / len(ok)
    denom = h * t_hit + (1.0 - h) * t_miss
    if denom <= 0:
        return None
    per_1k = None
    if n_groups:
        per_1k = t_miss / (n_groups / 1000.0)
    return CapacityModel(
        hit_ratio=h,
        t_hit_s=t_hit,
        t_miss_s=t_miss,
        per_worker_rps=1.0 / denom,
        n_groups=n_groups,
        t_miss_per_1k_groups_s=per_1k,
    )


@dataclass(frozen=True)
class LoadtestReport:
    """The full operator-facing summary of one run."""

    duration_seconds: float
    target_rps: float
    achieved_rps: float
    scheduled: int
    completed: int
    max_lag_seconds: float
    endpoints: tuple[EndpointStats, ...]
    overall_p50_s: float
    overall_p95_s: float
    overall_p99_s: float
    error_rate: float
    shed_rate: float
    cache_hit_ratio: float
    slo: SLOReport
    capacity: CapacityModel | None
    churn: dict = field(default_factory=dict)
    consistency: dict = field(default_factory=dict)
    snapshot_activation: dict | None = None

    @property
    def consistency_violations(self) -> int:
        """Total oracle failures: audit violations, read inconsistencies,
        and lost-durable-write regressions after a restart drill."""
        return (
            len(self.consistency.get("violations", ()))
            + len(self.consistency.get("read_inconsistencies", ()))
            + len(self.consistency.get("durability_violations", ()))
        )

    @property
    def ok(self) -> bool:
        """No consistency violations and every SLO with traffic met."""
        return self.consistency_violations == 0 and self.slo.ok

    def to_dict(self) -> dict:
        """JSON-ready form of the full report (``--report`` output)."""
        return {
            "duration_seconds": round(self.duration_seconds, 3),
            "target_rps": self.target_rps,
            "achieved_rps": round(self.achieved_rps, 2),
            "scheduled": self.scheduled,
            "completed": self.completed,
            "max_lag_seconds": round(self.max_lag_seconds, 6),
            "endpoints": [e.to_dict() for e in self.endpoints],
            "overall_p50_s": round(self.overall_p50_s, 6),
            "overall_p95_s": round(self.overall_p95_s, 6),
            "overall_p99_s": round(self.overall_p99_s, 6),
            "error_rate": round(self.error_rate, 6),
            "shed_rate": round(self.shed_rate, 6),
            "cache_hit_ratio": round(self.cache_hit_ratio, 6),
            "slo": self.slo.to_dict(),
            "capacity": self.capacity.to_dict() if self.capacity else None,
            "churn": dict(self.churn),
            "consistency": dict(self.consistency),
            "snapshot_activation": (
                dict(self.snapshot_activation)
                if self.snapshot_activation
                else None
            ),
            "ok": self.ok,
        }

    def render(self) -> str:
        """Human-readable report: totals, per-endpoint table, SLOs, model."""
        lines = [
            f"loadtest: {self.completed}/{self.scheduled} requests over "
            f"{self.duration_seconds:.1f}s "
            f"(target {self.target_rps:g} req/s, "
            f"achieved {self.achieved_rps:.1f}, "
            f"max dispatch lag {self.max_lag_seconds * 1e3:.1f} ms)",
            f"  overall: p50 {self.overall_p50_s * 1e3:.2f} ms  "
            f"p95 {self.overall_p95_s * 1e3:.2f} ms  "
            f"p99 {self.overall_p99_s * 1e3:.2f} ms",
            f"  error rate {self.error_rate:.4f}  "
            f"shed rate {self.shed_rate:.4f}  "
            f"cache hit ratio {self.cache_hit_ratio:.3f}",
        ]
        width = max((len(e.kind) for e in self.endpoints), default=4)
        for e in self.endpoints:
            lines.append(
                f"  {e.kind.ljust(width)}  n={e.count:<6d} "
                f"p50 {e.p50_s * 1e3:8.2f} ms  "
                f"p95 {e.p95_s * 1e3:8.2f} ms  "
                f"p99 {e.p99_s * 1e3:8.2f} ms  "
                f"shed {e.shed}  hits {e.cache_hits}"
            )
            for s in e.slowest:
                tail = f" version={s['cube_version']}" if s["cube_version"] else ""
                trace = s["trace_id"] or "-"
                lines.append(
                    f"    slow {s['seconds'] * 1e3:8.2f} ms  "
                    f"status={s['status']} "
                    f"cached={'y' if s['cached'] else 'n'}  "
                    f"trace={trace}{tail}"
                )
        if self.churn:
            lines.append(
                "  churn: "
                + ", ".join(f"{k} {v}" for k, v in sorted(self.churn.items()))
            )
        consistency = self.consistency
        if consistency:
            lines.append(
                f"  consistency: {consistency.get('verified', 0)} verified, "
                f"{len(consistency.get('violations', ()))} violations, "
                f"{len(consistency.get('read_inconsistencies', ()))} "
                f"read inconsistencies, "
                f"{len(consistency.get('durability_violations', ()))} "
                f"durability violations"
            )
        activation = self.snapshot_activation
        if activation and activation.get("count"):
            lines.append(
                f"  snapshot activation: {activation['count']} swaps, "
                f"p50 {activation['p50_s'] * 1e3:.2f} ms  "
                f"p99 {activation['p99_s'] * 1e3:.2f} ms"
            )
        if self.capacity:
            lines.append(self.capacity.render())
        lines.append(self.slo.render())
        return "\n".join(lines)


def summarize(result: LoadtestResult) -> LoadtestReport:
    """Aggregate one run into the operator-facing report."""
    records = result.records
    by_kind: dict[str, list[RequestRecord]] = {}
    for record in records:
        by_kind.setdefault(record.kind, []).append(record)
    endpoints = []
    for kind in sorted(by_kind):
        group = by_kind[kind]
        latencies = [r.seconds for r in group]
        endpoints.append(
            EndpointStats(
                kind=kind,
                count=len(group),
                ok=sum(r.ok for r in group),
                shed=sum(r.shed for r in group),
                deadline_exceeded=sum(r.deadline_exceeded for r in group),
                errors=sum(1 for r in group if r.error),
                cache_hits=sum(r.cached for r in group),
                p50_s=percentile(latencies, 0.50),
                p95_s=percentile(latencies, 0.95),
                p99_s=percentile(latencies, 0.99),
                mean_s=sum(latencies) / len(latencies),
                slowest=slowest(group),
            )
        )
    latencies = [r.seconds for r in records]
    completed = len(records)
    ok = sum(r.ok for r in records)
    shed = sum(r.shed for r in records)
    # Errors are everything that is neither success nor *deliberate*
    # shedding: 4xx/5xx surprises, deadline expiries, transport failures.
    errors = completed - ok - shed
    hits = sum(r.cached for r in records)
    return LoadtestReport(
        duration_seconds=result.wall_seconds,
        target_rps=result.config.rate_rps,
        achieved_rps=completed / result.wall_seconds if result.wall_seconds else 0.0,
        scheduled=result.scheduled,
        completed=completed,
        max_lag_seconds=result.max_lag_seconds,
        endpoints=tuple(endpoints),
        overall_p50_s=percentile(latencies, 0.50),
        overall_p95_s=percentile(latencies, 0.95),
        overall_p99_s=percentile(latencies, 0.99),
        error_rate=errors / completed if completed else 0.0,
        shed_rate=shed / completed if completed else 0.0,
        cache_hit_ratio=hits / ok if ok else 0.0,
        slo=result.slo_report,
        capacity=fit_capacity(records, result.n_groups),
        churn=dict(result.churn),
        consistency=dict(result.consistency),
        snapshot_activation=(
            dict(result.snapshot_activation)
            if result.snapshot_activation
            else None
        ),
    )


def report_entry(
    report: LoadtestReport,
    scale: str = "smoke",
    figure: str = "serve",
) -> LedgerEntry:
    """A ``BENCH_serve.json`` ledger entry for one load run.

    Metric orientation is uniformly higher-is-worse: latencies, error
    rate, cache-*miss* ratio (so a cache regression raises the number),
    and consistency violations.  Workload identity (rate, duration, seed,
    churn, capacity fit) travels in the ``workload`` block, which the
    diff logic ignores.
    """
    metrics: dict[str, float] = {
        "overall_p50_s": round(report.overall_p50_s, 6),
        "overall_p95_s": round(report.overall_p95_s, 6),
        "overall_p99_s": round(report.overall_p99_s, 6),
        "error_rate": round(report.error_rate, 6),
        "shed_rate": round(report.shed_rate, 6),
        "cache_miss_ratio": round(1.0 - report.cache_hit_ratio, 6),
        "consistency_violations": report.consistency_violations,
    }
    for endpoint in report.endpoints:
        if endpoint.count == 0:
            continue
        metrics[f"{endpoint.kind}_p50_s"] = round(endpoint.p50_s, 6)
        metrics[f"{endpoint.kind}_p99_s"] = round(endpoint.p99_s, 6)
    activation = report.snapshot_activation
    if activation and activation.get("count"):
        # Snapshot swap latency (map cube.bin, replay the WAL), gated by
        # the same ``*_p99_s`` glob as the query latencies.
        metrics["snapshot_activate_p99_s"] = round(activation["p99_s"], 6)
    workload = {
        "title": "open-loop serving load test",
        "target_rps": report.target_rps,
        "achieved_rps": round(report.achieved_rps, 2),
        "duration_seconds": round(report.duration_seconds, 3),
        "scheduled": report.scheduled,
        "completed": report.completed,
        "cache_hit_ratio": round(report.cache_hit_ratio, 4),
        "churn": dict(report.churn),
        "slo_ok": report.slo.ok,
    }
    if activation:
        workload["snapshot_activation"] = dict(activation)
    if report.capacity:
        workload["capacity"] = report.capacity.to_dict()
    return LedgerEntry(
        figure=figure,
        scale=scale,
        created=time.time(),
        metrics=metrics,
        workload=workload,
        host_cpus=host_cpus(),
        python=platform.python_version(),
    )
