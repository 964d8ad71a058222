"""Shared benchmarking machinery: scales, timers, budget-aware sweeps."""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from ..obs.export import write_trace
from ..obs.flight import record as flight_record
from ..obs.tracing import current_tracer, span, tick

__all__ = [
    "Scale",
    "SCALES",
    "BenchPoint",
    "time_call",
    "BudgetedRunner",
    "emit_trace",
]


@dataclass(frozen=True)
class Scale:
    """One benchmark scale preset.

    Attributes
    ----------
    name:
        Preset name (``smoke`` / ``default`` / ``paper``).
    nba_players:
        Number of NBA-like players for Figures 8-9.
    nba_max_dim:
        Largest dimensionality of the NBA sweeps.
    synthetic_tuples:
        Dataset size for Figures 10-11.
    size_sweep:
        Database sizes for Figure 12.
    corr_max_dim / other_max_dim:
        Dimensionality caps per distribution (the paper sweeps correlated
        data to 14 dimensions but equal/anti-correlated only to 6).
    time_budget:
        Per-point seconds after which an algorithm is skipped for the rest
        of a sweep.
    """

    name: str
    nba_players: int
    nba_max_dim: int
    synthetic_tuples: int
    size_sweep: tuple[int, ...]
    corr_max_dim: int
    other_max_dim: int
    time_budget: float


SCALES: dict[str, Scale] = {
    "smoke": Scale(
        name="smoke",
        nba_players=300,
        nba_max_dim=6,
        synthetic_tuples=400,
        size_sweep=(200, 400),
        corr_max_dim=6,
        other_max_dim=4,
        time_budget=5.0,
    ),
    "default": Scale(
        name="default",
        nba_players=4_000,
        nba_max_dim=17,
        synthetic_tuples=10_000,
        size_sweep=(10_000, 20_000, 30_000, 40_000, 50_000),
        corr_max_dim=14,
        other_max_dim=6,
        time_budget=30.0,
    ),
    "paper": Scale(
        name="paper",
        nba_players=17_265,
        nba_max_dim=17,
        synthetic_tuples=100_000,
        size_sweep=(100_000, 200_000, 300_000, 400_000, 500_000),
        corr_max_dim=14,
        other_max_dim=6,
        time_budget=600.0,
    ),
}


@dataclass
class BenchPoint:
    """One (x, algorithm) measurement of a sweep."""

    x: float
    algorithm: str
    seconds: float | None  # None = skipped (over budget)
    #: Return value of the measured callable (None when skipped).
    result: object = None

    @property
    def display(self) -> str:
        """Rendering for tables: seconds, or ``skipped``."""
        if self.seconds is None:
            return "skipped"
        return f"{self.seconds:.3f}"


def time_call(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """Run ``fn`` and return ``(result, wall_seconds)``."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


class BudgetedRunner:
    """Runs one algorithm across a sweep until it blows the time budget.

    Once a point exceeds the budget, all later (larger) points of the same
    sweep are reported as skipped -- sweeps here are monotone in cost, so
    re-measuring ever-slower points would only burn wall-clock without
    adding information to the figure.
    """

    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds
        self._blown = False

    def run(self, x: float, algorithm: str, fn: Callable) -> BenchPoint:
        """Measure one sweep point, or skip it once the budget is blown."""
        if self._blown:
            tick()
            return BenchPoint(x=x, algorithm=algorithm, seconds=None)
        flight_record("bench.point", algorithm=algorithm, x=x)
        with span("bench.point", algorithm=algorithm, x=x):
            result, seconds = time_call(fn)
        if seconds > self.budget:
            self._blown = True
        tick()
        return BenchPoint(x=x, algorithm=algorithm, seconds=seconds, result=result)


def emit_trace(directory: str | Path, stem: str) -> Path | None:
    """Write the active tracer's spans as a Chrome trace next to results.

    Returns the written path (``<directory>/<stem>.trace.json``), or None
    when tracing is disabled or no spans were recorded.  The tracer is
    cleared afterwards so consecutive figures get separate trace files.
    """
    tracer = current_tracer()
    if tracer is None or not tracer.roots:
        return None
    path = write_trace(Path(directory) / f"{stem}.trace.json", tracer.roots)
    tracer.clear()
    return path
