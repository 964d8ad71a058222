"""One runner per figure of the paper's evaluation section.

Every runner returns a :class:`~repro.bench.reporting.FigureResult` whose
rows mirror the series of the original plot: same x-axis, one column per
plotted curve.  Absolute numbers differ from the paper (Python vs compiled
C++ on 2007 hardware; see DESIGN.md §4) -- the claims under test are the
*shapes*: who wins, by what order of magnitude, and where the crossovers
fall.

Budget handling: each algorithm of a sweep runs under a
:class:`~repro.bench.harness.BudgetedRunner`; once one point exceeds the
scale's per-point budget the remaining (strictly more expensive) points are
reported as skipped, which corresponds to the off-the-chart region of the
paper's log-scale plots.

Answer check: Stellar and Skyey both compute the whole compressed cube, so
wherever both ran at a sweep point (Figures 8, 11 and 12) their canonical
groups must be equal; a difference raises :class:`AnswerMismatch` and
fails the run.
"""

from __future__ import annotations

from collections.abc import Callable

from ..baselines.skyey import skyey
from ..core.stellar import stellar
from ..core.types import Dataset
from ..cube.compressed import CompressedSkylineCube
from ..data.generators import make_dataset
from ..data.nba import generate_nba_like
from ..obs.tracing import Tracer, current_tracer
from .harness import SCALES, BenchPoint, BudgetedRunner, Scale
from .reporting import FigureResult

__all__ = [
    "AnswerMismatch",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "FIGURES",
    "run_figure",
]

#: Seed pinning every benchmark dataset.
_SEED = 20070415

#: The distributions of Figures 10-12 with the paper's spelling.
_DISTRIBUTIONS = ("correlated", "equal", "anticorrelated")

#: Fixed dimensionality of the Figure 12 size sweep, per distribution.
_FIG12_DIMS = {"correlated": 6, "equal": 4, "anticorrelated": 4}


class AnswerMismatch(RuntimeError):
    """Stellar and Skyey returned different cubes at one sweep point."""


def _check_agreement(where: str, p_stellar: BenchPoint, p_skyey: BenchPoint) -> None:
    """Raise :class:`AnswerMismatch` unless both cubes agree; skipped points pass."""
    if p_stellar.result is None or p_skyey.result is None:
        return
    if _canonical(p_stellar.result) != _canonical(p_skyey.result):
        raise AnswerMismatch(f"Stellar and Skyey disagree at {where}")


def _canonical(result) -> list[tuple]:
    return [(g.key, g.decisive, g.projection) for g in result.groups]


def _resolve(scale: str | Scale) -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise ValueError(f"unknown scale {scale!r}; known: {known}") from None


def _dim_range(max_dim: int) -> list[int]:
    return list(range(1, max_dim + 1))


def figure8(scale: str | Scale = "default") -> FigureResult:
    """Figure 8: runtime vs dimensionality on the NBA-like dataset."""
    sc = _resolve(scale)
    nba = generate_nba_like(n_players=sc.nba_players, seed=_SEED)
    stellar_runner = BudgetedRunner(sc.time_budget)
    skyey_runner = BudgetedRunner(sc.time_budget)
    rows: list[list[object]] = []
    for d in _dim_range(min(sc.nba_max_dim, nba.n_dims)):
        data = nba.prefix_dims(d)
        p_stellar = stellar_runner.run(d, "stellar", lambda: stellar(data))
        p_skyey = skyey_runner.run(d, "skyey", lambda: skyey(data))
        _check_agreement(f"Figure 8, d={d}", p_stellar, p_skyey)
        speedup = (
            p_skyey.seconds / p_stellar.seconds
            if p_skyey.seconds and p_stellar.seconds
            else None
        )
        rows.append([d, p_stellar.seconds, p_skyey.seconds, speedup])
    return FigureResult(
        figure="Figure 8",
        title=f"Scalability w.r.t. dimensionality, NBA-like data "
        f"({sc.nba_players} players)",
        headers=["d", "stellar_s", "skyey_s", "skyey/stellar"],
        rows=rows,
        notes=[
            "paper shape: Stellar is much faster than Skyey at every d, "
            "with the gap widening exponentially in d (log-scale plot)",
            f"per-point budget {sc.time_budget:.0f}s; '-' = skipped after "
            "the budget was exceeded at a smaller d",
        ],
    )


def figure9(scale: str | Scale = "default") -> FigureResult:
    """Figure 9: #skyline groups and #subspace skyline objects, NBA-like."""
    sc = _resolve(scale)
    nba = generate_nba_like(n_players=sc.nba_players, seed=_SEED)
    counts_runner = BudgetedRunner(sc.time_budget)
    rows: list[list[object]] = []
    for d in _dim_range(min(sc.nba_max_dim, nba.n_dims)):
        data = nba.prefix_dims(d)
        result = stellar(data)
        cube = CompressedSkylineCube(data, result.groups)
        point = counts_runner.run(
            d, "counts", lambda: cube.summary().n_subspace_skyline_objects
        )
        rows.append([d, len(result.groups), point.result])
    return FigureResult(
        figure="Figure 9",
        title=f"Skyline groups vs subspace skyline objects, NBA-like data "
        f"({sc.nba_players} players)",
        headers=["d", "skyline_groups", "subspace_skyline_objects"],
        rows=rows,
        notes=[
            "paper shape: subspace skyline objects grow exponentially with d "
            "while skyline groups grow moderately (bounded by the full-space "
            "skyline when no value sharing hits decisive subspaces)",
        ],
    )


def figure10(scale: str | Scale = "default") -> FigureResult:
    """Figure 10: skyline distribution on the three synthetic data sets."""
    sc = _resolve(scale)
    rows: list[list[object]] = []
    for dist in _DISTRIBUTIONS:
        max_dim = sc.corr_max_dim if dist == "correlated" else sc.other_max_dim
        runner = BudgetedRunner(sc.time_budget)
        for d in range(2, max_dim + 1):
            data = make_dataset(dist, sc.synthetic_tuples, d, seed=_SEED)
            point = runner.run(d, dist, lambda: _cube_sizes(data))
            if point.seconds is None:
                rows.append([dist, d, None, None])
            else:
                n_groups, n_sky_objects = point.result
                rows.append([dist, d, n_groups, n_sky_objects])
    return FigureResult(
        figure="Figure 10",
        title=f"Skyline distribution, synthetic data "
        f"({sc.synthetic_tuples} tuples)",
        headers=["distribution", "d", "skyline_groups", "subspace_skyline_objects"],
        rows=rows,
        notes=[
            "paper shape: on correlated data groups are orders of magnitude "
            "fewer than subspace skyline objects; on equal and especially "
            "anti-correlated data both grow nearly exponentially and the gap "
            "narrows",
        ],
    )


def figure11(scale: str | Scale = "default") -> FigureResult:
    """Figure 11: runtime vs dimensionality on the three distributions."""
    sc = _resolve(scale)
    rows: list[list[object]] = []
    for dist in _DISTRIBUTIONS:
        max_dim = sc.corr_max_dim if dist == "correlated" else sc.other_max_dim
        stellar_runner = BudgetedRunner(sc.time_budget)
        skyey_runner = BudgetedRunner(sc.time_budget)
        for d in range(2, max_dim + 1):
            data = make_dataset(dist, sc.synthetic_tuples, d, seed=_SEED)
            p_stellar = stellar_runner.run(d, "stellar", lambda: stellar(data))
            p_skyey = skyey_runner.run(d, "skyey", lambda: skyey(data))
            _check_agreement(f"Figure 11, {dist} d={d}", p_stellar, p_skyey)
            rows.append([dist, d, p_stellar.seconds, p_skyey.seconds])
    return FigureResult(
        figure="Figure 11",
        title=f"Scalability w.r.t. dimensionality, synthetic data "
        f"({sc.synthetic_tuples} tuples)",
        headers=["distribution", "d", "stellar_s", "skyey_s"],
        rows=rows,
        notes=[
            "paper shape: Stellar wins big on correlated data, modestly on "
            "equal data, and LOSES to Skyey on anti-correlated data (most "
            "subspace skyline objects form their own groups, so compression "
            "buys nothing while Stellar pays for a huge seed set)",
        ],
    )


def figure12(scale: str | Scale = "default") -> FigureResult:
    """Figure 12: runtime vs database size on the three distributions."""
    sc = _resolve(scale)
    rows: list[list[object]] = []
    for dist in _DISTRIBUTIONS:
        d = _FIG12_DIMS[dist]
        stellar_runner = BudgetedRunner(sc.time_budget)
        skyey_runner = BudgetedRunner(sc.time_budget)
        for n in sc.size_sweep:
            data = make_dataset(dist, n, d, seed=_SEED)
            p_stellar = stellar_runner.run(n, "stellar", lambda: stellar(data))
            p_skyey = skyey_runner.run(n, "skyey", lambda: skyey(data))
            _check_agreement(f"Figure 12, {dist} n={n}", p_stellar, p_skyey)
            rows.append([dist, d, n, p_stellar.seconds, p_skyey.seconds])
    return FigureResult(
        figure="Figure 12",
        title="Scalability w.r.t. database size, synthetic data "
        "(correlated d=6, equal d=4, anti-correlated d=4)",
        headers=["distribution", "d", "tuples", "stellar_s", "skyey_s"],
        rows=rows,
        notes=[
            "paper shape: both algorithms scale near-linearly with database "
            "size; Stellar is faster on correlated and equal data, slower on "
            "anti-correlated data",
        ],
    )


def _cube_sizes(data: Dataset) -> tuple[int, int]:
    """(#skyline groups, #subspace skyline objects) via the compressed cube."""
    result = stellar(data)
    cube = CompressedSkylineCube(data, result.groups)
    return len(result.groups), cube.summary().n_subspace_skyline_objects


FIGURES: dict[str, Callable[..., FigureResult]] = {
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
}


def run_figure(name: str, scale: str | Scale = "default") -> FigureResult:
    """Regenerate one figure by short name (``fig8`` ... ``fig12``)."""
    try:
        fn = FIGURES[name]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise ValueError(f"unknown figure {name!r}; known: {known}") from None
    # A phase span with no total up front: each sweep point ticks it as it
    # finishes (BudgetedRunner.run), with or without --trace.
    tracer = current_tracer() or Tracer()
    label = scale if isinstance(scale, str) else scale.name
    with tracer.span(f"bench.{name}", scale=label, total=None):
        return fn(scale)
