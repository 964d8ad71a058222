"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not a paper figure -- these quantify the library's own knobs:

* Skyey's shared sort keys vs per-subspace recomputation (the toggle has
  no effect while the skyline kernel sums each subspace itself);
* duplicate binding on duplicate-heavy data (the Section 5 preprocessing);
* the registered skyline algorithms across the three distributions;
* dominance-comparison counts per algorithm -- the hardware-independent
  cost metric of the skyline literature, recorded in each benchmark's
  ``extra_info`` (see ``--benchmark-json``) via
  :data:`repro.core.dominance.COMPARISONS`.
"""

import numpy as np
import pytest

from repro.baselines import skyey
from repro.core.dominance import COMPARISONS
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.data import make_dataset
from repro.skyline import SKYLINE_ALGORITHMS

@pytest.mark.parametrize("shared", (True, False), ids=("shared", "recompute"))
def test_skyey_sort_key_sharing(benchmark, nba, shared):
    data = nba.prefix_dims(6)
    result = benchmark.pedantic(
        skyey,
        args=(data,),
        kwargs={"share_sort_keys": shared},
        rounds=1,
        iterations=1,
    )
    assert result.stats.n_subspaces_searched == 63


@pytest.fixture(scope="module")
def duplicate_heavy():
    """A dataset where 80% of the rows are exact duplicates."""
    rng = np.random.default_rng(7)
    distinct = np.floor(rng.random((400, 4)) * 20) / 20
    picks = rng.integers(0, 400, size=1600)
    values = np.vstack([distinct, distinct[picks]])
    return Dataset(values=values)


@pytest.mark.parametrize("bind", (True, False), ids=("bound", "unbound"))
def test_duplicate_binding(benchmark, duplicate_heavy, bind):
    result = benchmark.pedantic(
        stellar,
        args=(duplicate_heavy,),
        kwargs={"bind_duplicates": bind},
        rounds=2,
        iterations=1,
    )
    assert result.groups
    if bind:
        # >= because the coarse-grid "distinct" base rows may themselves
        # collide occasionally
        assert result.stats.n_bound_duplicates >= 1600


@pytest.mark.parametrize("dist", ("correlated", "independent", "anticorrelated"))
@pytest.mark.parametrize("algorithm", ("numpy", "sfs"))
def test_skyline_algorithm_by_distribution(benchmark, algorithm, dist):
    data = make_dataset(dist, 1_000, 4, seed=20070415)
    fn = SKYLINE_ALGORITHMS[algorithm]
    skyline = benchmark.pedantic(
        fn, args=(data.minimized, None), rounds=2, iterations=1
    )
    assert skyline


@pytest.mark.parametrize("dist", ("correlated", "independent", "anticorrelated"))
@pytest.mark.parametrize("algorithm", ("brute", "numpy", "sfs"))
def test_skyline_comparison_counts(benchmark, algorithm, dist):
    """Pairwise-test counts per skyline algorithm and distribution.

    Wall-clock numbers depend on the interpreter and the machine; the
    number of dominance comparisons does not, which is why the skyline
    literature reports it.  Counts land in ``extra_info`` of the benchmark
    record (``pytest benchmarks/ --benchmark-json=...``).
    """
    data = make_dataset(dist, 1_000, 4, seed=20070415)
    fn = SKYLINE_ALGORITHMS[algorithm]

    def measured():
        COMPARISONS.reset()
        skyline = fn(data.minimized, None)
        return skyline, COMPARISONS.value

    skyline, comparisons = benchmark.pedantic(measured, rounds=1, iterations=1)
    benchmark.extra_info["dominance_comparisons"] = comparisons
    benchmark.extra_info["skyline_size"] = len(skyline)
    assert skyline
    assert comparisons > 0


def test_stellar_vs_skyey_comparison_counts(benchmark, nba):
    """Stellar's whole-pipeline comparison count on one NBA configuration.

    The seed phase plus the dominance-matrix rows are everything Stellar
    pays in pairwise tests -- the count Skyey cannot match because it must
    search every subspace (compare Figure 8 at the same dimensionality).
    """
    data = nba.prefix_dims(6)

    def measured():
        COMPARISONS.reset()
        result = stellar(data)
        stellar_comparisons = COMPARISONS.reset()
        skyey(data)
        skyey_comparisons = COMPARISONS.reset()
        return result, stellar_comparisons, skyey_comparisons

    result, stellar_comparisons, skyey_comparisons = benchmark.pedantic(
        measured, rounds=1, iterations=1
    )
    benchmark.extra_info["stellar_comparisons"] = stellar_comparisons
    benchmark.extra_info["skyey_comparisons"] = skyey_comparisons
    assert result.groups
    assert stellar_comparisons > 0
    assert skyey_comparisons > 0


def test_stellar_build_independent_20k(benchmark):
    """Stellar at 20,000 x 4: the elimination filter and the share-map join.

    The full-space skyline's filter leaves a few hundred of the 20,000
    rows to the bitset kernel, and the non-seed extension joins ~19,800
    non-seeds against the seed groups.  Too big for the definitional
    oracle, so the pinned seed and group counts are the check.
    """
    data = make_dataset("independent", 20_000, 4, seed=20070415)
    result = benchmark.pedantic(stellar, args=(data,), rounds=1, iterations=1)
    assert len(result.seeds) == 175
    assert result.stats.n_seed_groups == 176
    assert len(result.groups) == 177


@pytest.mark.parametrize(
    "strategy", ("shared", "topdown"), ids=("shared-keys", "candidate-pruned")
)
def test_skycube_strategy(benchmark, strategy):
    """Parent-candidate pruning vs plain shared-key DFS on correlated data.

    On correlated data the candidate sets collapse to a handful of objects
    per subspace, so the top-down pruned cube should win by a wide margin.
    """
    from repro.skycube import skycube_shared, skycube_topdown

    data = make_dataset("correlated", 4_000, 8, seed=20070415)
    fn = skycube_shared if strategy == "shared" else skycube_topdown
    cube = benchmark.pedantic(fn, args=(data,), rounds=1, iterations=1)
    assert len(cube) == 255
