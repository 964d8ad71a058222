"""Figure 12: runtime vs database size (correlated d=6, equal d=4, anti d=4).

The paper's claim: both algorithms scale near-linearly with database size,
with the same per-distribution winner ordering as Figure 11.
"""

import time

import pytest

from repro.baselines import skyey
from repro.core.stellar import stellar
from repro.data import make_dataset

SIZES = (1_000, 2_000, 4_000)
FIG12_DIMS = {"correlated": 6, "independent": 4, "anticorrelated": 4}


@pytest.mark.parametrize("n", SIZES)
def test_stellar_correlated_size_sweep(benchmark, n):
    data = make_dataset("correlated", n, FIG12_DIMS["correlated"], seed=2)
    result = benchmark.pedantic(stellar, args=(data,), rounds=2, iterations=1)
    assert result.groups


@pytest.mark.parametrize("n", SIZES)
def test_skyey_correlated_size_sweep(benchmark, n):
    data = make_dataset("correlated", n, FIG12_DIMS["correlated"], seed=2)
    result = benchmark.pedantic(skyey, args=(data,), rounds=2, iterations=1)
    assert result.groups


@pytest.mark.parametrize("dist", sorted(FIG12_DIMS))
def test_both_at_largest_size(benchmark, dist):
    """Stellar's groups equal Skyey's at the largest size of each
    distribution: the serial cross-check that keeps the anti-correlated
    c-group enumeration in CI."""
    data = make_dataset(dist, SIZES[-1], FIG12_DIMS[dist], seed=2)

    def both():
        return stellar(data), skyey(data)

    stellar_result, skyey_result = benchmark.pedantic(
        both, rounds=1, iterations=1
    )
    assert [g.key for g in stellar_result.groups] == [
        g.key for g in skyey_result.groups
    ]


def test_shape_near_linear_scaling():
    """Doubling n must not blow either algorithm up super-linearly (within
    a generous constant for the skyline-size growth on correlated data)."""
    times = {}
    for n in (2_000, 8_000):
        data = make_dataset("correlated", n, 6, seed=3)
        t0 = time.perf_counter()
        stellar(data)
        times[("stellar", n)] = time.perf_counter() - t0
        t0 = time.perf_counter()
        skyey(data)
        times[("skyey", n)] = time.perf_counter() - t0
    for algo in ("stellar", "skyey"):
        growth = times[(algo, 8_000)] / max(times[(algo, 2_000)], 1e-9)
        assert growth < 16, (algo, growth)  # 4x data, allow 16x time
