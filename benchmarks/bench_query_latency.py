"""Subspace-query latency: materialised cube vs. raw skyline.

The paper's Section 3 contrasts materialising subspace skylines with
computing them per query; this benchmark stages both on the same workload:

* **compressed cube** (this paper): Stellar materialises skyline groups
  once; a query is interval containment over the groups -- no data access;
* **raw skyline** (no precomputation): run SFS on the subspace per query.

The cube pays a build that the raw skyline does not, so the suite reports
build time and per-query latency separately.
"""

import pytest

from repro.core.stellar import stellar
from repro.cube import CompressedSkylineCube
from repro.data import make_dataset
from repro.skyline import compute_skyline

N_TUPLES = 5_000
N_DIMS = 6
#: A mix of low- and high-dimensional query subspaces.
QUERY_SUBSPACES = (0b000011, 0b001100, 0b011011, 0b111111, 0b000101)


@pytest.fixture(scope="module")
def workload():
    data = make_dataset("correlated", N_TUPLES, N_DIMS, seed=20070415)
    result = stellar(data)
    cube = CompressedSkylineCube(data, result.groups)
    return data, cube


def test_build_stellar_cube(benchmark):
    data = make_dataset("correlated", N_TUPLES, N_DIMS, seed=20070415)
    benchmark.pedantic(
        lambda: CompressedSkylineCube(data, stellar(data).groups),
        rounds=2,
        iterations=1,
    )


def test_query_compressed_cube(benchmark, workload):
    data, cube = workload

    def run():
        return [cube.skyline_of(s) for s in QUERY_SUBSPACES]

    answers = benchmark(run)
    assert all(answers)


def test_query_raw_skyline(benchmark, workload):
    data, _ = workload

    def run():
        return [compute_skyline(data, s) for s in QUERY_SUBSPACES]

    answers = benchmark(run)
    assert all(answers)


def test_cube_and_raw_skyline_agree(workload):
    data, cube = workload
    for s in QUERY_SUBSPACES:
        assert cube.skyline_of(s) == compute_skyline(data, s)
