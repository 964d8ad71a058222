"""Behaviour-specific tests for individual skyline algorithms.

The registry-wide agreement suite proves all algorithms compute the same
set; these tests pin the *distinctive* mechanism of each one -- the part
that would silently degrade into a slow brute force if broken.
"""

import numpy as np

from repro.core.types import Dataset
from repro.index import SubskyIndex
from repro.skyline.nn import skyline_nn
from repro.skyline.numpy_skyline import chunked_sorted_skyline
from repro.skyline.sfs import monotone_order


class TestMonotoneOrder:
    def test_sum_is_primary_key(self):
        proj = np.array([[5.0, 5.0], [1.0, 2.0], [3.0, 3.0]])
        order = list(monotone_order(proj))
        assert order == [1, 2, 0]

    def test_lexicographic_tiebreak(self):
        proj = np.array([[2.0, 1.0], [1.0, 2.0], [0.0, 3.0]])
        # equal sums: lexicographic ascending on coordinates
        assert list(monotone_order(proj)) == [2, 1, 0]

    def test_dominators_always_precede_victims(self):
        rng = np.random.default_rng(0)
        proj = np.floor(rng.random((60, 3)) * 10)
        order = list(monotone_order(proj))
        position = {obj: pos for pos, obj in enumerate(order)}
        for i in range(60):
            for j in range(60):
                if i == j:
                    continue
                if np.all(proj[i] <= proj[j]) and np.any(proj[i] < proj[j]):
                    assert position[i] < position[j]


class TestChunkedScan:
    def test_tiny_chunks_agree_with_large(self):
        rng = np.random.default_rng(1)
        proj = np.floor(rng.random((300, 3)) * 8)
        ordered = proj[monotone_order(proj)]
        assert chunked_sorted_skyline(ordered, chunk=1) == chunked_sorted_skyline(
            ordered, chunk=4096
        )

    def test_positions_refer_to_sorted_matrix(self):
        ordered = np.array([[0.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        assert chunked_sorted_skyline(ordered) == [0]


class TestNNRecursion:
    def test_minimum_sum_point_is_first_found(self):
        m = np.array([[4.0, 4.0], [1.0, 1.0], [0.0, 3.0]])
        assert 1 in skyline_nn(m, None)

    def test_all_duplicates_collapse_to_one_call(self):
        m = np.ones((30, 3))
        assert skyline_nn(m, None) == list(range(30))

    def test_deep_antichain(self):
        n = 40
        m = np.column_stack([np.arange(n, dtype=float),
                             np.arange(n, dtype=float)[::-1]])
        assert skyline_nn(m, None) == list(range(n))


class TestSubskyScanDepthMonotonicity:
    def test_smaller_subspace_never_scans_less_than_skyline(self):
        ds = Dataset(values=np.floor(
            np.random.default_rng(4).random((500, 3)) * 100) / 100)
        index = SubskyIndex(ds)
        for subspace in (0b001, 0b011, 0b111):
            skyline = index.query(subspace)
            assert index.last_scanned >= len(skyline)
