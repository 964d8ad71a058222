"""Behaviour-specific tests for individual skyline algorithms.

The registry-wide agreement suite proves all algorithms compute the same
set; these tests pin the *distinctive* mechanism of each one -- the part
that would silently degrade into a slow brute force if broken.
"""

import numpy as np

from repro.core.dominance import COMPARISONS
from repro.data import make_dataset
from repro.skyline.base import skyline_brute
from repro.skyline.numpy_skyline import (
    _CHUNK,
    _FILTER_ROUND,
    BITSET_MAX_ROWS,
    FILTER_HEAD,
    chunked_sorted_skyline,
    skyline_rows,
)
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

    def test_dominance_chain_inside_one_chunk(self):
        # a < b < c all land in the first chunk with two incomparable rows;
        # c's dominators (a and b) are never in the window when c is tested.
        proj = np.array(
            [[2.0, 2.0], [0.0, 5.0], [1.0, 1.0], [5.0, 0.0], [0.0, 0.0]]
        )
        ordered = proj[monotone_order(proj)]
        expected = skyline_brute(ordered, None)
        assert chunked_sorted_skyline(ordered) == expected == [0]
        assert chunked_sorted_skyline(ordered, chunk=1) == expected

    def test_duplicates_straddling_a_chunk_boundary(self):
        ordered = np.array(
            [[0.0, 6.0], [6.0, 0.0], [2.0, 5.0], [2.0, 5.0], [5.0, 5.0]]
        )
        assert list(monotone_order(ordered)) == list(range(5))
        expected = skyline_brute(ordered, None)
        assert expected == [0, 1, 2, 3]
        # chunk=3 splits the duplicate pair (positions 2 and 3).
        for chunk in (1, 2, 3, 4, 512):
            assert chunked_sorted_skyline(ordered, chunk=chunk) == expected

    def test_small_chunks_match_brute_force_on_a_large_skyline(self):
        # Most rows are skyline rows, so nearly every candidate meets a
        # window spread over many earlier chunks.
        proj = make_dataset("anticorrelated", 400, 3, seed=2).minimized
        ordered = proj[monotone_order(proj)]
        expected = skyline_brute(ordered, None)
        assert len(expected) > 100
        for chunk in (1, 7, 64):
            assert chunked_sorted_skyline(ordered, chunk=chunk) == expected

    def test_tie_heavy_input_above_bitset_cutoff(self):
        rng = np.random.default_rng(11)
        proj = rng.integers(0, 4, size=(BITSET_MAX_ROWS + 1, 3)).astype(float)
        order = monotone_order(proj)
        positions = chunked_sorted_skyline(proj[order])
        assert sorted(int(order[p]) for p in positions) == skyline_brute(proj, None)


def _charged(ordered: np.ndarray, chunk: int) -> int:
    before = COMPARISONS.value
    chunked_sorted_skyline(ordered, chunk=chunk)
    return COMPARISONS.value - before


class TestChunkedScanCharge:
    """The scan's ``COMPARISONS`` rule: one test per (candidate, window
    row) pair compared, plus ``c^2`` for the ``c`` window survivors."""

    def test_single_chunk_with_empty_window_charges_n_squared(self):
        proj = make_dataset("independent", 50, 3, seed=5).minimized
        ordered = proj[monotone_order(proj)]
        assert _charged(ordered, chunk=64) == 50 * 50

    def test_all_skyline_input_over_several_chunks(self):
        n, chunk = 10, 4
        # An anti-diagonal: no row dominates another, so every row
        # survives its window and joins it.
        ordered = np.column_stack([np.arange(n), np.arange(n)[::-1]]).astype(float)
        assert len(skyline_brute(ordered, None)) == n
        expected = 0
        for start in range(0, n, chunk):
            c = min(chunk, n - start)
            expected += c * start + c * c
        assert expected == 68
        assert _charged(ordered, chunk) == expected


def _charged_rows(proj: np.ndarray) -> int:
    before = COMPARISONS.value
    skyline_rows(proj)
    return COMPARISONS.value - before


class TestFilterCharge:
    """The filter's ``COMPARISONS`` rule: ``H^2`` for the head's self-test
    once there are more than ``H`` rows, plus one test per (row, filter
    point) pair the pass compares, then the kernel's own charge on the
    survivors."""

    H = FILTER_HEAD

    def _one_filter_point(self, n: int, survivors: int) -> np.ndarray:
        # The zero row dominates the H - 1 unit rows of the head, so it is
        # the one filter point; the rows with a negative first value survive
        # it, and their sums are distinct.
        units = np.eye(2)[np.arange(self.H - 1) % 2]
        step = np.arange(1.0, survivors)
        kept = np.column_stack([-step, 100.0 + 2 * step])
        dominated = np.full((n - self.H - (survivors - 1), 2), 100.0)
        return np.vstack([np.zeros((1, 2)), units, kept, dominated])

    def test_no_filter_up_to_the_head_size(self):
        proj = make_dataset("anticorrelated", self.H, 3, seed=3).minimized
        assert _charged_rows(proj) == self.H * self.H

    def test_a_round_that_removes_nothing_ends_the_pass(self):
        # An anti-diagonal: no row dominates another, so the first round of
        # filter points removes nothing and the bitsets take every row.
        n = 300
        proj = np.column_stack([np.arange(n), np.arange(n)[::-1]]).astype(float)
        first_round = n * _FILTER_ROUND
        assert _charged_rows(proj) == self.H * self.H + first_round + n * n

    def test_each_round_tests_only_the_rows_left(self):
        # Nine filter points P_k = (2k, 20 - k), incomparable, with distinct
        # sums: the first round holds P_0..P_7, the second P_8 alone.  The
        # head's other rows and the (100, 100) rows fall in round one; the
        # (17, 12) rows only P_8 dominates; the (-1, 1000) rows survive.
        points = [[2.0 * k, 20.0 - k] for k in range(9)]
        head_rest = [[2.0 * k, 21.0 - k] for k in np.arange(self.H - 9) % 8]
        second_round = [[17.0, 12.0]] * 5
        kept = [[-1.0, 1000.0 + j] for j in range(10)]
        dominated = [[100.0, 100.0]] * 500
        proj = np.array(points + head_rest + second_round + kept + dominated)
        n, left = len(proj), 9 + 5 + 10
        expected = self.H * self.H + n * _FILTER_ROUND + left * 1 + 19 * 19
        assert _charged_rows(proj) == expected

    def test_filter_pass_then_bitset_on_the_survivors(self):
        n, survivors = 500, 40
        proj = self._one_filter_point(n, survivors)
        expected = self.H * self.H + n * 1 + survivors * survivors
        assert _charged_rows(proj) == expected

    def test_filter_pass_then_scan_above_the_bitset_cut(self):
        n, survivors = BITSET_MAX_ROWS + 300, BITSET_MAX_ROWS + 1
        proj = self._one_filter_point(n, survivors)
        kept = np.vstack([proj[:1], proj[self.H : self.H + survivors - 1]])
        scan = _charged(kept[monotone_order(kept)], _CHUNK)
        assert _charged_rows(proj) == self.H * self.H + n * 1 + scan
