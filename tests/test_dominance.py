"""Tests for dominance/coincidence relations and the pairwise matrices."""

import numpy as np
from hypothesis import given, settings

from repro.core.dominance import (
    PairwiseMatrices,
    dominates,
    equal_mask,
    strictly_less_mask,
)
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.data import make_dataset

from .conftest import tiny_int_datasets


class TestPredicates:
    def setup_method(self):
        self.m = np.array(
            [
                [2.0, 6.0, 8.0, 3.0],  # P2
                [6.0, 4.0, 8.0, 5.0],  # P4
                [2.0, 4.0, 9.0, 3.0],  # P5
            ]
        )

    def test_strictly_less_mask_paper_cells(self):
        # dom[P2, P4] = AD (Figure 4a)
        assert strictly_less_mask(self.m, 0, 1) == 0b1001
        # dom[P2, P5] = C
        assert strictly_less_mask(self.m, 0, 2) == 0b0100
        # dom[P5, P4] = AD
        assert strictly_less_mask(self.m, 2, 1) == 0b1001

    def test_strictly_less_mask_universe(self):
        assert strictly_less_mask(self.m, 0, 1, universe=0b0001) == 0b0001

    def test_equal_mask_paper_cells(self):
        # co[P2, P4] = C (Figure 4b)
        assert equal_mask(self.m, 0, 1) == 0b0100
        # co[P2, P5] = AD
        assert equal_mask(self.m, 0, 2) == 0b1001
        # co[P_i, P_i] = ABCD
        assert equal_mask(self.m, 1, 1) == 0b1111

    def test_dominates(self):
        # P2 dominates P4 in AD
        assert dominates(self.m, 0, 1, 0b1001)
        # but not in C (equal there)
        assert not dominates(self.m, 0, 1, 0b0100)
        # nobody dominates anyone in the full space (all are seeds)
        for i in range(3):
            for j in range(3):
                assert not dominates(self.m, i, j, 0b1111)

    def test_equal_projections_never_dominate(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0]])
        assert not dominates(m, 0, 1, 0b11)
        assert not dominates(m, 1, 0, 0b11)


class TestPairwiseMatrices:
    def test_matches_figure4(self, running_example):
        # Seeds of the running example are P2, P4, P5 (indices 1, 3, 4).
        matrices = PairwiseMatrices(running_example, [1, 3, 4])
        dom, co = matrices.as_dense()
        AD, C, B, ABCD = 0b1001, 0b0100, 0b0010, 0b1111
        assert dom == [
            [0, AD, C],
            [B, 0, C],
            [B, AD, 0],
        ]
        assert co == [
            [ABCD, C, AD],
            [C, ABCD, B],
            [AD, B, ABCD],
        ]

    def test_property1(self, running_example):
        """Property 1: co is symmetric, diagonal full, derivable from dom."""
        matrices = PairwiseMatrices(running_example, [1, 3, 4])
        full = matrices.full_space
        for i in range(3):
            assert matrices.dom(i, i) == 0
            assert matrices.co(i, i) == full
            for j in range(3):
                assert matrices.co(i, j) == matrices.co(j, i)
                assert matrices.co(i, j) == (
                    full & ~matrices.dom(i, j) & ~matrices.dom(j, i)
                )

    def test_co_derivation_matches_direct(self, running_example):
        """Reading dominance rows first leaves co() unchanged: rows are
        not cached, so no earlier read can switch how a cell is computed."""
        a = PairwiseMatrices(running_example, [1, 3, 4])
        b = PairwiseMatrices(running_example, [1, 3, 4])
        for i in range(3):
            a.dom_row(i)
        for i in range(3):
            for j in range(3):
                assert a.co(i, j) == b.eq_row(i)[j]

    def test_len(self, running_example):
        assert len(PairwiseMatrices(running_example, [0, 2])) == 2

    @settings(max_examples=40, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=4))
    def test_rows_match_bruteforce(self, ds: Dataset):
        indices = list(range(ds.n_objects))
        matrices = PairwiseMatrices(ds, indices)
        m = ds.minimized
        for i in indices:
            for j in indices:
                assert matrices.dom(i, j) == strictly_less_mask(m, i, j)
                assert matrices.co(i, j) == equal_mask(m, i, j)


class TestHighDimensional:
    def test_beyond_62_dims_uses_bigints(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 3, size=(4, 70)).astype(float)
        ds = Dataset(values=values)
        matrices = PairwiseMatrices(ds, [0, 1, 2, 3])
        m = ds.minimized
        for i in range(4):
            for j in range(4):
                assert matrices.dom(i, j) == strictly_less_mask(m, i, j)
        assert matrices.full_space == (1 << 70) - 1


class TestOneRowPerRoot:
    """No cache holds the rows, so the phase counts pin one row per root."""

    def test_phase_comparison_counts(self):
        ds = make_dataset("anticorrelated", 150, 5, seed=11)
        result = stellar(ds)
        k = len(result.seeds)
        assert k > 50
        root = result.stats.root_span
        for phase in ("maximal_cgroups", "seed_decisive"):
            assert root.find(phase).counters["dominance_comparisons"] == k * k
        # The extension reuses the seed groups' decisive subspaces and
        # reads no dominance row.
        counters = root.find("nonseed_extension").counters
        assert counters["dominance_comparisons"] == 0
