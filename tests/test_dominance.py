"""Tests for dominance/coincidence relations and the pairwise matrices."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import dominance
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


def _coincidence_cells(matrices: PairwiseMatrices) -> dict[tuple[int, int], int]:
    """Every cell the equality join yields, keyed by ``(u, o)``."""
    cells: dict[tuple[int, int], int] = {}
    for _, _, us, os_, masks in matrices.coincidences():
        for u, o, mask in zip(us.tolist(), os_.tolist(), masks.tolist()):
            assert (u, o) not in cells
            cells[(u, o)] = mask
    return cells


def _nonzero_equal_cells(m: np.ndarray, k: int) -> dict[tuple[int, int], int]:
    """Brute force: the non-zero off-diagonal ``equal_mask`` cells."""
    cells = {(u, o): equal_mask(m, u, o) for u in range(k) for o in range(k) if u != o}
    return {pair: mask for pair, mask in cells.items() if mask}


class TestPairwiseMatrices:
    def test_matches_figure4(self, running_example):
        # Seeds of the running example are P2, P4, P5 (indices 1, 3, 4).
        matrices = PairwiseMatrices(running_example, [1, 3, 4])
        AD, C, B = 0b1001, 0b0100, 0b0010
        assert matrices.as_dense() == [
            [0, AD, C],
            [B, 0, C],
            [B, AD, 0],
        ]
        # Figure 4b off the diagonal: every pair of seeds ties somewhere.
        assert _coincidence_cells(matrices) == {
            (0, 1): C,
            (0, 2): AD,
            (1, 0): C,
            (1, 2): B,
            (2, 0): AD,
            (2, 1): B,
        }

    def test_property1(self, running_example):
        """Property 1: co is symmetric and derivable from dom."""
        matrices = PairwiseMatrices(running_example, [1, 3, 4])
        full = matrices.full_space
        cells = _coincidence_cells(matrices)
        for i in range(3):
            assert matrices.dom(i, i) == 0
            for j in range(3):
                if i == j:
                    continue
                derived = full & ~matrices.dom(i, j) & ~matrices.dom(j, i)
                assert cells.get((i, j), 0) == cells.get((j, i), 0) == derived

    @settings(max_examples=40, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=4))
    def test_co_derivation_matches_direct(self, ds: Dataset):
        """The join's cells are Property 1's derivation from the dominance
        rows, and every pair the join leaves out derives to the empty set."""
        k = ds.n_objects
        matrices = PairwiseMatrices(ds, list(range(k)))
        dom = matrices.as_dense()
        full = matrices.full_space
        cells = _coincidence_cells(matrices)
        for i in range(k):
            for j in range(k):
                if i != j:
                    derived = full & ~dom[i][j] & ~dom[j][i]
                    assert cells.get((i, j), 0) == derived

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


class TestCoincidenceJoin:
    """The equality join yields exactly the non-zero coincidence cells."""

    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=4))
    def test_every_nonzero_cell_once_and_no_zero_cell(self, ds: Dataset):
        k = ds.n_objects
        matrices = PairwiseMatrices(ds, list(range(k)))
        # _coincidence_cells asserts that no pair comes twice.
        assert _coincidence_cells(matrices) == _nonzero_equal_cells(ds.minimized, k)

    @pytest.mark.parametrize("budget", [1, 5])
    def test_small_budget_splits_roots_into_blocks(self, budget):
        values = np.random.default_rng(3).integers(0, 3, size=(30, 3)).astype(float)
        ds = Dataset(values=values)
        matrices = PairwiseMatrices(ds, list(range(30)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dominance, "_PAIR_BUDGET", budget)
            blocks = list(matrices.coincidences())
            got = _coincidence_cells(matrices)
        assert len(blocks) > 1
        # The blocks tile the roots in order, and each holds only its roots.
        assert [b[0] for b in blocks] == [0, *(b[1] for b in blocks[:-1])]
        assert blocks[-1][1] == 30
        for start, stop, us, _, _ in blocks:
            assert ((us >= start) & (us < stop)).all()
        assert got == _nonzero_equal_cells(ds.minimized, 30)

    def test_beyond_62_dims_cells_are_python_ints(self):
        rng = np.random.default_rng(9)
        ds = Dataset(values=rng.integers(0, 2, size=(6, 70)).astype(float))
        matrices = PairwiseMatrices(ds, list(range(6)))
        got = _coincidence_cells(matrices)
        assert got == _nonzero_equal_cells(ds.minimized, 6)
        assert any(mask >> 62 for mask in got.values())


class TestDominanceRowPacking:
    """``dom_row_array`` packs exactly on the float32 path (d ≤ 24), the
    int64 fallback (d = 25) and the object path (d = 70)."""

    @pytest.mark.parametrize("d", [24, 25, 70])
    def test_rows_equal_strictly_less_mask(self, d):
        rng = np.random.default_rng(d)
        values = rng.integers(0, 3, size=(12, d)).astype(float)
        # Row 0 is strictly below row 1 everywhere: its cell is the full
        # space, the mask needing the most bits.
        values[0], values[1] = 0.0, 5.0
        ds = Dataset(values=values)
        matrices = PairwiseMatrices(ds, list(range(12)))
        m = ds.minimized
        expected_dtype = object if d > 62 else np.int64
        for i in range(12):
            row = matrices.dom_row_array(i)
            assert row.dtype == expected_dtype
            assert row.tolist() == [strictly_less_mask(m, i, j) for j in range(12)]
        assert matrices.dom(0, 1) == (1 << d) - 1


class TestDominanceRowBlocks:
    """``dom_rows_array`` stacks the rows of any subset of roots in the
    narrowest unsigned dtype, and counts one comparison per cell."""

    @pytest.mark.parametrize(
        "d, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16), (16, np.uint16)]
    )
    def test_block_equals_rows(self, d, dtype):
        rng = np.random.default_rng(d)
        values = rng.integers(0, 3, size=(12, d)).astype(float)
        values[0], values[1] = 0.0, 5.0
        ds = Dataset(values=values)
        matrices = PairwiseMatrices(ds, list(range(12)))
        roots = np.array([1, 0, 7, 7])
        before = dominance.COMPARISONS.value
        block = matrices.dom_rows_array(roots)
        assert dominance.COMPARISONS.value - before == len(roots) * 12
        assert block.dtype == dtype
        assert block.tolist() == [matrices.dom_row(int(i)) for i in roots]
        assert block[1, 1] == (1 << d) - 1


@st.composite
def _tie_heavy_signed(draw) -> tuple[Dataset, list[int]]:
    """Tie-heavy rows with exact duplicates and both signed zeros, some
    dimensions maximised, and a subset of them as the seeds."""
    d = draw(st.sampled_from([1, 8, 9, 16]))
    value = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    rows = draw(
        st.lists(st.lists(value, min_size=d, max_size=d), min_size=1, max_size=10)
    )
    position = st.integers(0, len(rows) - 1)
    rows += [rows[i] for i in draw(st.lists(position, max_size=4))]
    directions = draw(
        st.lists(st.sampled_from(["min", "max"]), min_size=d, max_size=d)
    )
    indices = draw(st.lists(position, min_size=1, max_size=len(rows), unique=True))
    return Dataset(values=np.array(rows), directions=directions), indices


class TestRankCodes:
    """Rows and coincidences read off the seeds' rank codes equal the cells
    the value comparisons give, with ties, duplicates and signed zeros, and
    once the codes need 16 or 32 bits."""

    @settings(max_examples=80, deadline=None)
    @given(_tie_heavy_signed())
    def test_cells_equal_bruteforce(self, case):
        ds, indices = case
        k = len(indices)
        matrices = PairwiseMatrices(ds, indices)
        m = ds.minimized[indices]
        dom = [[strictly_less_mask(m, i, j) for j in range(k)] for i in range(k)]
        assert matrices.dom_rows_array(np.arange(k)).tolist() == dom
        assert [matrices.dom_row_array(i).tolist() for i in range(k)] == dom
        assert _coincidence_cells(matrices) == _nonzero_equal_cells(m, k)

    @pytest.mark.parametrize(
        "n, dtype", [(256, np.uint8), (257, np.uint16), (65_537, np.uint32)]
    )
    def test_code_dtype_holds_every_rank(self, n, dtype):
        # Dimension 0 is distinct, so the last row's code is n - 1 and a
        # narrower dtype would wrap it onto row 0's.  Dimension 1 runs the
        # other way, with the two last rows tied.
        values = np.column_stack([np.arange(n), -np.arange(n)]).astype(float)
        values[-1, 1] = values[-2, 1]
        ds = Dataset(values=values)
        matrices = PairwiseMatrices(ds, range(n))
        assert matrices._codes.dtype == dtype
        roots = np.array([0, 1, n - 2, n - 1])
        m = ds.minimized
        expected = [((m[r] < m) @ np.array([1, 2])).tolist() for r in roots]
        assert matrices.dom_rows_array(roots).tolist() == expected
        assert [matrices.dom_row_array(r).tolist() for r in roots] == expected
        tied = {(n - 2, n - 1): 0b10, (n - 1, n - 2): 0b10}
        assert _coincidence_cells(matrices) == tied


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
    """Phase counts: ``maximal_cgroups`` counts the tie pairs the join
    visits, ``seed_decisive`` one dominance row per root."""

    def test_phase_comparison_counts(self):
        ds = make_dataset("anticorrelated", 150, 5, seed=11)
        result = stellar(ds)
        k = len(result.seeds)
        assert k > 50
        root = result.stats.root_span
        m = ds.minimized[result.seeds]
        ties = len(_nonzero_equal_cells(m, k))
        assert 0 < ties < k * (k - 1)
        counters = root.find("maximal_cgroups").counters
        assert counters["dominance_comparisons"] == ties
        assert root.find("seed_decisive").counters["dominance_comparisons"] == k * k
        # The extension reuses the seed groups' decisive subspaces and
        # reads no dominance row.
        counters = root.find("nonseed_extension").counters
        assert counters["dominance_comparisons"] == 0
