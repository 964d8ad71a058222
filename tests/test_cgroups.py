"""Tests for maximal c-group enumeration (Figure 6 / Example 8)."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cgroups import enumerate_maximal_cgroups
from repro.core.dominance import PairwiseMatrices
from repro.core.types import Dataset
from repro.core.validate import common_coincidence_mask, projection_key

from .conftest import tiny_int_datasets


def brute_maximal_cgroups(ds: Dataset) -> set[tuple[tuple[int, ...], int]]:
    """Reference: test every subset of objects against Definition 1."""
    minimized = ds.minimized
    n = ds.n_objects
    found = set()
    for size in range(1, n + 1):
        for members in combinations(range(n), size):
            mask = common_coincidence_mask(minimized, list(members))
            if mask == 0:
                continue
            ref = projection_key(minimized, members[0], mask)
            outsiders = [
                o
                for o in range(n)
                if o not in members
                and projection_key(minimized, o, mask) == ref
            ]
            if not outsiders:
                found.add((members, mask))
    return found


class TestRunningExample:
    def test_seed_cgroups(self, running_example):
        matrices = PairwiseMatrices(running_example, [1, 3, 4])
        got = set(enumerate_maximal_cgroups(matrices))
        # local indices: 0=P2, 1=P4, 2=P5
        expected = {
            ((0,), 0b1111),
            ((1,), 0b1111),
            ((2,), 0b1111),
            ((0, 1), 0b0100),  # P2P4 share C
            ((0, 2), 0b1001),  # P2P5 share AD
            ((1, 2), 0b0010),  # P4P5 share B
        }
        assert got == expected


class TestPaperExample8:
    """The search trace of Example 8 on its 5-object coincidence matrix."""

    def _matrices(self):
        # Values engineered to reproduce the coincidence-matrix segment of
        # Example 8: co(o1,o2)=ACD, co(o1,o3)=B, co(o1,o4)=ABCD,
        # co(o1,o5)=CD, co(o2,o3)=∅, co(o2,o5)=BCD.  (The paper's printed
        # segment also lists co(o2,o4)=CD, which no point set can realise:
        # co(o1,o4)=ABCD makes o4 a duplicate of o1, forcing
        # co(o2,o4)=co(o2,o1)=ACD.  The realizable variant preserves every
        # search step the example narrates, including the o2o4 prune.)
        ds = Dataset.from_rows(
            [
                [0, 0, 0, 0],  # o1
                [0, 1, 0, 0],  # o2
                [9, 0, 8, 7],  # o3
                [0, 0, 0, 0],  # o4 -- duplicate of o1: co = ABCD
                [5, 1, 0, 0],  # o5
            ]
        )
        return PairwiseMatrices(ds, [0, 1, 2, 3, 4])

    def test_example8_groups(self):
        matrices = self._matrices()
        got = set(enumerate_maximal_cgroups(matrices))
        A, B, C, D = 1, 2, 4, 8
        expected = {
            ((0, 3), A | B | C | D),        # o1 o4 in ABCD
            ((0, 1, 3), A | C | D),         # o1 o2 o4 in ACD
            ((0, 1, 3, 4), C | D),          # o1 o2 o4 o5 in CD
            ((0, 2, 3), B),                 # o1 o3 o4 in B
            ((1,), A | B | C | D),          # singleton o2
            ((1, 4), B | C | D),            # o2 o5 in BCD
            ((2,), A | B | C | D),          # singleton o3
            ((4,), A | B | C | D),          # singleton o5
        }
        assert got == expected

    def test_example8_prunes_nonmaximal_o2o4(self):
        """Any group with o2 o4 but not o1 is pruned (Example 8's point)."""
        matrices = self._matrices()
        for members, _ in enumerate_maximal_cgroups(matrices):
            if 1 in members and 3 in members:
                assert 0 in members


class TestEdgeCases:
    def test_single_object(self):
        ds = Dataset.from_rows([[1, 2]])
        matrices = PairwiseMatrices(ds, [0])
        assert enumerate_maximal_cgroups(matrices) == [((0,), 0b11)]

    def test_empty(self):
        ds = Dataset.from_rows([], names=("A",))
        matrices = PairwiseMatrices(ds, [])
        assert enumerate_maximal_cgroups(matrices) == []

    def test_all_duplicates_single_group(self):
        ds = Dataset.from_rows([[1, 1], [1, 1], [1, 1]])
        matrices = PairwiseMatrices(ds, [0, 1, 2])
        assert enumerate_maximal_cgroups(matrices) == [((0, 1, 2), 0b11)]

    def test_no_sharing_only_singletons(self):
        ds = Dataset.from_rows([[1, 4], [2, 5], [3, 6]])
        matrices = PairwiseMatrices(ds, [0, 1, 2])
        got = set(enumerate_maximal_cgroups(matrices))
        assert got == {((0,), 0b11), ((1,), 0b11), ((2,), 0b11)}


@settings(max_examples=80, deadline=None)
@given(tiny_int_datasets(max_objects=8, max_dims=4, max_value=2))
def test_enumeration_matches_bruteforce(ds: Dataset):
    matrices = PairwiseMatrices(ds, list(range(ds.n_objects)))
    got = enumerate_maximal_cgroups(matrices)
    # no duplicates: each closed group is emitted exactly once
    assert len(set(got)) == len(got)
    assert set(got) == brute_maximal_cgroups(ds)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=63, max_value=70).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(min_value=0, max_value=1), min_size=d, max_size=d),
            min_size=1,
            max_size=6,
        )
    )
)
def test_object_dtype_matches_bruteforce(rows):
    """Beyond 62 dimensions the masks are Python ints in object arrays."""
    ds = Dataset.from_rows(rows)
    matrices = PairwiseMatrices(ds, list(range(ds.n_objects)))
    got = enumerate_maximal_cgroups(matrices)
    assert len(set(got)) == len(got)
    assert set(got) == brute_maximal_cgroups(ds)


def test_root_with_earlier_duplicate_emits_nothing():
    """Seed 2 duplicates seed 0, so every group holding 2 starts at 0."""
    A, full = 0b001, 0b111
    ds = Dataset.from_rows([[1, 2, 3], [0, 5, 5], [1, 2, 3], [1, 9, 9]])
    matrices = PairwiseMatrices(ds, [0, 1, 2, 3])
    got = enumerate_maximal_cgroups(matrices)
    assert [g for g in got if g[0][0] == 2] == []
    assert set(got) == {
        ((0, 2), full),
        ((0, 2, 3), A),
        ((1,), full),
        ((3,), full),
    }


@settings(max_examples=40, deadline=None)
@given(tiny_int_datasets(max_objects=8, max_dims=4, max_value=2))
def test_order_is_deterministic(ds: Dataset):
    """Groups come by smallest member, then by decreasing subspace mask."""
    seeds = list(range(ds.n_objects))
    first = enumerate_maximal_cgroups(PairwiseMatrices(ds, seeds))
    second = enumerate_maximal_cgroups(PairwiseMatrices(ds, seeds))
    assert first == second
    assert first == sorted(first, key=lambda g: (g[0][0], -g[1]))
