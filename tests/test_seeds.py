"""Tests for seed skyline groups and their decisive subspaces."""

import pytest
from hypothesis import given, settings

from repro.baselines import naive_compressed_cube
from repro.core.cgroups import enumerate_maximal_cgroups
from repro.core.dominance import PairwiseMatrices
from repro.core.seeds import compute_seed_groups, singleton_decisive
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.core.validate import decisive_subspaces_definitional
from repro.skyline import compute_skyline

from .conftest import tiny_int_datasets


def build_seed_groups(ds: Dataset):
    seeds = compute_skyline(ds)
    matrices = PairwiseMatrices(ds, seeds)
    cgroups = enumerate_maximal_cgroups(matrices)
    return seeds, compute_seed_groups(ds, matrices, cgroups)


class TestSingletonDecisive:
    def test_each_dimension(self):
        assert singleton_decisive(0b101) == (0b001, 0b100)

    def test_empty(self):
        assert singleton_decisive(0) == ()


class TestRunningExample:
    def test_seed_lattice_matches_figure3a(self, running_example):
        seeds, groups = build_seed_groups(running_example)
        assert seeds == [1, 3, 4]
        got = {
            (g.members, g.subspace): g.decisive for g in groups
        }
        A, B, C, D = 1, 2, 4, 8
        ABCD = 0b1111
        assert got == {
            ((1,), ABCD): (A | C, C | D),          # (P2, AC, CD)
            ((3,), ABCD): (B | C,),                # (P4, BC)
            ((4,), ABCD): (A | B, B | D),          # (P5, AB, BD)
            ((1, 3), C): (C,),                     # (P2P4, C)
            ((1, 4), A | D): (A, D),               # (P2P5, A, D)
            ((3, 4), B): (B,),                     # (P4P5, B)
        }


class TestDroppedCGroups:
    def test_cgroup_without_decisive_is_dropped(self):
        """A c-group dominated everywhere in its subspace is not a group.

        Seeds u=(0,9,9), w=(1,2,5), x=(1,5,2): w and x share only A=1 and
        form the maximal c-group ({w,x}, A), but u beats them on A (0 < 1),
        so the clause ``A ∩ dom[w,u]`` is empty: step 4 drops the c-group.
        """
        ds = Dataset.from_rows([[0, 9, 9], [1, 2, 5], [1, 5, 2]])
        seeds, groups = build_seed_groups(ds)
        assert seeds == [0, 1, 2]
        member_sets = {g.members for g in groups}
        assert (1, 2) not in member_sets  # the w-x c-group was dropped
        # but the c-group enumeration itself did produce it
        matrices = PairwiseMatrices(ds, seeds)
        cgroups = enumerate_maximal_cgroups(matrices)
        assert ((1, 2), 0b001) in cgroups


#: Keep-verdict cases: (rows, c-group as (seed positions, subspace), kept?).
#: Every row set ends with an object worse than all others everywhere, so
#: each group has an outside object.
KEEP_CASES = [
    # u=(0,9,9) beats w and x on A, their only shared dimension: the
    # non-member u has a zero clause and the c-group ({w, x}, A) is dropped.
    ([[0, 9, 9], [1, 2, 5], [1, 5, 2], [10, 10, 10]], ((1, 2), 0b001), False),
    # Both seeds share A=1, so the c-group ({s1, s2}, A) holds every seed:
    # its clause family is empty and its decisive subspaces are
    # singleton_decisive(A).
    ([[1, 2, 5], [1, 5, 2], [10, 10, 10]], ((0, 1), 0b001), True),
    # Every seed shares AB; the non-seed (1, 3, 6, 6) shares A with them,
    # so Berge steps extend singleton_decisive(AB) by the clause B and a
    # child group on A appears.
    (
        [[1, 1, 2, 5], [1, 1, 5, 2], [1, 3, 6, 6], [10, 10, 10, 10]],
        ((0, 1), 0b0011),
        True,
    ),
]


def group_signatures(groups):
    return {(tuple(sorted(g.members)), g.subspace, tuple(g.decisive)) for g in groups}


class TestKeepVerdict:
    """The keep test reads ``k − |non-zero cells of dom_row & B| == |G|``."""

    @pytest.mark.parametrize("rows, cgroup, kept", KEEP_CASES)
    def test_verdict_and_groups_match_the_oracle(self, rows, cgroup, kept):
        ds = Dataset.from_rows(rows)
        seeds, groups = build_seed_groups(ds)
        matrices = PairwiseMatrices(ds, seeds)
        assert cgroup in enumerate_maximal_cgroups(matrices)
        verdicts = {(g.local_members, g.subspace): g for g in groups}
        assert (cgroup in verdicts) == kept
        if kept and len(cgroup[0]) == len(seeds):
            assert verdicts[cgroup].decisive == singleton_decisive(cgroup[1])
        assert group_signatures(stellar(ds).groups) == group_signatures(
            naive_compressed_cube(ds)
        )


class TestAgainstDefinition:
    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=4, max_value=3))
    def test_seed_decisive_matches_definition_over_seed_set(self, ds: Dataset):
        """Corollary 1 == Definition 2 evaluated on the seed-only dataset."""
        seeds, groups = build_seed_groups(ds)
        seed_ds = ds.take(seeds)
        position = {g: i for i, g in enumerate(seeds)}
        for group in groups:
            local_members = [position[m] for m in group.members]
            expected = decisive_subspaces_definitional(
                seed_ds, sorted(local_members), group.subspace
            )
            assert list(group.decisive) == expected

    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=4, max_value=3))
    def test_every_decisive_inside_maximal_subspace(self, ds: Dataset):
        _, groups = build_seed_groups(ds)
        for g in groups:
            assert g.decisive, "every seed skyline group has a decisive subspace"
            for c in g.decisive:
                assert c & ~g.subspace == 0
