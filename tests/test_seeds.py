"""Tests for seed skyline groups and their decisive subspaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_compressed_cube
from repro.core import seeds as seeds_module
from repro.core.cgroups import enumerate_maximal_cgroups
from repro.core.dominance import COMPARISONS, PairwiseMatrices
from repro.core.seeds import compute_seed_groups, seed_route, singleton_decisive
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.core.validate import decisive_subspaces_definitional
from repro.data import make_dataset
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


def route_verdicts(ds: Dataset):
    """Each maximal c-group's verdict by both routes: its sorted decisive
    subspaces, or None when dropped."""
    seeds = compute_skyline(ds)
    matrices = PairwiseMatrices(ds, seeds)
    cgroups = enumerate_maximal_cgroups(matrices)
    table = list(seeds_module._table_verdicts(matrices, cgroups))
    berge = list(seeds_module._berge_verdicts(matrices, cgroups))
    return seeds, cgroups, table, berge


def definitional_verdicts(ds: Dataset, seeds, cgroups):
    """Definition 2 over the seed set: no decisive subspace means dropped."""
    seed_ds = ds.take(seeds)
    verdicts = []
    for members, subspace in cgroups:
        decisive = decisive_subspaces_definitional(seed_ds, list(members), subspace)
        verdicts.append(tuple(decisive) if decisive else None)
    return verdicts


def tie_heavy(n: int, d: int, seed: int) -> Dataset:
    """Anti-correlated rows rounded onto an 8-step grid: many ties."""
    values = make_dataset("anticorrelated", n, d, seed=seed).values
    return Dataset(values=np.round(values * 8))


class TestSubsetCountRoute:
    """The subset-count table route gives the Berge route's verdicts --
    dropped c-groups and groups with no outside seed included -- and both
    equal Definition 2."""

    @settings(max_examples=80, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=8, max_value=3))
    def test_tiny_integer_data(self, ds: Dataset):
        seeds, cgroups, table, berge = route_verdicts(ds)
        assert table == berge == definitional_verdicts(ds, seeds, cgroups)

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=99)
    )
    def test_tie_heavy_rounding(self, d: int, seed: int):
        ds = tie_heavy(30, d, seed)
        seeds, cgroups, table, berge = route_verdicts(ds)
        assert table == berge == definitional_verdicts(ds, seeds, cgroups)

    def test_exact_duplicates(self):
        rows = tie_heavy(25, 4, seed=3).values
        ds = Dataset(values=np.vstack([rows, rows[:8], rows[:3]]))
        seeds, cgroups, table, berge = route_verdicts(ds)
        assert any(len(members) > 1 for members, _ in cgroups)
        assert table == berge == definitional_verdicts(ds, seeds, cgroups)

    @pytest.mark.parametrize("rows, cgroup, kept", KEEP_CASES)
    def test_keep_cases(self, rows, cgroup, kept):
        """A dropped c-group, and one holding every seed, whose decisive
        subspaces are singleton_decisive(B)."""
        seeds, cgroups, table, berge = route_verdicts(Dataset.from_rows(rows))
        assert table == berge
        verdict = dict(zip(cgroups, table))[cgroup]
        assert (verdict is not None) == kept
        if kept and len(cgroup[0]) == len(seeds):
            assert verdict == singleton_decisive(cgroup[1])

    @pytest.mark.parametrize(
        "d, route",
        [
            (seeds_module._TABLE_MAX_DIMS, "table"),
            (seeds_module._TABLE_MAX_DIMS + 1, "berge"),
        ],
    )
    def test_either_side_of_the_cut_over(self, d: int, route: str):
        ds = tie_heavy(24, d, seed=5)
        assert seed_route(d) == route
        seeds, cgroups, table, berge = route_verdicts(ds)
        assert table == berge
        groups = compute_seed_groups(ds, PairwiseMatrices(ds, seeds), cgroups)
        kept = [(c, v) for c, v in zip(cgroups, table) if v is not None]
        assert [(g.local_members, g.subspace) for g in groups] == [c for c, _ in kept]
        assert [g.decisive for g in groups] == [v for _, v in kept]

    def test_blocks_split_a_root_and_keep_one_row_per_root(self, monkeypatch):
        """A budget of one c-group per block splits each root's c-groups
        over several chunks; the verdicts and the ``k²`` row count hold."""
        ds = tie_heavy(60, 5, seed=2)
        seeds, cgroups, table, _ = route_verdicts(ds)
        assert len(cgroups) > len({members[0] for members, _ in cgroups})
        monkeypatch.setattr(seeds_module, "_CELL_BUDGET", 1 << ds.n_dims)
        matrices = PairwiseMatrices(ds, seeds)
        before = COMPARISONS.value
        assert list(seeds_module._table_verdicts(matrices, cgroups)) == table
        assert COMPARISONS.value - before == len(seeds) ** 2
