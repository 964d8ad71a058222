"""Tests for the non-seed accommodation step (Theorem 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.naive_cube import naive_compressed_cube
from repro.core import dominance, extension
from repro.core.extension import closed_masks, share_and_beat_masks
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube
from repro.cube.io import cube_fingerprint
from repro.skyline import compute_skyline


class TestClosedMasks:
    def test_empty(self):
        assert closed_masks([]) == set()

    def test_zero_masks_dropped(self):
        assert closed_masks([0, 0b1]) == {0b1}

    def test_pairwise_intersections(self):
        assert closed_masks([0b011, 0b101]) == {0b011, 0b101, 0b001}

    def test_disjoint_masks_no_zero(self):
        assert closed_masks([0b01, 0b10]) == {0b01, 0b10}

    def test_triple_closure(self):
        got = closed_masks([0b110, 0b011, 0b101])
        assert got == {0b110, 0b011, 0b101, 0b100, 0b010, 0b001}


class TestShareAndBeat:
    def test_vectorised_masks(self):
        pow2 = (1 << np.arange(3, dtype=np.int64)).astype(np.int64)
        rep = np.array([2.0, 5.0, 7.0])
        nonseeds = np.array(
            [
                [2.0, 9.0, 7.0],  # shares A and C
                [1.0, 5.0, 8.0],  # beats on A, shares B
                [3.0, 6.0, 8.0],  # shares nothing
            ]
        )
        share, beat = share_and_beat_masks(nonseeds, rep, 0b111, pow2)
        assert list(share) == [0b101, 0b010, 0b000]
        assert list(beat) == [0b000, 0b001, 0b000]

    def test_subspace_restriction(self):
        pow2 = (1 << np.arange(2, dtype=np.int64)).astype(np.int64)
        rep = np.array([1.0, 1.0])
        nonseeds = np.array([[1.0, 1.0]])
        share, beat = share_and_beat_masks(nonseeds, rep, 0b01, pow2)
        assert list(share) == [0b01]

    def test_empty_nonseeds(self):
        pow2 = (1 << np.arange(2, dtype=np.int64)).astype(np.int64)
        share, beat = share_and_beat_masks(
            np.empty((0, 2)), np.array([1.0, 2.0]), 0b11, pow2
        )
        assert len(share) == 0 and len(beat) == 0


class TestExample7Scenarios:
    """The three behaviours Example 7 narrates, as precise assertions."""

    def test_group_split(self, running_example):
        """P3 shares BCD with P5 ⊇ decisive BD: the group splits."""
        result = stellar(running_example)
        by_key = {g.key: g for g in result.groups}
        # new child group (P3P5, BCD) with decisive BD
        child = by_key[((2, 4), 0b1110)]
        assert child.decisive == (0b1010,)
        # original P5 group keeps AB but loses BD
        p5 = by_key[((4,), 0b1111)]
        assert p5.decisive == (0b0011,)

    def test_in_place_extension(self, running_example):
        """P3 shares B = the whole maximal subspace of P4P5: absorbed."""
        result = stellar(running_example)
        keys = {g.key for g in result.groups}
        assert ((2, 3, 4), 0b0010) in keys       # P3P4P5 at B
        assert ((3, 4), 0b0010) not in keys      # the pure-seed pair is gone

    def test_unaffected_sharing(self, running_example):
        """P1 shares B with P2, but B is in no decisive subspace of P2:
        nothing changes for P2's groups."""
        result = stellar(running_example)
        by_key = {g.key: g for g in result.groups}
        p2 = by_key[((1,), 0b1111)]
        assert p2.decisive == (0b0101, 0b1100)  # AC, CD intact
        assert not any(0 in g.members for g in result.groups)


class TestDecisiveAdjustment:
    def test_seed_pair_decisive_shrinks(self, running_example):
        """(P2P5, A, D) on seeds becomes (P2P5, A) on S: P3 ties on D."""
        result = stellar(running_example)
        seed_group = next(
            sg for sg in result.seed_groups if sg.members == (1, 4)
        )
        assert seed_group.decisive == (0b0001, 0b1000)  # A and D over seeds
        full_group = next(
            g for g in result.groups if g.key == ((1, 4), 0b1001)
        )
        assert full_group.decisive == (0b0001,)  # only A over S


class TestNonSeedOnlySharers:
    def test_nonseed_changes_nothing_without_decisive_overlap(self):
        """A relevant non-seed whose share contains no decisive subspace
        joins nothing, and the decisive sets stay put (clause neutrality)."""
        # seeds: u=(0,9,9), t=(9,0,0); non-seed v=(0,9,10) ties u on A,B
        # (share=AB) but u's only decisive subspace over seeds is C... no:
        # dom[u,t] = A: decisive of u = {A}. share(v)=AB ⊇ A -> joins.
        # Make share avoid every decisive: v=(1,9,9) ties u on B,C;
        # decisive of u = {A}; A ⊄ BC so v joins nothing.
        ds = Dataset.from_rows([[0, 9, 9], [9, 0, 0], [1, 9, 9]])
        result = stellar(ds)
        assert result.seeds == [0, 1]
        by_key = {g.key: g for g in result.groups}
        u_group = by_key[((0,), 0b111)]
        assert u_group.decisive == (0b001,)
        assert not any(2 in g.members for g in result.groups)


class TestDuplicateObjects:
    def test_duplicate_seeds_form_one_group(self):
        ds = Dataset.from_rows([[1, 2], [1, 2], [2, 1]])
        result = stellar(ds)
        keys = {g.key for g in result.groups}
        assert ((0, 1), 0b11) in keys
        assert ((2,), 0b11) in keys
        assert len(result.groups) == 2

    def test_duplicate_nonseeds_join_together(self):
        ds = Dataset.from_rows([[0, 0, 5], [9, 9, 5], [9, 9, 5], [0, 1, 9]])
        result = stellar(ds)
        # the two (9,9,5) duplicates are non-seeds sharing C=5 with P1
        group = next(
            (g for g in result.groups if g.subspace == 0b100), None
        )
        assert group is not None
        assert group.members == frozenset({0, 1, 2})


def _dense_share_maps(reps, subspaces, ns_matrix, ns_ids, pow2):
    """Reference: one dense ``share_and_beat_masks`` call per group."""
    maps = []
    for rep, subspace in zip(reps, subspaces):
        share, beat = share_and_beat_masks(ns_matrix, rep, int(subspace), pow2)
        maps.append(
            {
                int(ns_ids[j]): int(share[j])
                for j in np.flatnonzero((share != 0) & (beat == 0))
            }
        )
    return maps


@st.composite
def _share_map_inputs(draw):
    d = draw(st.integers(1, 5))
    m = draw(st.integers(0, 40))
    n_groups = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["ties", "tie_free", "signed_zeros"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "ties":
        ns_matrix = rng.integers(0, 3, size=(m, d)).astype(float)
        reps = rng.integers(0, 3, size=(n_groups, d)).astype(float)
    elif kind == "signed_zeros":
        # -0.0 equals 0.0: both must land in the same hash bucket.
        pool = np.array([-0.0, 0.0, 1.0])
        ns_matrix = rng.choice(pool, size=(m, d))
        reps = rng.choice(pool, size=(n_groups, d))
    else:
        # Every value distinct within a column, so a rep equals at most one
        # non-seed per dimension (the reps are drawn from the same pool).
        pool = rng.permutation(m + n_groups)[:, None] + 10.0 * np.arange(d)
        ns_matrix, reps = pool[:m], pool[m:]
    full = (1 << d) - 1
    subspaces = np.array(
        [draw(st.integers(1, full)) for _ in range(n_groups)], dtype=np.int64
    )
    ns_ids = np.sort(rng.choice(10 * (m + 1), size=m, replace=False))
    return reps, subspaces, ns_matrix, ns_ids.astype(np.int64)


class TestShareMapJoin:
    """The equality-join share maps equal the dense per-group reference."""

    @pytest.mark.parametrize("budget", [1, 7, dominance._PAIR_BUDGET])
    @settings(max_examples=60, deadline=None)
    @given(inputs=_share_map_inputs())
    def test_matches_dense_reference(self, budget, inputs):
        reps, subspaces, ns_matrix, ns_ids = inputs
        pow2 = (1 << np.arange(ns_matrix.shape[1], dtype=np.int64)).astype(np.int64)
        expected = _dense_share_maps(reps, subspaces, ns_matrix, ns_ids, pow2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dominance, "_PAIR_BUDGET", budget)
            got = extension._share_maps_block(
                reps, subspaces, ns_matrix, ns_ids, pow2
            )
        assert got == expected
        assert [list(g.items()) for g in got] == [list(e.items()) for e in expected]

    @settings(max_examples=60, deadline=None)
    @given(inputs=_share_map_inputs())
    def test_matches_dense_reference_when_every_value_collides(self, inputs):
        """A 2-bucket semi-join table keeps untied rows; the join drops them."""
        reps, subspaces, ns_matrix, ns_ids = inputs
        pow2 = (1 << np.arange(ns_matrix.shape[1], dtype=np.int64)).astype(np.int64)
        expected = _dense_share_maps(reps, subspaces, ns_matrix, ns_ids, pow2)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extension, "_HASH_BITS", 1)
            got = extension._share_maps_block(reps, subspaces, ns_matrix, ns_ids, pow2)
        assert [list(g.items()) for g in got] == [list(e.items()) for e in expected]

    def test_empty_nonseed_set(self):
        pow2 = (1 << np.arange(3, dtype=np.int64)).astype(np.int64)
        got = extension._share_maps_block(
            np.ones((2, 3)),
            np.array([0b111, 0b010], dtype=np.int64),
            np.empty((0, 3)),
            np.empty(0, dtype=np.int64),
            pow2,
        )
        assert got == [{}, {}]

    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(5).integers(0, 3, size=(120, 4)).astype(float),
            np.random.default_rng(6).random((300, 3)),
        ],
        ids=["ties", "continuous"],
    )
    def test_pair_budget_of_one_leaves_stellar_unchanged(self, values):
        ds = Dataset(values=values)
        expected = stellar(ds).groups
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dominance, "_PAIR_BUDGET", 1)
            assert stellar(ds).groups == expected


@st.composite
def _tie_heavy_with_copies(draw):
    """Values 0–2 or 0–3 on 2–6 dimensions, plus exact copies of rows.

    Some copies repeat seeds (duplicate seeds, a root whose only tie may be
    an earlier copy); others repeat arbitrary rows, so non-seeds coincide
    with seed groups on every dimension of a subspace (full joiners) or on
    part of it (child groups), and many seed groups stay untouched.
    """
    d = draw(st.integers(2, 6))
    top = draw(st.sampled_from([2, 3]))
    row = st.lists(st.integers(0, top), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=14))
    seeds = compute_skyline(Dataset.from_rows(rows), None)
    picks = draw(st.lists(st.integers(0, 100), max_size=4))
    rows += [rows[seeds[p % len(seeds)]] for p in picks]
    picks = draw(st.lists(st.integers(0, 100), max_size=4))
    rows += [rows[p % len(rows)] for p in picks]
    return Dataset.from_rows(rows)


class TestShortcutsAgainstOracle:
    """Untouched groups, skipped Berge steps and tie-free c-group roots."""

    @settings(max_examples=150, deadline=None)
    @given(_tie_heavy_with_copies())
    def test_fingerprint_equals_the_naive_cube(self, ds):
        got = CompressedSkylineCube(ds, stellar(ds).groups)
        expected = CompressedSkylineCube(ds, naive_compressed_cube(ds))
        assert cube_fingerprint(got) == cube_fingerprint(expected)

    def test_untouched_group_is_emitted_as_it_stands(self):
        """No non-seed ties seed (0, 3): its group keeps the seed-side decisive."""
        ds = Dataset(values=np.array([[0.0, 3.0], [3.0, 0.0], [4.0, 4.0], [3.0, 5.0]]))
        result = stellar(ds)
        seed_group = next(sg for sg in result.seed_groups if sg.members == (0,))
        group = next(g for g in result.groups if g.key == ((0,), 0b11))
        assert group.decisive == seed_group.decisive
        assert group.projection == (0.0, 3.0)
        assert all(type(v) is float for v in group.projection)
