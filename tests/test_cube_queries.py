"""Tests for the compressed-cube query layer (Q1 / Q2 / Q3)."""

import pytest
from hypothesis import given, settings

from repro.baselines.skyey import skyey
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube
from repro.cube.compressed import MembershipInterval
from repro.skyline import compute_skyline

from .conftest import tiny_int_datasets


def build(ds: Dataset) -> CompressedSkylineCube:
    return CompressedSkylineCube(ds, stellar(ds).groups)


class TestBuild:
    def test_build_stellar(self, running_example):
        cube = CompressedSkylineCube.build(running_example)
        assert len(cube.groups) == 8

    def test_build_skyey(self, running_example):
        cube = CompressedSkylineCube(
            running_example, skyey(running_example).groups
        )
        assert len(cube.groups) == 8

    def test_build_unknown(self, running_example):
        # build() always runs Stellar; there is no builder to choose.
        with pytest.raises(TypeError):
            CompressedSkylineCube.build(running_example, algorithm="skyey")


class TestQ1SubspaceSkyline:
    def test_matches_direct_on_running_example(self, running_example):
        cube = build(running_example)
        for subspace in range(1, 16):
            assert cube.skyline_of(subspace) == compute_skyline(
                running_example, subspace, algorithm="brute"
            )

    def test_groups_in(self, running_example):
        cube = build(running_example)
        groups = cube.groups_in(0b0010)  # subspace B
        assert {g.members for g in groups} == {frozenset({2, 3, 4})}

    def test_empty_subspace_rejected(self, running_example):
        cube = build(running_example)
        with pytest.raises(ValueError, match="empty subspace"):
            cube.skyline_of(0)

    def test_out_of_range_subspace_rejected(self, running_example):
        cube = build(running_example)
        with pytest.raises(ValueError, match="beyond"):
            cube.skyline_of(1 << 9)

    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
    def test_q1_matches_direct_everywhere(self, ds: Dataset):
        cube = build(ds)
        for subspace in range(1, 1 << ds.n_dims):
            assert cube.skyline_of(subspace) == compute_skyline(
                ds, subspace, algorithm="brute"
            )


class TestQ2Membership:
    def test_intervals_p3(self, running_example):
        cube = build(running_example)
        intervals = cube.membership_intervals(2)  # P3
        covered = set()
        for iv in intervals:
            assert isinstance(iv, MembershipInterval)
            covered.update(
                s for s in range(1, 16) if s in iv
            )
        assert covered == {0b0010, 0b1000, 0b1010, 0b1110}

    def test_interval_size(self):
        iv = MembershipInterval(lower=0b001, upper=0b111)
        assert iv.size() == 4
        assert 0b011 in iv
        assert 0b010 not in iv

    def test_is_skyline_in(self, running_example):
        cube = build(running_example)
        assert cube.is_skyline_in(2, 0b1010)       # P3 in BD
        assert not cube.is_skyline_in(2, 0b1111)   # P3 not in ABCD
        assert not cube.is_skyline_in(0, 0b0001)   # P1 nowhere

    def test_object_out_of_range(self, running_example):
        cube = build(running_example)
        with pytest.raises(ValueError, match="out of range"):
            cube.is_skyline_in(99, 1)

    def test_groups_of(self, running_example):
        cube = build(running_example)
        assert {g.key for g in cube.groups_of(2)} == {
            ((2, 4), 0b1110),
            ((1, 2, 4), 0b1000),
            ((2, 3, 4), 0b0010),
        }

    @settings(max_examples=50, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
    def test_q2_matches_direct_everywhere(self, ds: Dataset):
        cube = build(ds)
        for obj in range(ds.n_objects):
            expected = [
                s
                for s in range(1, 1 << ds.n_dims)
                if obj in compute_skyline(ds, s, algorithm="brute")
            ]
            assert cube.membership_subspaces(obj) == expected
            for s in range(1, 1 << ds.n_dims):
                assert cube.is_skyline_in(obj, s) == (s in set(expected))


class TestQ3Navigation:
    def test_drill_down(self, running_example):
        cube = build(running_example)
        steps = cube.drill_down(0b0010)  # from B
        assert [(d, s) for d, s, _ in steps] == [
            (0, 0b0011), (2, 0b0110), (3, 0b1010)
        ]
        by_subspace = {s: sky for _, s, sky in steps}
        assert by_subspace[0b1010] == [2, 4]  # BD: P3, P5

    def test_roll_up(self, running_example):
        cube = build(running_example)
        steps = cube.roll_up(0b1010)  # from BD
        assert {s for _, s, _ in steps} == {0b0010, 0b1000}

    def test_roll_up_of_single_dim_is_empty(self, running_example):
        cube = build(running_example)
        assert cube.roll_up(0b0001) == []

    def test_drill_down_full_space_is_empty(self, running_example):
        cube = build(running_example)
        assert cube.drill_down(0b1111) == []


class TestWhyNot:
    def test_positive_answer(self, running_example):
        cube = build(running_example)
        answer = cube.why_not(2, 0b1010)  # P3 in BD
        assert answer.is_skyline
        assert answer.group.members == frozenset({2, 4})
        assert answer.witness_decisive == (0b1010,)
        assert answer.dominators == ()
        text = answer.explain(running_example)
        assert "P3 IS in the skyline of BD" in text

    def test_negative_answer_lists_dominators(self, running_example):
        cube = build(running_example)
        answer = cube.why_not(0, 0b0011)  # P1 in AB
        assert not answer.is_skyline
        assert answer.group is None
        assert set(answer.dominators) == {1, 2, 4}
        assert "NOT in the skyline" in answer.explain(running_example)

    def test_dominators_truncated_in_text(self):
        ds = Dataset.from_rows([[i, i] for i in range(10)][::-1])
        cube = build(ds)
        answer = cube.why_not(0, 0b11)  # the worst point, 9 dominators
        assert len(answer.dominators) == 9
        assert "and 4 more" in answer.explain(ds)

    def test_validation(self, running_example):
        cube = build(running_example)
        with pytest.raises(ValueError):
            cube.why_not(0, 0)
        with pytest.raises(ValueError):
            cube.why_not(99, 1)

    @settings(max_examples=30, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=3, max_value=3))
    def test_consistent_with_membership(self, ds: Dataset):
        cube = build(ds)
        for obj in range(ds.n_objects):
            for subspace in range(1, 1 << ds.n_dims):
                answer = cube.why_not(obj, subspace)
                assert answer.is_skyline == cube.is_skyline_in(obj, subspace)
                if not answer.is_skyline:
                    assert answer.dominators, "non-members must have dominators"
                    m = ds.minimized
                    for d in answer.dominators:
                        from repro.core.dominance import dominates

                        assert dominates(m, d, obj, subspace)


class TestMaterialize:
    def test_running_example_matches_skycube(self, running_example):
        from repro.skycube import skycube_naive

        cube = build(running_example)
        assert cube.materialize() == skycube_naive(running_example)

    @settings(max_examples=40, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
    def test_materialize_matches_direct(self, ds: Dataset):
        from repro.skycube import skycube_naive

        cube = build(ds)
        assert cube.materialize() == skycube_naive(ds)


class TestSummary:
    def test_running_example_summary(self, running_example):
        cube = build(running_example)
        summary = cube.summary()
        assert summary.n_groups == 8
        assert summary.n_decisive_subspaces == 9  # P2 has 2, others 1 each
        assert summary.n_subspace_skyline_objects == sum(
            len(compute_skyline(running_example, s, algorithm="brute"))
            for s in range(1, 16)
        )
        assert summary.compression_ratio == pytest.approx(
            summary.n_subspace_skyline_objects / 8
        )
