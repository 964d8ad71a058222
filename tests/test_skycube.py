"""Tests for the SkyCube substrate (all-subspace skylines and counts)."""

import pytest
from hypothesis import given, settings

from repro.baselines import skyey
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube
from repro.skycube import skycube_naive, skycube_shared, skycube_topdown
from repro.skyline import compute_skyline

from .conftest import tiny_int_datasets


class TestNaive:
    def test_running_example(self, running_example):
        cube = skycube_naive(running_example)
        assert len(cube) == 15
        assert cube[0b1111] == [1, 3, 4]  # seeds P2 P4 P5
        assert cube[0b0010] == [2, 3, 4]  # B: value 4 shared by P3 P4 P5
        assert cube[0b1000] == [1, 2, 4]  # D: value 3 shared by P2 P3 P5

    def test_empty(self):
        ds = Dataset.from_rows([], names=("A",))
        assert skycube_naive(ds) == {1: []}


class TestShared:
    def test_matches_naive_running_example(self, running_example):
        assert skycube_shared(running_example) == skycube_naive(running_example)

    def test_empty_dataset(self):
        ds = Dataset.from_rows([], names=("A", "B"))
        assert skycube_shared(ds) == {}

    @settings(max_examples=50, deadline=None)
    @given(tiny_int_datasets(max_objects=12, max_dims=4, max_value=3))
    def test_matches_naive(self, ds: Dataset):
        assert skycube_shared(ds) == skycube_naive(ds)

    @settings(max_examples=30, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
    def test_every_subspace_matches_direct_query(self, ds: Dataset):
        cube = skycube_shared(ds)
        assert set(cube) == set(range(1, 1 << ds.n_dims))
        for subspace, skyline in cube.items():
            assert skyline == compute_skyline(ds, subspace, algorithm="brute")


class TestTopDown:
    def test_matches_naive_running_example(self, running_example):
        assert skycube_topdown(running_example) == skycube_naive(running_example)

    def test_empty_dataset(self):
        ds = Dataset.from_rows([], names=("A", "B"))
        assert skycube_topdown(ds) == {}

    def test_heavy_ties(self):
        """Ties are where the coincidence-set extension earns its keep."""
        ds = Dataset.from_rows(
            [[0, 2, 2], [1, 1, 2], [2, 0, 2], [1, 1, 1], [2, 2, 0], [0, 2, 2]]
        )
        assert skycube_topdown(ds) == skycube_naive(ds)

    def test_example1_exclusive_point(self, example1):
        """Object d is skyline only in XY -- the case the candidate
        containment must not lose when descending to children."""
        cube = skycube_topdown(example1)
        assert cube == skycube_naive(example1)
        assert 3 in cube[0b11] and 3 not in cube[0b01] and 3 not in cube[0b10]

    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=12, max_dims=4, max_value=3))
    def test_matches_naive(self, ds: Dataset):
        assert skycube_topdown(ds) == skycube_naive(ds)

    def test_matches_shared_at_scale(self):
        from repro.data import make_dataset

        ds = make_dataset("independent", 800, 4, seed=3, digits=2)
        assert skycube_topdown(ds) == skycube_shared(ds)


class TestSignedZeros:
    """``0.0`` and ``-0.0`` are one value, so they coincide on a subspace."""

    ROWS = [[0.0, 5, 1], [-0.0, 1, 5], [3, 3, 3]]

    @pytest.mark.parametrize("traversal", [skycube_shared, skycube_topdown])
    def test_traversals_match_naive(self, traversal):
        ds = Dataset.from_rows(self.ROWS)
        expected = skycube_naive(ds)
        assert expected[0b001] == [0, 1]
        assert traversal(ds) == expected

    def test_skyey_strategies_agree(self):
        ds = Dataset.from_rows(self.ROWS)
        plain = skyey(ds)
        pruned = skyey(ds, candidate_pruning=True)
        assert pruned.groups == plain.groups == stellar(ds).groups
        assert pruned.skyline_sizes == plain.skyline_sizes
        assert plain.skyline_sizes[0b001] == 2


class TestCounts:
    """The SkyCube size of Figures 9 and 10, as the compressed cube counts it."""

    def test_compression_ratio_nan_when_empty(self):
        ds = Dataset.from_rows([], names=("A",))
        summary = CompressedSkylineCube(ds, stellar(ds).groups).summary()
        assert summary.n_groups == 0
        assert summary.compression_ratio != summary.compression_ratio  # NaN

    @settings(max_examples=40, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
    def test_summary_matches_skycube_count(self, ds: Dataset):
        """The compressed cube's interval-based SkyCube size is exact."""
        result = stellar(ds)
        cube = CompressedSkylineCube(ds, result.groups)
        assert cube.summary().n_subspace_skyline_objects == sum(
            len(skyline) for skyline in skycube_naive(ds).values()
        )
