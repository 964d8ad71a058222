"""Tests for the extension features: top-k frequency, duplicate binding,
and the Skyey sort-key-sharing toggle."""

import pytest
from hypothesis import given, settings

from repro.baselines import skyey
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube
from repro.skycube import skycube_naive
from repro.skyline import compute_skyline

from .conftest import tiny_int_datasets


class TestTopFrequent:
    def test_running_example(self, running_example):
        cube = CompressedSkylineCube.build(running_example)
        got = cube.top_frequent(10)
        # brute-force frequencies
        expected = {}
        for obj in range(5):
            count = sum(
                obj in compute_skyline(running_example, s, algorithm="brute")
                for s in range(1, 16)
            )
            if count:
                expected[obj] = count
        assert dict(got) == expected
        # sorted by decreasing frequency
        freqs = [f for _, f in got]
        assert freqs == sorted(freqs, reverse=True)

    def test_k_limits(self, running_example):
        cube = CompressedSkylineCube.build(running_example)
        assert len(cube.top_frequent(1)) == 1
        assert cube.top_frequent(0) == []

    def test_negative_k(self, running_example):
        cube = CompressedSkylineCube.build(running_example)
        with pytest.raises(ValueError):
            cube.top_frequent(-1)

    def test_zero_frequency_objects_omitted(self, running_example):
        cube = CompressedSkylineCube.build(running_example)
        assert 0 not in dict(cube.top_frequent(99))  # P1 wins nowhere

    @settings(max_examples=30, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=3, max_value=3))
    def test_matches_bruteforce(self, ds: Dataset):
        cube = CompressedSkylineCube.build(ds)
        got = dict(cube.top_frequent(ds.n_objects))
        for obj in range(ds.n_objects):
            count = sum(
                obj in compute_skyline(ds, s, algorithm="brute")
                for s in range(1, 1 << ds.n_dims)
            )
            assert got.get(obj, 0) == count


class TestDuplicateBinding:
    def canonical(self, result):
        return (
            [(g.key, g.decisive, g.projection) for g in result.groups],
            result.seeds,
        )

    def test_identical_output_running_example(self, running_example):
        plain = stellar(running_example)
        bound = stellar(running_example, bind_duplicates=True)
        assert self.canonical(plain) == self.canonical(bound)
        assert bound.stats.n_bound_duplicates == 0

    def test_identical_output_with_duplicates(self):
        ds = Dataset.from_rows(
            [[1, 2], [1, 2], [2, 1], [1, 2], [3, 3], [2, 1]]
        )
        plain = stellar(ds)
        bound = stellar(ds, bind_duplicates=True)
        assert self.canonical(plain) == self.canonical(bound)
        assert bound.stats.n_bound_duplicates == 3
        assert "duplicate_binding" in bound.stats.timings

    def test_seed_group_members_expanded(self):
        ds = Dataset.from_rows([[1, 2], [1, 2], [2, 1]])
        bound = stellar(ds, bind_duplicates=True)
        members = {sg.members for sg in bound.seed_groups}
        assert (0, 1) in members

    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=3, max_value=2))
    def test_binding_never_changes_the_cube(self, ds: Dataset):
        plain = stellar(ds)
        bound = stellar(ds, bind_duplicates=True)
        assert self.canonical(plain) == self.canonical(bound)


class TestSkyeyCandidatePruning:
    def test_same_output_running_example(self, running_example):
        plain = skyey(running_example)
        pruned = skyey(running_example, candidate_pruning=True)
        assert [(g.key, g.decisive) for g in plain.groups] == [
            (g.key, g.decisive) for g in pruned.groups
        ]
        assert plain.skyline_sizes == pruned.skyline_sizes
        assert (
            plain.stats.n_subspace_skyline_objects
            == pruned.stats.n_subspace_skyline_objects
        )

    def test_still_searches_every_subspace(self, running_example):
        """The pruning shrinks each scan but not the 2^d - 1 subspace count
        -- the structural reason the paper's related-work section says
        adopting [15] cannot match Stellar."""
        pruned = skyey(running_example, candidate_pruning=True)
        assert pruned.stats.n_subspaces_searched == 15

    @settings(max_examples=40, deadline=None)
    @given(tiny_int_datasets(max_objects=9, max_dims=4, max_value=3))
    def test_pruning_is_pure_performance(self, ds: Dataset):
        a = skyey(ds)
        b = skyey(ds, candidate_pruning=True)
        assert [(g.key, g.decisive) for g in a.groups] == [
            (g.key, g.decisive) for g in b.groups
        ]
        naive_sizes = {s: len(v) for s, v in skycube_naive(ds).items()}
        assert a.skyline_sizes == b.skyline_sizes == naive_sizes


class TestSkyeySharingToggle:
    def test_same_output_both_modes(self, running_example):
        shared = skyey(running_example, share_sort_keys=True)
        recomputed = skyey(running_example, share_sort_keys=False)
        assert [(g.key, g.decisive) for g in shared.groups] == [
            (g.key, g.decisive) for g in recomputed.groups
        ]
        assert shared.skyline_sizes == recomputed.skyline_sizes

    @settings(max_examples=30, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=4, max_value=3))
    def test_toggle_is_pure_performance(self, ds: Dataset):
        a = skyey(ds, share_sort_keys=True)
        b = skyey(ds, share_sort_keys=False)
        assert [(g.key, g.decisive) for g in a.groups] == [
            (g.key, g.decisive) for g in b.groups
        ]
