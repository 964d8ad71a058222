"""All skyline algorithms must agree with the quadratic reference."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.types import Dataset
from repro.skyline import SKYLINE_ALGORITHMS, compute_skyline, skyline_brute
from repro.skyline.base import is_skyline_member, subspace_columns

from .conftest import mixed_float_datasets, tiny_int_datasets

ALGORITHMS = sorted(SKYLINE_ALGORITHMS)


class TestContract:
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_empty_input(self, name):
        m = np.empty((0, 3))
        assert SKYLINE_ALGORITHMS[name](m, None) == []

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_single_object(self, name):
        m = np.array([[1.0, 2.0]])
        assert SKYLINE_ALGORITHMS[name](m, None) == [0]

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_duplicates_all_in_skyline(self, name):
        m = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert SKYLINE_ALGORITHMS[name](m, None) == [0, 1]

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_chain_leaves_one(self, name):
        m = np.array([[3.0, 3.0], [2.0, 2.0], [1.0, 1.0]])
        assert SKYLINE_ALGORITHMS[name](m, None) == [2]

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_anti_chain_keeps_all(self, name):
        m = np.array([[1.0, 3.0], [2.0, 2.0], [3.0, 1.0]])
        assert SKYLINE_ALGORITHMS[name](m, None) == [0, 1, 2]

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_subspace_query(self, name):
        # In Y alone, only the minimum y survives (paper's Example 1).
        m = np.array([[2.0, 6.0], [2.0, 4.0], [4.0, 3.5], [3.5, 2.5], [6.0, 1.0]])
        assert SKYLINE_ALGORITHMS[name](m, 0b10) == [4]

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_shared_minimum_in_1d(self, name):
        m = np.array([[2.0, 9.0], [2.0, 1.0], [3.0, 0.0]])
        assert SKYLINE_ALGORITHMS[name](m, 0b01) == [0, 1]


class TestSubspaceColumns:
    def test_empty_subspace_rejected(self):
        with pytest.raises(ValueError, match="empty subspace"):
            subspace_columns(np.zeros((2, 2)), 0)

    def test_out_of_range_subspace_rejected(self):
        with pytest.raises(ValueError, match="beyond"):
            subspace_columns(np.zeros((2, 2)), 0b100)

    def test_full_space_is_identity_view(self):
        m = np.zeros((2, 3))
        assert subspace_columns(m, 0b111) is m
        assert subspace_columns(m, None) is m


class TestComputeSkyline:
    def test_accepts_dataset_with_directions(self, flight_routes):
        sky = compute_skyline(flight_routes)
        labels = [flight_routes.labels[i] for i in sky]
        assert labels == ["BUDGET-LHR", "DIRECT", "TK-YVR"]

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError, match="unknown skyline algorithm"):
            compute_skyline(np.zeros((1, 1)), None, algorithm="quantum")

    def test_rejects_1d_array(self):
        with pytest.raises(ValueError, match="2-d matrix"):
            compute_skyline(np.zeros(4))

    def test_auto_small_and_large(self):
        rng = np.random.default_rng(0)
        small = rng.random((10, 3))
        large = rng.random((300, 3))
        assert compute_skyline(small) == skyline_brute(small)
        assert compute_skyline(large) == skyline_brute(large)


class TestIsSkylineMember:
    def test_matches_brute(self, running_example):
        m = running_example.minimized
        sky = set(skyline_brute(m))
        for i in range(running_example.n_objects):
            assert is_skyline_member(m, i) == (i in sky)


@settings(max_examples=60, deadline=None)
@given(tiny_int_datasets(max_objects=14, max_dims=4))
def test_all_algorithms_agree_int_grid(ds: Dataset):
    m = ds.minimized
    expected = skyline_brute(m)
    for name in ALGORITHMS:
        assert SKYLINE_ALGORITHMS[name](m, None) == expected, name
    # and on every non-empty subspace
    for subspace in range(1, 1 << ds.n_dims):
        expected = skyline_brute(m, subspace)
        for name in ALGORITHMS:
            assert SKYLINE_ALGORITHMS[name](m, subspace) == expected, name


@settings(max_examples=60, deadline=None)
@given(mixed_float_datasets(max_objects=20, max_dims=4))
def test_all_algorithms_agree_floats(ds: Dataset):
    m = ds.minimized
    expected = skyline_brute(m)
    for name in ALGORITHMS:
        assert SKYLINE_ALGORITHMS[name](m, None) == expected, name


def test_large_random_consistency():
    """The chunked vectorised path agrees with brute force at scale."""
    rng = np.random.default_rng(42)
    m = np.floor(rng.random((3000, 4)) * 50) / 50
    expected = skyline_brute(m)
    assert SKYLINE_ALGORITHMS["numpy"](m, None) == expected
