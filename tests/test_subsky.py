"""Tests for the Subsky on-the-fly subspace-skyline index."""

import pytest
from hypothesis import given, settings

from repro.core.types import Dataset
from repro.data import make_dataset
from repro.index import SubskyIndex
from repro.skyline import compute_skyline

from .conftest import tiny_int_datasets


class TestCorrectness:
    def test_running_example_all_subspaces(self, running_example):
        index = SubskyIndex(running_example)
        for subspace in range(1, 16):
            assert index.query(subspace) == compute_skyline(
                running_example, subspace, algorithm="brute"
            )

    def test_full_space_default(self, running_example):
        index = SubskyIndex(running_example)
        assert index.query() == [1, 3, 4]

    def test_empty_dataset(self):
        ds = Dataset.from_rows([], names=("A", "B"))
        index = SubskyIndex(ds)
        assert index.query(0b01) == []

    def test_invalid_subspaces(self, running_example):
        index = SubskyIndex(running_example)
        with pytest.raises(ValueError, match="empty subspace"):
            index.query(0)
        with pytest.raises(ValueError, match="beyond"):
            index.query(1 << 8)

    def test_directions_respected(self, flight_routes):
        index = SubskyIndex(flight_routes)
        mask = flight_routes.parse_subspace("price,traveltime")
        assert index.query(mask) == compute_skyline(flight_routes, mask)

    @settings(max_examples=60, deadline=None)
    @given(tiny_int_datasets(max_objects=14, max_dims=4, max_value=3))
    def test_matches_direct_on_every_subspace(self, ds: Dataset):
        index = SubskyIndex(ds)
        for subspace in range(1, 1 << ds.n_dims):
            assert index.query(subspace) == compute_skyline(
                ds, subspace, algorithm="brute"
            )


class TestEarlyTermination:
    def test_correlated_scan_depth_is_tiny(self):
        data = make_dataset("correlated", 5000, 4, seed=2)
        index = SubskyIndex(data)
        skyline = index.query()
        assert skyline == compute_skyline(data)
        # the whole point of the index: a small prefix of the chain
        assert index.last_scanned < data.n_objects * 0.05

    def test_anticorrelated_degrades_to_near_full_scan(self):
        data = make_dataset("anticorrelated", 2000, 3, seed=2)
        index = SubskyIndex(data)
        assert index.query() == compute_skyline(data)
        assert index.last_scanned > data.n_objects * 0.5

    def test_late_dominator_is_handled(self):
        """A dominator with a larger min-coordinate arrives after its
        victim in stored-key order; the candidate pruning must evict it."""
        # In subspace A: v=(0, 9) has key f=0 and arrives first;
        # u=(0, 1): f=0 too but sum smaller... force ordering via sums:
        # w=(1, 0): f=0? no: min(1,0)=0, sum=1 < v's 9 -> w scans first.
        # In subspace {A}: v.A=0 ties w... use strict case:
        ds = Dataset.from_rows([[2.0, 0.0], [1.0, 9.0]])
        # stored keys: w=(2,0): (0.0, 2.0), u=(1,9): (1.0, 10.0) -> w first
        # in subspace A alone, u=1 beats w=2 although u scans second
        index = SubskyIndex(ds)
        assert index.query(0b01) == [1]
        assert index.query(0b10) == [0]
        assert index.query(0b11) == [0, 1]


class TestScannedCounter:
    def test_counter_resets_per_query(self, running_example):
        index = SubskyIndex(running_example)
        index.query(0b1111)
        first = index.last_scanned
        index.query(0b0001)
        assert index.last_scanned <= running_example.n_objects
        assert first <= running_example.n_objects
