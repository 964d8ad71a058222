"""Tests for the label-based QueryEngine front end."""

import pytest
from hypothesis import given, settings

from repro.baselines.skyey import skyey
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube, QueryEngine
from repro.skycube import skycube_naive

from .conftest import tiny_int_datasets


@pytest.fixture
def engine(flight_routes):
    return QueryEngine.build(flight_routes)


class TestQ1:
    def test_skyline_by_names(self, engine):
        assert engine.skyline("price,traveltime") == [
            "BUDGET-LHR", "DIRECT", "TK-YVR",
        ]

    def test_single_dimension(self, engine):
        assert engine.skyline("price") == ["BUDGET-LHR", "MULTIHOP"]

    def test_unknown_dimension(self, engine):
        with pytest.raises(ValueError, match="unknown dimension"):
            engine.skyline("price,comfort")


class TestQ2:
    def test_where_wins(self, engine):
        got = engine.where_wins("TK-YVR")
        assert got == [
            "price,traveltime",
            "price,stops",
            "price,traveltime,stops",
        ]

    def test_wins_in(self, engine):
        assert engine.wins_in("DIRECT", "traveltime")
        assert not engine.wins_in("SLOW-EXPENSIVE", "price,traveltime,stops")

    def test_signature_of(self, engine):
        sigs = engine.signature_of("DIRECT")
        assert len(sigs) == 1
        assert "DIRECT" in sigs[0]
        assert "traveltime" in sigs[0]

    def test_unknown_label(self, engine):
        with pytest.raises(ValueError, match="unknown object label"):
            engine.where_wins("CONCORDE")


class TestQ3:
    def test_drill_down_keys(self, engine):
        got = engine.drill_down("price")
        assert set(got) == {"price,traveltime", "price,stops"}

    def test_roll_up(self, engine):
        got = engine.roll_up("price,stops")
        assert set(got) == {"price", "stops"}
        assert got["price"] == ["BUDGET-LHR", "MULTIHOP"]

    def test_build_with_skyey(self, flight_routes):
        engine = QueryEngine(
            CompressedSkylineCube(flight_routes, skyey(flight_routes).groups)
        )
        assert engine.skyline("price") == ["BUDGET-LHR", "MULTIHOP"]


@settings(max_examples=60, deadline=None)
@given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
def test_every_query_kind_matches_the_skycube(ds: Dataset):
    """Label level = index level = per-subspace skylines, for every query.

    The engine answers by names and labels, the cube by masks and indices;
    both must equal the SkyCube computed one subspace at a time.
    """
    sky = skycube_naive(ds)
    cube = CompressedSkylineCube(ds, stellar(ds).groups)
    engine = QueryEngine(cube)
    labels, fmt = ds.labels, ds.format_subspace

    def named(objects):
        return [labels[i] for i in objects]

    for mask, expected in sky.items():
        assert cube.skyline_of(mask) == expected
        assert engine.skyline(fmt(mask)) == named(expected)
        bits = range(ds.n_dims)
        neighbours = {
            "drill_down": [
                (d, mask | 1 << d) for d in bits if not mask >> d & 1
            ],
            "roll_up": [
                (d, mask & ~(1 << d))
                for d in bits
                if mask >> d & 1 and mask != 1 << d
            ],
        }
        for kind, steps in neighbours.items():
            assert getattr(cube, kind)(mask) == [
                (d, s, sky[s]) for d, s in steps
            ]
            assert list(getattr(engine, kind)(fmt(mask)).items()) == [
                (fmt(s), named(sky[s])) for _, s in steps
            ]

    frequency = {}
    for obj, label in enumerate(labels):
        won = [s for s in sorted(sky) if obj in sky[s]]
        assert cube.membership_subspaces(obj) == won
        assert engine.where_wins(label) == [fmt(s) for s in won]
        for mask in sky:
            expected = mask in won
            assert cube.is_skyline_in(obj, mask) == expected
            assert engine.wins_in(label, fmt(mask)) == expected
        if won:
            frequency[obj] = len(won)
    ranking = sorted(frequency.items(), key=lambda pair: (-pair[1], pair[0]))
    for k in (0, 1, 3, ds.n_objects):
        assert cube.top_frequent(k) == ranking[:k]
        assert engine.top_frequent(k) == [
            (labels[obj], freq) for obj, freq in ranking[:k]
        ]
