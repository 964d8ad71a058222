"""Tests for the vectorized kernels, each checked against an oracle.

* :func:`~repro.skyline.numpy_skyline.skyline_numpy` and its packed-bitset
  kernel against :func:`~repro.skyline.base.skyline_brute`, including the
  size cutoff between its two kernels and the 64-bit word boundaries;
* :class:`~repro.cube.compressed.GroupIndex` against :func:`scan_groups` below,
  the per-group loop it replaced, on results *and* plan counters, and the
  Q2/Q3 lattice walks and membership probes against the counted loops
  :func:`walk_groups` and :func:`probe_groups`;
* :func:`~repro.core.stellar.stellar` against the definitional oracle
  (:func:`~repro.baselines.naive_cube.naive_compressed_cube`) on seeded
  inputs with heavy ties, exact duplicate rows and a single dimension.
"""

import numpy as np
import pytest

from repro.baselines import naive_compressed_cube
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.cube.compressed import CompressedSkylineCube
from repro.cube.query import QueryEngine, pack_bitmap, unpack_bitmap
from repro.skyline.base import skyline_brute
from repro.skyline.numpy_skyline import (
    BITSET_MAX_ROWS,
    skyline_bitset,
    skyline_numpy,
)


def _random_dataset(rng, n=None, d=None, low_cardinality=True) -> Dataset:
    """A seeded dataset with heavy ties (small integer value domain)."""
    n = n or int(rng.integers(2, 40))
    d = d or int(rng.integers(1, 5))
    domain = 4 if low_cardinality else 1000
    values = rng.integers(0, domain, size=(n, d)).astype(float)
    return Dataset.from_rows(values, names=tuple(f"c{i}" for i in range(d)))


SCAN_COUNTERS = ("groups_considered", "groups_matched", "interval_checks")
WALK_COUNTERS = (*SCAN_COUNTERS, "subspaces_enumerated")


def scan_groups(cube: CompressedSkylineCube, mask: int) -> tuple[list[int], dict]:
    """Oracle for one Q1 scan: a Python loop over the groups, counted.

    Mirrors :meth:`SkylineGroup.covers_subspace`: one ``interval_checks``
    unit per decisive subspace actually tested, stopping at the first hit.
    """
    counters = {"groups_considered": 0, "groups_matched": 0, "interval_checks": 0}
    members: set[int] = set()
    for group in cube.groups:
        counters["groups_considered"] += 1
        if mask & ~group.subspace:
            continue
        for c in group.decisive:
            counters["interval_checks"] += 1
            if c & ~mask == 0:
                members.update(group.members)
                counters["groups_matched"] += 1
                break
    return sorted(members), counters


def walk_groups(cube: CompressedSkylineCube, obj: int) -> tuple[list[int], dict]:
    """Oracle for one Q2 lattice walk: a Python loop over the groups, counted.

    Every decisive subspace of every group holding ``obj`` is one
    ``interval_checks`` unit; each distinct maximal interval
    ``[C, B]`` is one ``groups_matched`` unit and enumerates its
    ``2^(|B| - |C|)`` subspaces one at a time.
    """
    counters = dict.fromkeys(WALK_COUNTERS, 0)
    intervals = set()
    for group in cube.groups:
        if obj not in group.members:
            continue
        counters["groups_considered"] += 1
        for c in group.decisive:
            counters["interval_checks"] += 1
            intervals.add((c, group.subspace))
    subspaces: set[int] = set()
    for lower, upper in intervals:
        if any(
            (lo, up) != (lower, upper)
            and lo & lower == lo
            and upper & up == upper
            for lo, up in intervals
        ):
            continue  # contained in another interval
        counters["groups_matched"] += 1
        for mask in range(1 << upper.bit_length()):
            if mask & lower == lower and mask & upper == mask:
                counters["subspaces_enumerated"] += 1
                subspaces.add(mask)
    return sorted(subspaces), counters


def probe_groups(
    cube: CompressedSkylineCube, obj: int, mask: int
) -> tuple[bool, dict]:
    """Oracle for one point-membership probe: the object's groups in order,
    stopping at the first that covers ``mask``."""
    counters = dict.fromkeys(SCAN_COUNTERS, 0)
    for group in cube.groups:
        if obj not in group.members:
            continue
        counters["groups_considered"] += 1
        if mask & ~group.subspace:
            continue
        for c in group.decisive:
            counters["interval_checks"] += 1
            if c & ~mask == 0:
                counters["groups_matched"] += 1
                return True, counters
    return False, counters


def _counters(plan, names=SCAN_COUNTERS) -> dict:
    return {name: plan.counters[name] for name in names}


class TestBitmaps:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        for n in (1, 63, 64, 65, 130):
            members = sorted(
                rng.choice(n, size=rng.integers(0, n + 1), replace=False)
            )
            words = pack_bitmap(members, n)
            assert words.dtype == np.uint64
            assert list(unpack_bitmap(words, n)) == [int(m) for m in members]

    def test_empty(self):
        assert list(unpack_bitmap(pack_bitmap([], 70), 70)) == []


class TestSkylineBitset:
    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(1, 50))
            d = int(rng.integers(1, 5))
            m = rng.integers(0, 4, size=(n, d)).astype(float)
            assert skyline_bitset(m) == sorted(skyline_brute(m, None))

    def test_duplicate_rows_both_kept(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        assert skyline_bitset(m) == [0, 1]

    def test_single_dimension(self):
        m = np.array([[3.0], [1.0], [1.0], [2.0]])
        assert skyline_bitset(m) == [1, 2]

    def test_empty(self):
        assert skyline_bitset(np.empty((0, 3))) == []

    def test_word_boundary_sizes(self):
        rng = np.random.default_rng(6)
        for n in (63, 64, 65, 128, 129):
            m = rng.integers(0, 6, size=(n, 3)).astype(float)
            assert skyline_bitset(m) == sorted(skyline_brute(m, None))


class TestSkylineNumpy:
    """Both kernels behind ``skyline_numpy`` agree with brute force."""

    @pytest.mark.parametrize("n", [63, 64, 65])
    def test_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        m = rng.integers(0, 5, size=(n, 3)).astype(float)
        for subspace in (None, 0b001, 0b101):
            assert skyline_numpy(m, subspace) == skyline_brute(m, subspace)

    @pytest.mark.parametrize(
        "n", [2_000, 2_001, BITSET_MAX_ROWS, BITSET_MAX_ROWS + 1]
    )
    def test_at_the_size_cutoff(self, n):
        # A small value domain makes ties, duplicates and a non-trivial
        # skyline certain on both sides of the cutoff.  2,000 rows was the
        # raw-row cutoff before the elimination filter; BITSET_MAX_ROWS now
        # cuts the survivor count, which tests/test_skyline_filter.py
        # crosses on purpose.
        rng = np.random.default_rng(n)
        m = rng.integers(0, 40, size=(n, 3)).astype(float)
        expected = skyline_brute(m, None)
        assert len(expected) > 1
        assert skyline_numpy(m) == expected

    def test_subspace_projection(self):
        rng = np.random.default_rng(11)
        m = rng.integers(0, 4, size=(200, 4)).astype(float)
        for subspace in range(1, 1 << 4):
            assert skyline_numpy(m, subspace) == skyline_brute(m, subspace)


def _group_fingerprints(dataset, groups):
    return sorted(
        (tuple(sorted(g.members)), g.subspace, g.decisive, g.projection)
        for g in groups
    )


def _assert_matches_oracle(data: Dataset) -> None:
    assert _group_fingerprints(data, stellar(data).groups) == _group_fingerprints(
        data, naive_compressed_cube(data)
    )


class TestStellarEquivalence:
    """Property-style: stellar equals the definitional oracle."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_datasets_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        data = _random_dataset(rng)
        _assert_matches_oracle(data)
        assert stellar(data).seeds == skyline_brute(data.minimized, None)

    def test_duplicated_rows(self):
        rng = np.random.default_rng(99)
        base = rng.integers(0, 3, size=(10, 3)).astype(float)
        values = np.vstack([base, base[:4]])  # exact duplicates appended
        _assert_matches_oracle(Dataset.from_rows(values, names=("a", "b", "c")))

    def test_single_dimension_dataset(self):
        data = Dataset.from_rows([[3.0], [1.0], [1.0], [2.0]], names=("x",))
        _assert_matches_oracle(data)


class TestQueryEquivalence:
    """The GroupIndex scan agrees with the per-group loop, counters included."""

    @pytest.mark.parametrize("seed", range(5))
    def test_all_subspaces_results_and_counters(self, seed):
        rng = np.random.default_rng(100 + seed)
        data = _random_dataset(rng, d=int(rng.integers(1, 5)))
        cube = CompressedSkylineCube(data, stellar(data).groups)
        engine = QueryEngine(cube)
        for mask in range(1, 1 << data.n_dims):
            name = data.format_subspace(mask)
            members, counters = scan_groups(cube, mask)
            assert engine.skyline(name) == [data.labels[i] for i in members]
            assert _counters(engine.last_plan) == counters, name

    def test_drill_down_and_roll_up(self, flight_routes):
        cube = CompressedSkylineCube.build(flight_routes)
        engine = QueryEngine(cube)
        sub = "price,traveltime"
        base = flight_routes.parse_subspace(sub)
        neighbours = {
            "drill_down": [base | 1 << d for d in range(3) if not base >> d & 1],
            "roll_up": [base & ~(1 << d) for d in range(3) if base >> d & 1],
        }
        for kind, masks in neighbours.items():
            expected = {}
            totals = dict.fromkeys(
                ("groups_considered", "groups_matched", "interval_checks"), 0
            )
            for mask in masks:
                members, counters = scan_groups(cube, mask)
                expected[flight_routes.format_subspace(mask)] = [
                    flight_routes.labels[i] for i in members
                ]
                for name, value in counters.items():
                    totals[name] += value
            assert getattr(engine, kind)(sub) == expected
            assert _counters(engine.last_plan) == totals

    def test_shared_query_kinds_unaffected(self, flight_routes):
        cube = CompressedSkylineCube.build(flight_routes)
        engine = QueryEngine(cube)
        n_dims = flight_routes.n_dims
        for label in flight_routes.labels:
            obj = flight_routes.labels.index(label)
            won = {
                mask
                for mask in range(1, 1 << n_dims)
                if obj in scan_groups(cube, mask)[0]
            }
            assert engine.where_wins(label) == [
                flight_routes.format_subspace(m) for m in sorted(won)
            ]
            for mask in range(1, 1 << n_dims):
                name = flight_routes.format_subspace(mask)
                assert engine.wins_in(label, name) == (mask in won)

    @pytest.mark.parametrize("seed", range(5))
    def test_lattice_walk_and_probe_counters(self, seed):
        rng = np.random.default_rng(200 + seed)
        data = _random_dataset(rng)
        cube = CompressedSkylineCube(data, stellar(data).groups)
        engine = QueryEngine(cube)
        totals = dict.fromkeys(WALK_COUNTERS, 0)
        for obj, label in enumerate(data.labels):
            subspaces, counters = walk_groups(cube, obj)
            assert engine.where_wins(label) == [
                data.format_subspace(m) for m in subspaces
            ]
            assert _counters(engine.last_plan, WALK_COUNTERS) == counters, label
            for name, value in counters.items():
                totals[name] += value
            for mask in range(1, 1 << data.n_dims):
                name = data.format_subspace(mask)
                hit, counters = probe_groups(cube, obj, mask)
                assert engine.wins_in(label, name) == hit
                assert _counters(engine.last_plan) == counters, (label, name)
        engine.top_frequent(1)
        assert _counters(engine.last_plan, WALK_COUNTERS) == totals
