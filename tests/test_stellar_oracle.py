"""The central correctness property: Stellar == oracle == Skyey.

The oracle (:mod:`repro.baselines.naive_cube`) implements Definitions 1-2
with exponential brute force; Stellar and Skyey must reproduce its output
-- same groups, same maximal subspaces, same decisive-subspace sets, same
projections -- on every input, including duplicates and heavy value ties.
"""

from hypothesis import given, settings

from repro.baselines import naive_compressed_cube, skyey
from repro.core.stellar import stellar
from repro.core.types import Dataset

from .conftest import mixed_float_datasets, tiny_int_datasets


def canonical(groups):
    return [
        (g.key, g.decisive, g.projection) for g in groups
    ]


def assert_same_cube(ds: Dataset):
    expected = canonical(naive_compressed_cube(ds))
    assert canonical(stellar(ds).groups) == expected
    assert canonical(skyey(ds).groups) == expected


class TestKnownDatasets:
    def test_running_example(self, running_example):
        assert_same_cube(running_example)

    def test_example1(self, example1):
        assert_same_cube(example1)

    def test_flight_routes(self, flight_routes):
        assert_same_cube(flight_routes)

    def test_single_object(self):
        ds = Dataset.from_rows([[3, 1, 4]])
        result = stellar(ds)
        assert len(result.groups) == 1
        group = result.groups[0]
        assert group.members == frozenset({0})
        assert group.subspace == 0b111
        assert group.decisive == (0b001, 0b010, 0b100)
        assert_same_cube(ds)

    def test_empty_dataset(self):
        ds = Dataset.from_rows([], names=("A", "B"))
        assert stellar(ds).groups == []
        assert skyey(ds).groups == []
        assert naive_compressed_cube(ds) == []

    def test_one_dimension(self):
        ds = Dataset.from_rows([[3], [1], [1], [2]])
        result = stellar(ds)
        assert len(result.groups) == 1
        assert result.groups[0].members == frozenset({1, 2})
        assert_same_cube(ds)

    def test_all_objects_identical(self):
        ds = Dataset.from_rows([[2, 2]] * 4)
        result = stellar(ds)
        assert len(result.groups) == 1
        assert result.groups[0].members == frozenset(range(4))
        assert result.groups[0].decisive == (0b01, 0b10)
        assert_same_cube(ds)

    def test_max_directions(self):
        ds = Dataset.from_rows(
            [[5, 6, 10, 7], [2, 6, 8, 3], [5, 4, 9, 3], [6, 4, 8, 5], [2, 4, 9, 3]],
        )
        # Flip every value's sign and the preference: identical cube
        # structure (projections are negated raw values by construction).
        flipped = Dataset.from_rows(
            (-ds.values).tolist(), directions=("max",) * 4
        )
        structure = lambda groups: [(g.key, g.decisive) for g in groups]
        assert structure(stellar(ds).groups) == structure(stellar(flipped).groups)
        flipped_proj = [tuple(-v for v in g.projection) for g in stellar(flipped).groups]
        assert flipped_proj == [g.projection for g in stellar(ds).groups]


class TestRandomised:
    @settings(max_examples=150, deadline=None)
    @given(tiny_int_datasets(max_objects=10, max_dims=4, max_value=3))
    def test_int_grid(self, ds: Dataset):
        assert_same_cube(ds)

    @settings(max_examples=80, deadline=None)
    @given(tiny_int_datasets(max_objects=8, max_dims=5, max_value=2))
    def test_extreme_ties(self, ds: Dataset):
        assert_same_cube(ds)

    @settings(max_examples=80, deadline=None)
    @given(mixed_float_datasets(max_objects=12, max_dims=4))
    def test_mixed_floats(self, ds: Dataset):
        assert_same_cube(ds)


class TestMixedDirections:
    """Preference directions are resolved inside Dataset; the cube over a
    mixed-direction dataset must equal the cube over its hand-minimized
    twin."""

    @settings(max_examples=40, deadline=None)
    @given(tiny_int_datasets(max_objects=9, max_dims=4, max_value=3))
    def test_max_columns_equal_hand_negation(self, ds: Dataset):
        directions = tuple(
            "max" if d % 2 else "min" for d in range(ds.n_dims)
        )
        signs = [(-1.0 if x == "max" else 1.0) for x in directions]
        mixed = Dataset.from_rows(
            (ds.values * signs).tolist(), directions=directions
        )
        structure = lambda groups: [(g.key, g.decisive) for g in groups]
        assert structure(stellar(mixed).groups) == structure(stellar(ds).groups)
        assert structure(skyey(mixed).groups) == structure(stellar(ds).groups)
        assert structure(naive_compressed_cube(mixed)) == structure(
            stellar(ds).groups
        )


class TestStellarStats:
    def test_counters(self, running_example):
        stats = stellar(running_example).stats
        assert stats.n_objects == 5
        assert stats.n_dims == 4
        assert stats.n_seeds == 3
        assert stats.n_maximal_cgroups == 6
        assert stats.n_seed_groups == 6
        assert stats.n_groups == 8
        assert set(stats.timings) == {
            "full_space_skyline",
            "maximal_cgroups",
            "seed_decisive",
            "nonseed_extension",
        }
        assert stats.total_seconds >= 0


class TestSkyeyStats:
    def test_counts(self, running_example):
        result = skyey(running_example)
        assert result.stats.n_subspaces_searched == 15  # 2^4 - 1
        assert result.stats.n_groups == 8
        # SkyCube sizes present for every non-empty subspace
        assert set(result.skyline_sizes) == set(range(1, 16))
        # full-space skyline has the 3 seeds
        assert result.skyline_sizes[0b1111] == 3
        assert result.stats.n_subspace_skyline_objects == sum(
            result.skyline_sizes.values()
        )
