"""Tests for the Dataset model and SkylineGroup result type."""

import numpy as np
import pytest

from repro.core.types import Dataset, Direction, SkylineGroup, group_sort_key


class TestDirection:
    def test_coerce_strings(self):
        assert Direction.coerce("min") is Direction.MIN
        assert Direction.coerce("MAX") is Direction.MAX

    def test_coerce_identity(self):
        assert Direction.coerce(Direction.MIN) is Direction.MIN

    def test_coerce_invalid(self):
        with pytest.raises(ValueError, match="'min' or 'max'"):
            Direction.coerce("sideways")


class TestDatasetConstruction:
    def test_defaults(self):
        ds = Dataset.from_rows([[1, 2], [3, 4]])
        assert ds.names == ("A", "B")
        assert ds.directions == (Direction.MIN, Direction.MIN)
        assert ds.labels == ("P1", "P2")
        assert ds.n_objects == 2
        assert ds.n_dims == 2
        assert len(ds) == 2
        assert ds.full_space == 0b11

    def test_empty_dataset(self):
        ds = Dataset.from_rows([], names=("A", "B"))
        assert ds.n_objects == 0
        assert ds.n_dims == 2

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError, match="2-d matrix"):
            Dataset(values=np.zeros(3))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset.from_rows([[1.0, float("nan")]])

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError, match="dimension names"):
            Dataset.from_rows([[1, 2]], names=("A",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset.from_rows([[1, 2]], names=("A", "A"))

    def test_rejects_wrong_label_count(self):
        with pytest.raises(ValueError, match="object labels"):
            Dataset.from_rows([[1, 2]], labels=("a", "b"))

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset.from_rows([[1, 2], [3, 4]], labels=("a", "a"))

    def test_values_are_read_only(self):
        ds = Dataset.from_rows([[1, 2]])
        with pytest.raises(ValueError):
            ds.values[0, 0] = 9
        with pytest.raises(ValueError):
            ds.minimized[0, 0] = 9


class TestMinimizedView:
    def test_max_columns_negated(self):
        ds = Dataset.from_rows(
            [[1, 10], [2, 20]], directions=("min", "max")
        )
        assert ds.minimized[0, 0] == 1
        assert ds.minimized[0, 1] == -10
        # raw values untouched
        assert ds.values[0, 1] == 10

    def test_dominance_respects_directions(self):
        from repro.skyline import compute_skyline

        # Bigger second column is better: (1, 20) dominates (1, 10).
        ds = Dataset.from_rows(
            [[1, 10], [1, 20]], directions=("min", "max")
        )
        assert compute_skyline(ds) == [1]


class TestProjections:
    def test_projection(self, running_example):
        # P2 on AC
        assert running_example.projection(1, 0b101) == (2.0, 8.0)

    def test_min_projection_with_max_direction(self):
        ds = Dataset.from_rows([[3, 7]], directions=("min", "max"))
        assert ds.projection(0, 0b11) == (3.0, 7.0)
        assert ds.min_projection(0, 0b11) == (3.0, -7.0)


class TestDerivation:
    def test_restrict_dims(self, running_example):
        sub = running_example.restrict_dims(0b1010)  # B and D
        assert sub.names == ("B", "D")
        assert sub.n_dims == 2
        assert sub.values[0].tolist() == [6, 7]
        assert sub.labels == running_example.labels

    def test_restrict_empty_rejected(self, running_example):
        with pytest.raises(ValueError, match="empty subspace"):
            running_example.restrict_dims(0)

    def test_prefix_dims(self, running_example):
        sub = running_example.prefix_dims(2)
        assert sub.names == ("A", "B")

    def test_prefix_bounds(self, running_example):
        with pytest.raises(ValueError):
            running_example.prefix_dims(0)
        with pytest.raises(ValueError):
            running_example.prefix_dims(5)

    def test_take(self, running_example):
        sub = running_example.take([0, 4])
        assert sub.n_objects == 2
        assert sub.labels == ("P1", "P5")
        assert sub.values[1].tolist() == [2, 4, 9, 3]


class TestFormatting:
    def test_format_subspace(self, running_example):
        assert running_example.format_subspace(0b1001) == "AD"

    def test_parse_subspace(self, running_example):
        assert running_example.parse_subspace("AD") == 0b1001

    def test_format_objects(self, running_example):
        assert running_example.format_objects([4, 1]) == "P2P5"

    def test_format_objects_long_labels(self):
        ds = Dataset.from_rows(
            [[1], [2]], labels=("alpha", "beta")
        )
        assert ds.format_objects([0, 1]) == "alpha,beta"


class TestSkylineGroup:
    def test_validation_empty_members(self):
        with pytest.raises(ValueError, match="at least one object"):
            SkylineGroup(frozenset(), 1, (1,), (1.0,))

    def test_validation_empty_subspace(self):
        with pytest.raises(ValueError, match="non-empty"):
            SkylineGroup(frozenset([0]), 0, (1,), ())

    def test_validation_projection_length(self):
        with pytest.raises(ValueError, match="projection length"):
            SkylineGroup(frozenset([0]), 0b11, (1,), (1.0,))

    def test_decisive_sorted_deduped(self):
        g = SkylineGroup(frozenset([0]), 0b11, (2, 1, 2), (1.0, 2.0))
        assert g.decisive == (1, 2)

    @pytest.mark.parametrize(
        "decisive",
        [(1, 1, 2), (2, 1), [1, 2], (1, 2, 2), (1, 2)],
    )
    def test_decisive_canonical_whatever_is_passed(self, decisive):
        g = SkylineGroup([0, 0], 0b11, decisive, (1.0, 2.0))
        assert g.decisive == (1, 2)
        assert type(g.members) is frozenset and g.members == {0}

    def test_key(self):
        g = SkylineGroup(frozenset([3, 1]), 0b1, (1,), (5.0,))
        assert g.key == ((1, 3), 0b1)

    def test_covers_subspace(self):
        # B = {A,B,C}, decisive = {A}
        g = SkylineGroup(frozenset([0]), 0b111, (0b001,), (1.0, 2.0, 3.0))
        assert g.covers_subspace(0b001)
        assert g.covers_subspace(0b011)
        assert g.covers_subspace(0b111)
        assert not g.covers_subspace(0b010)   # does not contain decisive
        assert not g.covers_subspace(0b1001)  # leaves the maximal subspace

    def test_signature(self, running_example):
        g = SkylineGroup(
            frozenset([1, 4]), 0b1001, (0b0001,), (2.0, 3.0)
        )
        assert g.signature(running_example) == "(P2P5, (2,*,*,3), A)"

    def test_signature_fractional_value(self):
        ds = Dataset.from_rows([[1.5, 2.0]])
        g = SkylineGroup(frozenset([0]), 0b11, (0b01,), (1.5, 2.0))
        assert "(1.5,2)" in g.signature(ds)

    def test_group_sort_key_orders_by_size_then_members(self):
        small = SkylineGroup(frozenset([9]), 1, (1,), (0.0,))
        large = SkylineGroup(frozenset([0, 1]), 1, (1,), (0.0,))
        assert group_sort_key(small) < group_sort_key(large)
