"""Unit and property tests for the dimension bit-set machinery."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import bitset


class TestBasics:
    def test_bit(self):
        assert bitset.bit(0) == 1
        assert bitset.bit(3) == 8

    def test_bit_negative_rejected(self):
        with pytest.raises(ValueError):
            bitset.bit(-1)

    def test_full_mask(self):
        assert bitset.full_mask(0) == 0
        assert bitset.full_mask(1) == 1
        assert bitset.full_mask(4) == 0b1111

    def test_full_mask_negative_rejected(self):
        with pytest.raises(ValueError):
            bitset.full_mask(-2)

    def test_iter_bits(self):
        assert list(bitset.iter_bits(0b1011)) == [0, 1, 3]
        assert list(bitset.iter_bits(0)) == []

    def test_bit_list(self):
        assert bitset.bit_list(0b10100) == [2, 4]

    def test_popcount(self):
        assert bitset.popcount(0) == 0
        assert bitset.popcount(0b1011) == 3

    def test_mask_of_dims(self):
        assert bitset.mask_of_dims([0, 2]) == 0b101
        assert bitset.mask_of_dims([]) == 0

    def test_subset_relations(self):
        assert bitset.is_subset(0b001, 0b011)
        assert bitset.is_subset(0b011, 0b011)
        assert not bitset.is_subset(0b100, 0b011)
        assert bitset.is_proper_subset(0b001, 0b011)
        assert not bitset.is_proper_subset(0b011, 0b011)


class TestEnumeration:
    def test_iter_subsets_counts(self):
        subs = list(bitset.iter_subsets(0b101))
        assert sorted(subs) == [0b000, 0b001, 0b100, 0b101]

    def test_iter_nonempty_subsets(self):
        assert sorted(bitset.iter_nonempty_subsets(0b11)) == [0b01, 0b10, 0b11]

    def test_iter_supersets(self):
        sups = sorted(bitset.iter_supersets(0b001, 0b011))
        assert sups == [0b001, 0b011]

    def test_iter_supersets_requires_containment(self):
        with pytest.raises(ValueError):
            list(bitset.iter_supersets(0b100, 0b011))

    def test_iter_all_subspaces(self):
        assert list(bitset.iter_all_subspaces(2)) == [1, 2, 3]
        assert list(bitset.iter_all_subspaces(0)) == []

    @given(st.integers(min_value=0, max_value=255))
    def test_subset_enumeration_is_exhaustive(self, mask):
        subs = list(bitset.iter_subsets(mask))
        assert len(subs) == 1 << bitset.popcount(mask)
        assert len(set(subs)) == len(subs)
        assert all(bitset.is_subset(s, mask) for s in subs)


class TestAntichains:
    def test_minimal_masks(self):
        assert bitset.minimal_masks([0b11, 0b01, 0b10]) == [0b01, 0b10]
        assert bitset.minimal_masks([0b111, 0b11]) == [0b11]

    def test_minimal_masks_removes_duplicates(self):
        assert bitset.minimal_masks([0b1, 0b1]) == [0b1]

    def test_maximal_masks(self):
        assert bitset.maximal_masks([0b11, 0b01, 0b10]) == [0b11]

    @given(st.lists(st.integers(min_value=1, max_value=63), min_size=1, max_size=12))
    def test_minimal_masks_is_antichain_and_covers(self, masks):
        result = bitset.minimal_masks(masks)
        # antichain: no element contains another
        for a in result:
            for b in result:
                if a != b:
                    assert not bitset.is_subset(a, b)
        # every input mask contains some minimal element
        for m in masks:
            assert any(bitset.is_subset(r, m) for r in result)
        # every result element is an input element
        assert set(result) <= set(masks)


class TestClosureAndDistinct:
    @given(st.lists(st.integers(min_value=0, max_value=63), max_size=7))
    def test_closed_masks_is_every_subfamily_intersection(self, masks):
        expected = set()
        for size in range(1, len(masks) + 1):
            for family in combinations(masks, size):
                meet = family[0]
                for m in family[1:]:
                    meet &= m
                if meet:
                    expected.add(meet)
        assert bitset.closed_masks(masks) == expected

    def test_distinct_masks_empty(self):
        assert bitset.distinct_masks(np.zeros(0, dtype=np.int64)) == []
        assert bitset.distinct_masks(np.zeros(0, dtype=object)) == []

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 62) - 1), max_size=40))
    def test_distinct_masks_int64(self, masks):
        got = bitset.distinct_masks(np.array(masks, dtype=np.int64))
        assert got == sorted(set(masks))
        assert all(type(m) is int for m in got)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 70) - 1), max_size=40))
    def test_distinct_masks_object(self, masks):
        arr = np.empty(len(masks), dtype=object)
        arr[:] = masks
        got = bitset.distinct_masks(arr)
        assert got == sorted(set(masks))
        assert all(type(m) is int for m in got)


class TestFormatting:
    def test_format_single_letters(self):
        assert bitset.format_mask(0b1011) == "ABD"
        assert bitset.format_mask(0) == "{}"

    def test_format_with_names(self):
        names = ("price", "time", "stops")
        assert bitset.format_mask(0b101, names) == "price,stops"

    def test_format_beyond_names(self):
        assert bitset.format_mask(1 << 30) == "D30"

    def test_parse_compact(self):
        assert bitset.parse_mask("ACD") == 0b1101

    def test_parse_named(self):
        names = ("price", "time", "stops")
        assert bitset.parse_mask("price,stops", names) == 0b101
        assert bitset.parse_mask("time", names) == 0b010

    def test_parse_empty(self):
        assert bitset.parse_mask("") == 0
        assert bitset.parse_mask("{}") == 0

    def test_parse_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown dimension"):
            bitset.parse_mask("A?", ("A", "B"))

    @given(st.integers(min_value=0, max_value=(1 << 26) - 1))
    def test_format_parse_roundtrip(self, mask):
        assert bitset.parse_mask(bitset.format_mask(mask)) == mask
