"""Tests for the minimal hitting-set engine (Corollary 1's machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import (
    is_subset,
    iter_bits,
    iter_nonempty_subsets,
    minimal_masks,
    popcount,
)
from repro.core.hitting import (
    HittingSetOverflow,
    hits_all,
    minimal_clauses,
    minimal_hitting_sets,
)
from repro.core.seeds import singleton_decisive


def brute_minimal_hitting_sets(clauses: list[int], universe: int) -> list[int]:
    """Exponential reference: scan every subset of the universe."""
    hitting = [
        s for s in iter_nonempty_subsets(universe) if hits_all(s, clauses)
    ]
    minimal = [
        s
        for s in hitting
        if not any(t != s and is_subset(t, s) for t in hitting)
    ]
    return sorted(minimal, key=lambda m: (popcount(m), m))


class TestMinimalClauses:
    def test_absorption(self):
        assert minimal_clauses([0b111, 0b011, 0b001]) == [0b001]

    def test_incomparable_kept(self):
        assert minimal_clauses([0b011, 0b101]) == [0b011, 0b101]

    def test_duplicates_collapse(self):
        assert minimal_clauses([0b10, 0b10]) == [0b10]

    def test_empty_family(self):
        assert minimal_clauses([]) == []


class TestHitsAll:
    def test_positive(self):
        assert hits_all(0b001, [0b001, 0b011])

    def test_negative(self):
        assert not hits_all(0b001, [0b110])

    def test_vacuous(self):
        assert hits_all(0, [])


class TestMinimalHittingSets:
    def test_paper_example5_p2(self):
        """P2's CNF (A∨D)∧C has minimum DNF (A∧C)∨(C∧D)."""
        A, C, D = 0b0001, 0b0100, 0b1000
        assert minimal_hitting_sets([A | D, C]) == sorted(
            [A | C, C | D], key=lambda m: (popcount(m), m)
        )

    def test_paper_example6_p5(self):
        """P5's clauses B and AD give decisive subspaces AB and BD."""
        A, B, D = 0b0001, 0b0010, 0b1000
        assert set(minimal_hitting_sets([B, A | D])) == {A | B, B | D}

    def test_single_clause(self):
        assert minimal_hitting_sets([0b101]) == [0b001, 0b100]

    def test_empty_family_vacuous(self):
        assert minimal_hitting_sets([]) == [0]

    def test_empty_clause_rejected(self):
        with pytest.raises(ValueError, match="unhittable"):
            minimal_hitting_sets([0b01, 0])

    def test_overflow_guard(self):
        # 2 * k disjoint 2-literal clauses have 2^k minimal transversals.
        clauses = [0b11 << (2 * i) for i in range(20)]
        with pytest.raises(HittingSetOverflow):
            minimal_hitting_sets(clauses, max_candidates=100)

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=63), min_size=0, max_size=6
        )
    )
    def test_matches_bruteforce(self, clauses):
        universe = 0b111111
        got = minimal_hitting_sets(clauses)
        if not clauses:
            assert got == [0]
            return
        expected = brute_minimal_hitting_sets(clauses, universe)
        assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=1, max_value=255), min_size=1, max_size=8
        )
    )
    def test_results_hit_and_are_minimal(self, clauses):
        for hs in minimal_hitting_sets(clauses):
            assert hits_all(hs, clauses)
            # removing any single dimension must break some clause
            for d in range(8):
                if hs & (1 << d):
                    assert not hits_all(hs & ~(1 << d), clauses)


#: Non-empty clauses over a 6-dimension universe.
_CLAUSES = st.lists(st.integers(min_value=1, max_value=63), max_size=5)


class TestExtendingTransversals:
    """``Tr(F ∪ G)`` is reached from ``Tr(F)`` by one Berge step per clause."""

    @settings(max_examples=150, deadline=None)
    @given(_CLAUSES, _CLAUSES)
    def test_extension_equals_solving_the_union(self, family, added):
        start = minimal_hitting_sets(family)
        got = minimal_hitting_sets(added, start=start)
        assert got == minimal_hitting_sets(family + added)
        if family or added:
            assert got == brute_minimal_hitting_sets(family + added, 0b111111)
        else:
            assert got == [0]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=63), _CLAUSES)
    def test_extension_from_the_singleton_start(self, subspace, added):
        """``singleton_decisive(B)`` is ``Tr({B})``; every clause is ``⊆ B``."""
        added = [c & subspace for c in added if c & subspace]
        start = singleton_decisive(subspace)
        assert list(start) == minimal_hitting_sets([subspace])
        got = minimal_hitting_sets(added, start=start)
        assert got == brute_minimal_hitting_sets([subspace, *added], subspace)
        assert got == minimal_hitting_sets([subspace, *added])

    def test_empty_extension_returns_the_start(self):
        start = minimal_hitting_sets([0b0011, 0b1100])
        assert minimal_hitting_sets([], start=start) == start


def antichain_pass_hitting_sets(clauses: list[int], start=(0,)) -> list[int]:
    """Reference Berge expansion: a full antichain pass after every step."""
    candidates = list(start)
    for clause in minimal_clauses(clauses):
        surviving = [t for t in candidates if t & clause]
        missing = [t for t in candidates if not t & clause]
        forked = [t | (1 << d) for t in missing for d in iter_bits(clause)]
        candidates = minimal_masks(surviving + forked) if forked else surviving
    return sorted(candidates, key=lambda m: (popcount(m), m))


#: Non-empty clauses over a 12-dimension universe.
_WIDE_CLAUSES = st.lists(st.integers(min_value=1, max_value=4095), max_size=10)


class TestBitIndexedForkCheck:
    """Checking a fork only against the survivors holding its new bit."""

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_CLAUSES)
    def test_equals_the_full_antichain_pass(self, clauses):
        assert minimal_hitting_sets(clauses) == antichain_pass_hitting_sets(clauses)

    @settings(max_examples=200, deadline=None)
    @given(_WIDE_CLAUSES, _WIDE_CLAUSES)
    def test_equals_the_full_antichain_pass_from_a_start(self, family, added):
        start = antichain_pass_hitting_sets(family)
        expected = antichain_pass_hitting_sets(added, start=start)
        assert minimal_hitting_sets(added, start=start) == expected

    @settings(max_examples=150, deadline=None)
    @given(_CLAUSES, _CLAUSES)
    def test_clauses_every_transversal_hits_change_nothing(self, family, added):
        """A clause every minimal transversal hits leaves ``Tr`` unchanged."""
        start = minimal_hitting_sets(family)
        hit = [c for c in added if all(t & c for t in start)]
        assert minimal_hitting_sets(hit, start=start) == start
