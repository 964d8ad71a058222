"""Minimal hitting sets: the minimum-DNF step of Corollary 1.

Section 5.2.2 reduces the decisive subspaces of a skyline group to a logic
problem: each outside object ``u`` contributes the requirement "the subspace
must contain a dimension where the group beats ``u``", i.e. the positive
clause ``⋁ {D : D ∈ B ∩ dom[o, u]}``.  A subspace qualifies iff it *hits*
every clause, and the decisive subspaces are exactly the minimal hitting
sets -- the conjunctions of the minimum disjunctive normal form of the CNF.

Clauses and hitting sets are dimension bitmasks.  The computation is the
classical Berge expansion with absorption after every step, which is the
bitmap-based incremental procedure the paper sketches in Example 6:
candidates that already hit the next clause survive unchanged; the others
fork once per literal of the clause; non-minimal candidates are pruned
immediately.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bitset import iter_bits, minimal_masks, popcount

__all__ = [
    "minimal_clauses",
    "hits_all",
    "minimal_hitting_sets",
    "HittingSetOverflow",
]


class HittingSetOverflow(RuntimeError):
    """Raised when the number of candidate transversals exceeds the cap.

    The number of minimal hitting sets can be exponential in pathological
    inputs.  Skyline groups in practice have few decisive subspaces, so the
    cap exists purely as a safety valve; hitting it indicates the input is
    outside the regime the paper (and this library) targets.
    """


def minimal_clauses(clauses: Iterable[int]) -> list[int]:
    """Apply absorption: keep only the minimal clauses of a CNF.

    A clause that is a superset of another clause is implied by it, so it
    never constrains the hitting sets.  The result is an antichain sorted by
    cardinality then value.
    """
    kept = minimal_masks(clauses)
    kept.sort(key=lambda m: (popcount(m), m))
    return kept


def hits_all(mask: int, clauses: Iterable[int]) -> bool:
    """True when ``mask`` intersects every clause."""
    return all(mask & c for c in clauses)


def minimal_hitting_sets(
    clauses: Iterable[int],
    max_candidates: int = 100_000,
    *,
    start: Iterable[int] = (0,),
) -> list[int]:
    """All minimal hitting sets (minimal transversals) of the clause family.

    Parameters
    ----------
    clauses:
        Non-empty dimension bitmasks.  An empty *family* is vacuously hit by
        the empty set, so the result is ``[0]``.  An empty *clause* makes
        the family unhittable and raises :class:`ValueError` -- upstream
        code drops such groups instead (step 4 of Algorithm Stellar).
    max_candidates:
        Safety cap on the intermediate candidate count.
    start:
        The minimal transversals ``Tr(F)`` of a family ``F`` solved earlier
        (an antichain); the result is then ``Tr(F ∪ clauses)``, one Berge
        step per clause.
        The default ``(0,)`` is ``Tr`` of the empty family.

    Returns
    -------
    The antichain of minimal hitting sets, sorted by cardinality then value.
    """
    reduced = minimal_clauses(clauses)
    if reduced and reduced[0] == 0:
        raise ValueError("an empty clause makes the family unhittable")
    candidates = list(start)
    for clause in reduced:
        surviving: list[int] = []
        missing: list[int] = []
        for t in candidates:
            (surviving if t & clause else missing).append(t)
        if missing:
            # Fork t ∪ {d} of a candidate t missing the clause is
            # non-minimal iff some survivor s ⊆ t ∪ {d}; s ⊄ t since the
            # candidates are an antichain, so s holds d.  Forks of two
            # different candidates never contain one another for the same
            # reason (docs/THEORY.md §9), so only the survivors holding d
            # are checked, and the set drops a fork met twice.
            forked: set[int] = set()
            for d in iter_bits(clause):
                b = 1 << d
                holders = [s for s in surviving if s & b]
                for t in missing:
                    fork = t | b
                    if fork not in forked and not any(s & fork == s for s in holders):
                        forked.add(fork)
            surviving.extend(forked)
        candidates = surviving
        if len(candidates) > max_candidates:
            raise HittingSetOverflow(
                f"more than {max_candidates} candidate transversals; "
                "input outside the supported regime"
            )
    candidates.sort(key=lambda m: (popcount(m), m))
    return candidates
