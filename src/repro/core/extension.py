"""Accommodating non-seed objects (Section 5.3, Theorem 5).

After the seed lattice is built, one pass over the non-seed objects turns it
into the skyline-group lattice of the whole dataset.  For a seed group
``(G', B')`` with representative values ``G'_{B'}``, classify each non-seed
``o`` by two masks:

* ``share(o) = {D ∈ B' : o.D = G'.D}`` -- where ``o`` coincides with the
  group, and
* ``beat(o)  = {D ∈ B' : o.D < G'.D}`` -- where ``o`` strictly beats it.

Only non-seeds with ``share ≠ ∅`` and ``beat = ∅`` are *relevant*:

* if ``beat(o) ≠ ∅`` then no member of ``G'`` dominates ``o`` in the full
  space, so some seed *outside* ``G'`` does (every non-seed is dominated by
  a seed); that outside seed's hitting-set clause is a subset of ``o``'s,
  which is therefore absorbed -- ``o`` can never change a decisive subspace
  or force a split;
* if ``share(o) = ∅`` then ``o``'s clause is all of ``B`` for any candidate
  subspace, again absorbed.

The relevant non-seeds reshape the lattice in exactly the two ways of
Theorem 5:

* ``share(o) = B'`` -- ``o`` coincides with the group on its whole maximal
  subspace and simply joins it (Example 7's ``P3`` joining ``P4 P5``);
* otherwise each *closed* mask ``B`` (an intersection of relevant share
  masks) that contains some decisive subspace of the seed group spawns a
  child group ``(G' ∪ {o : share(o) ⊇ B}, B)`` (Example 7's ``P3 P5``).

A closed mask that contains no decisive subspace of the seed group is
discarded.  This covers a seed outside ``G'`` that coincides with the group
on all of ``B``: no dimension of ``B`` beats it, so no seed-side transversal
fits inside ``B``, and the same child is generated from that seed's larger
parent instead, keeping the output duplicate-free.

No group's decisive subspaces are solved from scratch (docs/THEORY.md §9).
The seed group's ``decisive`` are the minimal transversals ``Tr(F)`` of its
outside-seed clauses ``B' ∩ dom[rep, u]``; a child on ``B ⊂ B'`` keeps those
lying inside ``B``, which are exactly ``Tr`` of the clauses cut to ``B``.
Each relevant outside non-seed ``o`` then adds the clause ``B − share(o)``
(the generalisation of Theorem 4 to the full dataset; see
:mod:`repro.core.validate` for the proof sketch and the definitional
cross-check), and one Berge step per added clause turns ``Tr(F)`` into
``Tr(F ∪ G)``.  The dominance rows of the seeds are not read again.

The work follows the ties, not the dataset size (docs/THEORY.md §9):

* only the non-seeds tying some representative reach the equality join
  (:func:`_may_tie`), and the non-seed ids never leave numpy;
* a seed group no relevant non-seed reaches is emitted as it stands, with
  no closure and no Berge step;
* when every seed-side decisive subspace already hits every non-seed
  clause, the Berge steps are skipped, as they would change nothing;
* projections are read from one gather of the representatives' rows.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracing import tick
from .bitset import closed_masks, iter_bits
from .dominance import PairwiseMatrices, bit_weights, pack_rows, tie_pairs
from .hitting import minimal_hitting_sets
from .seeds import SeedGroup
from .types import Dataset, SkylineGroup

__all__ = ["extend_with_nonseeds", "share_and_beat_masks", "closed_masks"]


def share_and_beat_masks(
    nonseed_matrix: np.ndarray,
    rep_values: np.ndarray,
    subspace: int,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``share``/``beat`` masks of every non-seed vs one group."""
    share = pack_rows(nonseed_matrix == rep_values, weights) & subspace
    beat = pack_rows(nonseed_matrix < rep_values, weights) & subspace
    return share, beat


#: Hash multiplier (2^64 / golden ratio) and table width of :func:`_may_tie`.
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_BITS = 16


def _may_tie(reps: np.ndarray, matrix: np.ndarray, on_dims: np.ndarray) -> np.ndarray:
    """Rows of ``matrix`` that may equal some rep on one of its dimensions.

    A hashed semi-join, one column at a time: each rep's value on a
    dimension of ``on_dims`` marks its bucket in a ``2^_HASH_BITS``-entry table,
    and a row is kept when one of its values lands in a marked bucket.
    Every row that ties a rep is kept; a row kept by a bucket collision
    alone costs only a place in the exact join.  Values hash by their
    float64 bits after ``+ 0.0``, which maps ``-0.0`` onto ``0.0``.
    """
    shift = np.uint64(64 - _HASH_BITS)

    def buckets(column: np.ndarray) -> np.ndarray:
        return ((column + 0.0).view(np.uint64) * _HASH_MULTIPLIER) >> shift

    keep = np.zeros(matrix.shape[0], dtype=bool)
    for k in range(matrix.shape[1]):
        table = np.zeros(1 << _HASH_BITS, dtype=bool)
        table[buckets(reps[on_dims[:, k], k])] = True
        keep |= table[buckets(matrix[:, k])]
    return keep


def _share_maps_block(
    reps: np.ndarray,
    subspaces: np.ndarray,
    ns_matrix: np.ndarray,
    ns_ids: np.ndarray,
    weights: np.ndarray,
) -> list[dict[int, int]]:
    """Share masks of the *relevant* non-seeds for every seed group.

    A relevant non-seed has ``share ≠ ∅``: it equals the representative on
    at least one dimension of the group's subspace.  So the candidates come
    from the equality join :func:`~repro.core.dominance.tie_pairs` over
    the non-seed columns, restricted to each group's subspace.  Exact
    share/beat masks are computed only on those (group, non-seed) pairs,
    one memory-bounded block of groups at a time.  On tie-free data the
    pairs are few; on tie-heavy data the cost approaches the dense
    ``groups × non-seeds`` comparison.

    Before the join sorts the columns, :func:`_may_tie` drops the
    non-seeds that tie no representative on any of its dimensions, so the
    sorts cover the tied rows, not all of them.

    Per-group dict keys come out in ascending ``ns_ids`` order.
    """
    n_groups = reps.shape[0]
    share_maps: list[dict[int, int]] = [dict() for _ in range(n_groups)]
    m, d = ns_matrix.shape
    if m == 0 or n_groups == 0:
        return share_maps
    on_dims = np.column_stack([((subspaces >> k) & 1).astype(bool) for k in range(d)])
    rows = np.flatnonzero(_may_tie(reps, ns_matrix, on_dims))
    ns_matrix, ns_ids = ns_matrix[rows], ns_ids[rows]
    for _, _, g, j in tie_pairs(reps, ns_matrix, on_dims):
        if g.size == 0:
            continue
        candidates, values, spaces = ns_matrix[j], reps[g], subspaces[g]
        share = pack_rows(candidates == values, weights) & spaces
        beat = pack_rows(candidates < values, weights) & spaces
        relevant = (share != 0) & (beat == 0)
        g = g[relevant]
        if g.size == 0:
            continue
        ids = ns_ids[j[relevant]].tolist()
        masks = share[relevant].tolist()
        # The pairs are sorted, so each group's pairs are one run in
        # ascending non-seed order.
        edges = [0, *(np.flatnonzero(np.diff(g)) + 1).tolist(), len(ids)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            share_maps[int(g[lo])] = dict(zip(ids[lo:hi], masks[lo:hi]))
    return share_maps


def extend_with_nonseeds(
    dataset: Dataset,
    matrices: PairwiseMatrices,
    seed_groups: list[SeedGroup],
) -> list[SkylineGroup]:
    """Fold the non-seed objects into the seed lattice (Theorem 5).

    Every group's decisive subspaces grow from its seed group's
    ``decisive`` by Berge steps over the non-seed clauses; ``matrices`` is
    read only for the seed indices, never for a dominance row.  A seed
    group no relevant non-seed reaches is emitted as it stands, and a
    clause family every seed-side decisive subspace already hits costs no
    Berge step (docs/THEORY.md §9).

    Returns the complete set of skyline groups of the dataset, with members
    as global indices and projections in raw (user-facing) values.
    """
    if not seed_groups:
        return []
    minimized = dataset.minimized
    is_seed = np.zeros(dataset.n_objects, dtype=bool)
    is_seed[np.array(matrices.indices, dtype=np.int64)] = True
    ns_ids = np.flatnonzero(~is_seed)
    rep_globals = [matrices.indices[sg.representative] for sg in seed_groups]
    weights = bit_weights(dataset.n_dims)
    subspaces = np.array(
        [sg.subspace for sg in seed_groups],
        dtype=object if weights.dtype == object else np.int64,
    )
    share_maps = _share_maps_block(
        minimized[rep_globals],
        subspaces,
        np.take(minimized, ns_ids, axis=0),
        ns_ids,
        weights,
    )
    # Projections come from one gather of the representatives' raw rows.
    rep_rows = dataset.values[rep_globals].tolist()
    dims_of: dict[int, tuple[int, ...]] = {}

    def group(row, members, subspace, decisive) -> SkylineGroup:
        dims = dims_of.get(subspace)
        if dims is None:
            dims = dims_of[subspace] = tuple(iter_bits(subspace))
        return SkylineGroup(
            members=frozenset(members),
            subspace=subspace,
            decisive=decisive,
            projection=tuple([row[d] for d in dims]),
        )

    results: dict[tuple[tuple[int, ...], int], SkylineGroup] = {}
    for seed_group, row, shares in zip(seed_groups, rep_rows, share_maps):
        tick()
        subspace, members = seed_group.subspace, seed_group.members
        if not shares:
            # No relevant non-seed reaches the group: it stands unchanged.
            results.setdefault(
                (members, subspace),
                group(row, members, subspace, seed_group.decisive),
            )
            continue

        # --- the seed group itself, possibly extended in place ----------
        full_joiners = [o for o, m in shares.items() if m == subspace]
        key = (tuple(sorted(members + tuple(full_joiners))), subspace)
        decisive = _extend_decisive(
            seed_group.decisive,
            [subspace & ~m for m in shares.values() if m != subspace],
        )
        results.setdefault(key, group(row, key[0], subspace, decisive))

        # --- child groups at the closed share masks ---------------------
        for child_space in closed_masks(shares.values()):
            if child_space == subspace:
                continue
            inside = [c for c in seed_group.decisive if c & child_space == c]
            if not inside:
                # No decisive subspace survives inside the child: some
                # outside seed is unbeaten there, so the projection is not
                # exclusively skyline anywhere below (Theorem 5 condition).
                # This includes a seed coinciding with the group on all of
                # the child, which generates the child from its own parent.
                continue
            joiners = [o for o, m in shares.items() if m & child_space == child_space]
            key = (tuple(sorted(members + tuple(joiners))), child_space)
            decisive = _extend_decisive(
                inside,
                [
                    child_space & ~m
                    for m in shares.values()
                    if m & child_space != child_space
                ],
            )
            results.setdefault(key, group(row, key[0], child_space, decisive))

    return [results[key] for key in sorted(results, key=lambda k: (len(k[0]), k))]


def _extend_decisive(
    seed_decisive: list[int] | tuple[int, ...], clauses: list[int]
) -> list[int] | tuple[int, ...]:
    """The group's decisive subspaces: ``Tr`` of its seed and non-seed clauses.

    ``seed_decisive`` are the minimal transversals of the outside seeds'
    clauses on the group's subspace; one Berge step per non-seed clause
    ``subspace − share(o)`` extends them.  When every one of them already
    hits every non-seed clause, the transversals are unchanged and the
    Berge step is skipped (docs/THEORY.md §9).
    """
    if all(t & c for c in clauses for t in seed_decisive):
        return seed_decisive
    return minimal_hitting_sets(clauses, start=seed_decisive)
