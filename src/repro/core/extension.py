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
"""

from __future__ import annotations

import numpy as np

from ..obs.tracing import tick
from .bitset import closed_masks, is_subset
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

    Per-group dict keys come out in ascending ``ns_ids`` order.
    """
    n_groups = reps.shape[0]
    share_maps: list[dict[int, int]] = [dict() for _ in range(n_groups)]
    m, d = ns_matrix.shape
    if m == 0 or n_groups == 0:
        return share_maps
    on_dims = np.column_stack([((subspaces >> k) & 1).astype(bool) for k in range(d)])
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


def _batched_share_maps(
    minimized: np.ndarray,
    nonseeds: list[int],
    ns_matrix: np.ndarray,
    seed_groups: list[SeedGroup],
    rep_globals: list[int],
    weights: np.ndarray,
) -> list[dict[int, int]]:
    """Share maps for every seed group, over all non-seeds at once."""
    if not seed_groups:
        return []
    reps = minimized[rep_globals, :]
    subspaces = np.array(
        [sg.subspace for sg in seed_groups],
        dtype=object if weights.dtype == object else np.int64,
    )
    ns_ids = np.asarray(nonseeds, dtype=np.int64)
    return _share_maps_block(reps, subspaces, ns_matrix, ns_ids, weights)


def extend_with_nonseeds(
    dataset: Dataset,
    matrices: PairwiseMatrices,
    seed_groups: list[SeedGroup],
) -> list[SkylineGroup]:
    """Fold the non-seed objects into the seed lattice (Theorem 5).

    Every group's decisive subspaces grow from its seed group's
    ``decisive`` by Berge steps over the non-seed clauses; ``matrices`` is
    read only for the seed indices, never for a dominance row.

    Returns the complete set of skyline groups of the dataset, with members
    as global indices and projections in raw (user-facing) values.
    """
    minimized = dataset.minimized
    seed_set = set(matrices.indices)
    nonseeds = [i for i in range(dataset.n_objects) if i not in seed_set]
    ns_matrix = minimized[nonseeds, :] if nonseeds else minimized[:0, :]

    results: dict[tuple[tuple[int, ...], int], SkylineGroup] = {}
    rep_globals = [
        matrices.indices[sg.representative] for sg in seed_groups
    ]
    share_maps = _batched_share_maps(
        minimized,
        nonseeds,
        ns_matrix,
        seed_groups,
        rep_globals,
        bit_weights(dataset.n_dims),
    )

    for seed_group, rep_global, shares in zip(
        seed_groups, rep_globals, share_maps
    ):
        tick()
        subspace = seed_group.subspace

        # --- the seed group itself, possibly extended in place ----------
        full_joiners = [o for o, m in shares.items() if m == subspace]
        group = _build_group(
            dataset,
            rep_global,
            members=sorted(set(seed_group.members) | set(full_joiners)),
            subspace=subspace,
            seed_decisive=seed_group.decisive,
            outside_shares=[m for m in shares.values() if m != subspace],
        )
        results.setdefault(group.key, group)

        # --- child groups at the closed share masks ---------------------
        for child_space in closed_masks(shares.values()):
            if child_space == subspace:
                continue
            inside = [c for c in seed_group.decisive if is_subset(c, child_space)]
            if not inside:
                # No decisive subspace survives inside the child: some
                # outside seed is unbeaten there, so the projection is not
                # exclusively skyline anywhere below (Theorem 5 condition).
                # This includes a seed coinciding with the group on all of
                # the child, which generates the child from its own parent.
                continue
            joiners = [o for o, m in shares.items() if (m & child_space) == child_space]
            child = _build_group(
                dataset,
                rep_global,
                members=sorted(set(seed_group.members) | set(joiners)),
                subspace=child_space,
                seed_decisive=inside,
                outside_shares=[
                    m & child_space
                    for m in shares.values()
                    if (m & child_space) != child_space
                ],
            )
            results.setdefault(child.key, child)

    return sorted(
        results.values(),
        key=lambda g: (len(g.members), tuple(sorted(g.members)), g.subspace),
    )


def _build_group(
    dataset: Dataset,
    rep_global: int,
    members: list[int],
    subspace: int,
    seed_decisive: list[int] | tuple[int, ...],
    outside_shares: list[int],
) -> SkylineGroup:
    """Assemble one skyline group from its seed-side decisive subspaces.

    ``seed_decisive`` are the minimal transversals of the outside seeds'
    clauses on ``subspace``; one Berge step per non-seed clause
    ``subspace − share(o)`` extends them to the group's decisive subspaces.
    """
    decisive = minimal_hitting_sets(
        [subspace & ~share for share in outside_shares], start=seed_decisive
    )
    return SkylineGroup(
        members=frozenset(members),
        subspace=subspace,
        decisive=tuple(decisive),
        projection=dataset.projection(rep_global, subspace),
    )
