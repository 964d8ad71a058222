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

A closed mask is discarded when some seed outside ``G'`` also coincides
with the group on all of ``B``: the same child is then generated from the
larger seed parent, keeping the output duplicate-free.

Decisive subspaces of every surviving group are recomputed as minimal
hitting sets over *both* clause families: ``B ∩ dom[rep, u]`` for outside
seeds ``u`` and ``B − share(o)`` for relevant outside non-seeds ``o`` (the
generalisation of Theorem 4 to the full dataset; see
:mod:`repro.core.validate` for the proof sketch and the definitional
cross-check).
"""

from __future__ import annotations

import numpy as np

from ..obs.progress import ProgressTask, tick
from ..parallel import chunk_ranges, get_shared, map_shards, resolve_parallel
from .bitset import closed_masks, distinct_masks, is_subset
from .dominance import PairwiseMatrices
from .hitting import minimal_hitting_sets
from .seeds import SeedGroup, singleton_decisive
from .types import Dataset, SkylineGroup

__all__ = ["extend_with_nonseeds", "share_and_beat_masks", "closed_masks"]

#: ``auto`` engages the pool only above this many non-seed rows, the unit
#: the share-map equality join's cost grows with (~0.8 µs a row; on 2 vCPU a
#: process pool did not beat the serial join even at 500,000 rows).
_PARALLEL_FLOOR = 1 << 20
#: Most candidate (group, non-seed) pairs one block of the share-map join
#: materialises; bounds its pairwise temporaries.
_PAIR_BUDGET = 1 << 18


def share_and_beat_masks(
    nonseed_matrix: np.ndarray,
    rep_values: np.ndarray,
    subspace: int,
    pow2: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised ``share``/``beat`` masks of every non-seed vs one group."""
    if nonseed_matrix.shape[0] == 0:
        empty = np.zeros(0, dtype=pow2.dtype)
        return empty, empty
    share = ((nonseed_matrix == rep_values).astype(pow2.dtype) @ pow2) & subspace
    beat = ((nonseed_matrix < rep_values).astype(pow2.dtype) @ pow2) & subspace
    return share, beat


def _share_maps_block(
    reps: np.ndarray,
    subspaces: np.ndarray,
    ns_matrix: np.ndarray,
    ns_ids: np.ndarray,
    pow2: np.ndarray,
) -> list[dict[int, int]]:
    """Share masks of the *relevant* non-seeds for every seed group.

    A relevant non-seed has ``share ≠ ∅``: it equals the representative on
    at least one dimension of the group's subspace.  So the candidates come
    from an equality join: each non-seed column is sorted once, and
    ``searchsorted`` finds every representative's tie run on the dimensions
    of its subspace.  Exact share/beat masks are computed only on the
    union of those (group, non-seed) pairs, in group blocks of at most
    :data:`_PAIR_BUDGET` candidate pairs.  On tie-free data the pairs are
    few; on tie-heavy data the cost approaches the dense ``groups ×
    non-seeds`` comparison, with memory still bounded per block.

    ``ns_matrix``/``ns_ids`` may be any contiguous slice of the non-seeds
    (the parallel path shards along that axis); per-group dict keys come
    out in ascending ``ns_ids`` order either way.
    """
    n_groups = reps.shape[0]
    share_maps: list[dict[int, int]] = [dict() for _ in range(n_groups)]
    m, d = ns_matrix.shape
    if m == 0 or n_groups == 0:
        return share_maps
    # Per dimension: the sorted order of the column, and each group's tie
    # run in it (its start and length; length 0 off the group's subspace).
    orders, run_starts, run_lens = [], [], []
    for k in range(d):
        order = np.argsort(ns_matrix[:, k])
        column = ns_matrix[order, k]
        lo = np.searchsorted(column, reps[:, k], side="left")
        hi = np.searchsorted(column, reps[:, k], side="right")
        on_subspace = ((subspaces >> k) & 1).astype(bool)
        orders.append(order)
        run_starts.append(lo)
        run_lens.append(np.where(on_subspace, hi - lo, 0))
    pair_ends = np.cumsum(np.sum(run_lens, axis=0))
    start = 0
    while start < n_groups:
        spent = int(pair_ends[start - 1]) if start else 0
        stop = max(
            start + 1,
            int(np.searchsorted(pair_ends, spent + _PAIR_BUDGET, side="right")),
        )
        groups, rows = [], []
        for k in range(d):
            lens = run_lens[k][start:stop]
            total = int(lens.sum())
            if total == 0:
                continue
            offsets = np.arange(total) + np.repeat(
                run_starts[k][start:stop] - (np.cumsum(lens) - lens), lens
            )
            groups.append(np.repeat(np.arange(start, stop), lens))
            rows.append(orders[k][offsets])
        start = stop
        if not groups:
            continue
        pairs = np.unique(np.concatenate(groups) * m + np.concatenate(rows))
        g, j = np.divmod(pairs, m)
        candidates, values, spaces = ns_matrix[j], reps[g], subspaces[g]
        share = ((candidates == values).astype(pow2.dtype) @ pow2) & spaces
        beat = ((candidates < values).astype(pow2.dtype) @ pow2) & spaces
        relevant = (share != 0) & (beat == 0)
        g = g[relevant]
        if g.size == 0:
            continue
        ids = ns_ids[j[relevant]].tolist()
        masks = share[relevant].tolist()
        # ``pairs`` is sorted, so each group's pairs are one run in
        # ascending non-seed order.
        edges = [0, *(np.flatnonzero(np.diff(g)) + 1).tolist(), len(ids)]
        for lo, hi in zip(edges[:-1], edges[1:]):
            share_maps[int(g[lo])] = dict(zip(ids[lo:hi], masks[lo:hi]))
    return share_maps


def _share_map_shard(bounds: tuple[int, int]) -> list[dict[int, int]]:
    """Shard worker: share maps restricted to one non-seed row range."""
    reps, subspaces, ns_matrix, ns_ids, pow2 = get_shared()
    start, stop = bounds
    return _share_maps_block(
        reps, subspaces, ns_matrix[start:stop], ns_ids[start:stop], pow2
    )


def _batched_share_maps(
    minimized: np.ndarray,
    nonseeds: list[int],
    ns_matrix: np.ndarray,
    seed_groups: list[SeedGroup],
    rep_globals: list[int],
    pow2: np.ndarray,
    parallel: object,
) -> list[dict[int, int]]:
    """Share maps for every seed group, sharding non-seeds across workers.

    Non-seed objects are folded in independently (Theorem 5), so the rows
    of the share/beat broadcast split freely: each worker classifies one
    contiguous slice of the non-seeds against *all* groups and the partial
    per-group dicts merge by union.  Shards are ascending disjoint ranges
    merged in shard order, so every per-group dict has exactly the serial
    key order and the downstream decisive-subspace bindings are
    deterministic.
    """
    n_groups = len(seed_groups)
    if n_groups == 0:
        return []
    m = ns_matrix.shape[0]
    reps = minimized[rep_globals, :]
    subspaces = np.array(
        [sg.subspace for sg in seed_groups],
        dtype=pow2.dtype if pow2.dtype != object else object,
    )
    ns_ids = np.asarray(nonseeds, dtype=np.int64)
    config = resolve_parallel(parallel)
    workers = config.plan(m, floor=_PARALLEL_FLOOR)
    if workers <= 1 or m < 2 * workers:
        return _share_maps_block(reps, subspaces, ns_matrix, ns_ids, pow2)
    ranges = chunk_ranges(m, workers)
    with ProgressTask("nonseed_extension.share_maps", total=m):
        shards = map_shards(
            "extension.share_maps",
            _share_map_shard,
            ranges,
            config=config,
            workers=workers,
            shared=(reps, subspaces, ns_matrix, ns_ids, pow2),
            progress=lambda i, _r: tick(ranges[i][1] - ranges[i][0]),
        )
    share_maps = shards[0]
    for partial in shards[1:]:
        for gi in range(n_groups):
            if partial[gi]:
                share_maps[gi].update(partial[gi])
    return share_maps


def extend_with_nonseeds(
    dataset: Dataset,
    matrices: PairwiseMatrices,
    seed_groups: list[SeedGroup],
    parallel: object = None,
) -> list[SkylineGroup]:
    """Fold the non-seed objects into the seed lattice (Theorem 5).

    Returns the complete set of skyline groups of the dataset, with members
    as global indices and projections in raw (user-facing) values.
    ``parallel`` is a parallel-execution spec; ``None`` defers to the
    process default.
    """
    minimized = dataset.minimized
    seed_set = set(matrices.indices)
    nonseeds = [i for i in range(dataset.n_objects) if i not in seed_set]
    ns_matrix = minimized[nonseeds, :] if nonseeds else minimized[:0, :]
    n_dims = dataset.n_dims
    if n_dims <= 62:
        pow2 = (1 << np.arange(n_dims, dtype=np.int64)).astype(np.int64)
    else:
        pow2 = np.array([1 << d for d in range(n_dims)], dtype=object)

    results: dict[tuple[tuple[int, ...], int], SkylineGroup] = {}
    k = len(matrices)
    rep_globals = [
        matrices.indices[sg.representative] for sg in seed_groups
    ]
    share_maps = _batched_share_maps(
        minimized, nonseeds, ns_matrix, seed_groups, rep_globals, pow2, parallel
    )

    for seed_group, rep_global, shares in zip(
        seed_groups, rep_globals, share_maps
    ):
        tick()
        rep_local = seed_group.representative
        subspace = seed_group.subspace

        outside = np.ones(k, dtype=bool)
        outside[list(seed_group.local_members)] = False
        clause_arr = matrices.dom_row_array(rep_local)[outside] & subspace
        seed_clause_base = distinct_masks(clause_arr)

        # --- the seed group itself, possibly extended in place ----------
        full_joiners = [o for o, m in shares.items() if m == subspace]
        group = _build_group(
            dataset,
            rep_global,
            members=sorted(set(seed_group.members) | set(full_joiners)),
            subspace=subspace,
            seed_clauses=seed_clause_base,
            outside_shares=[m for m in shares.values() if m != subspace],
        )
        results.setdefault(group.key, group)

        # --- child groups at the closed share masks ---------------------
        if not shares:
            continue
        eq_outside = matrices.eq_row_array(rep_local)[outside]
        for child_space in closed_masks(list(shares.values())):
            if child_space == subspace:
                continue
            if not any(is_subset(c, child_space) for c in seed_group.decisive):
                # No decisive subspace survives inside the child: some
                # outside seed is unbeaten there, so the projection is not
                # exclusively skyline anywhere below (Theorem 5 condition).
                continue
            if bool(((eq_outside & child_space) == child_space).any()):
                # Another seed coincides on the whole child subspace: this
                # child is generated from that larger seed parent instead.
                continue
            joiners = [o for o, m in shares.items() if (m & child_space) == child_space]
            child = _build_group(
                dataset,
                rep_global,
                members=sorted(set(seed_group.members) | set(joiners)),
                subspace=child_space,
                seed_clauses=[c & child_space for c in seed_clause_base],
                outside_shares=[
                    m & child_space
                    for o, m in shares.items()
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
    seed_clauses: list[int],
    outside_shares: list[int],
) -> SkylineGroup:
    """Assemble one skyline group, recomputing its decisive subspaces."""
    clauses = set(seed_clauses)
    for share in outside_shares:
        clauses.add(subspace & ~share)
    if clauses:
        decisive = tuple(minimal_hitting_sets(clauses))
    else:
        decisive = singleton_decisive(subspace)
    return SkylineGroup(
        members=frozenset(members),
        subspace=subspace,
        decisive=decisive,
        projection=dataset.projection(rep_global, subspace),
    )
