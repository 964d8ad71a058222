"""Nearest-neighbor skyline (Kossmann, Ramsak, Rost, VLDB 2002).

The NN approach discovers skyline points by repeated nearest-neighbor
queries: the point closest to the origin (here by L1 distance, i.e. the
minimum coordinate sum) is certainly a skyline point; the region it
dominates is discarded, and the remainder is split into one sub-region per
dimension -- ``{p : p_i < nn_i}`` -- each processed recursively.  The
original uses an R-tree for the NN queries and a to-do list of regions;
this in-memory reproduction keeps the recursion explicit over index
subsets, which preserves the discovery order and the region algebra while
dropping the index plumbing.

Two well-known subtleties are handled exactly:

* **Duplicate elimination.**  The sub-regions overlap, so the same skyline
  point is discovered along several paths; results are merged through a
  set.
* **Ties.**  Objects *equal* to the nearest neighbor on every dimension
  belong to no sub-region (no strictly smaller coordinate) yet are skyline
  members; they are collected together with the NN.  Correctness of
  region-local dominance tests is unaffected: any dominator of a point
  ``q`` in region ``i`` satisfies ``r <= q`` coordinatewise, hence
  ``r_i <= q_i < nn_i``, so it lives in the same region.
"""

from __future__ import annotations

import numpy as np

from .base import subspace_columns

__all__ = ["skyline_nn"]


def skyline_nn(minimized: np.ndarray, subspace: int | None = None) -> list[int]:
    """Compute the skyline by recursive nearest-neighbor partitioning."""
    proj = subspace_columns(minimized, subspace)
    n, d = proj.shape
    if n == 0:
        return []
    found: set[int] = set()
    _solve(proj, np.arange(n), found)
    return sorted(found)


def _solve(proj: np.ndarray, region: np.ndarray, found: set[int]) -> None:
    if len(region) == 0:
        return
    block = proj[region]
    sums = block.sum(axis=1)
    # Nearest neighbor to the origin by L1; ties broken lexicographically
    # for determinism.  A minimum-sum point cannot be dominated (a
    # dominator would have a strictly smaller sum).
    best = np.flatnonzero(sums == sums.min())
    nn_pos = best[np.lexsort(tuple(block[best, c] for c in range(proj.shape[1] - 1, -1, -1)))[0]]
    nn_row = block[nn_pos]

    # The NN and its exact duplicates are skyline members.
    duplicates = region[np.all(block == nn_row, axis=1)]
    found.update(int(i) for i in duplicates)

    # One sub-region per dimension: strictly better than the NN there.
    for dim in range(proj.shape[1]):
        child = region[block[:, dim] < nn_row[dim]]
        if len(child):
            _solve(proj, child, found)
