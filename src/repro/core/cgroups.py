"""Maximal c-group enumeration over the seeds (Figure 6 of the paper).

A *maximal c-group* ``(G, B)`` over the seed set is a group of seeds sharing
the same projection on ``B`` such that no other seed shares it and the
members share no further dimension.  These are exactly the closed sets of
the "coincides-on" Galois connection.  The paper enumerates them with a
set-enumeration tree over objects; this module enumerates them per root
from the root's agree sets instead, the formulation of Nedjar et al.'s
skyline concept lattices ("ensembles en accord", arXiv 1010.4850): the
agree set of two objects is the set of dimensions they coincide on, here
the coincidence cell ``co[u, o]``.

Fix a root seed ``u`` and a maximal c-group ``(G, B)`` with ``u = min(G)``:

* since ``u ∈ G``, the members share a value on a dimension exactly when
  each of them equals ``u`` there, so ``B`` is the intersection of
  ``co[u, o]`` over ``o ∈ G - {u}`` -- or the full space when ``G`` holds
  only ``u`` and its duplicates;
* ``G`` is every seed whose agree set with ``u`` covers ``B``
  (``co[u, o] ⊇ B``), because no seed outside ``G`` shares the projection.

So the subspaces root ``u`` can produce are the intersection closure of the
distinct non-zero masks ``co[u, o]`` for ``o > u``, plus the full space: at
most ``2^d`` masks per root, however many seeds there are.  Each closed
mask ``B`` determines its group ``{o : co[u, o] ⊇ B}``, and the group is
emitted from root ``u`` only when no seed before ``u`` covers ``B`` -- that
seed would be the group's smallest member (the prune of Figure 6's line
32).  Every maximal c-group therefore comes out exactly once, from the root
that is its smallest member, and no duplicate suppression table is needed.

A root with no later cell has only the full space as a candidate: it
emits ``((u,), full)`` unless an earlier seed is its exact duplicate
(``co[u, o] = full``), read off per-block counts with no per-root numpy
call (docs/THEORY.md §9).

Only the non-zero cells ``co[u, o]`` take part, so the search reads them
from an equality join over the seeds' sorted columns
(:meth:`~repro.core.dominance.PairwiseMatrices.coincidences`), the way FD
mining builds agree sets from stripped partitions; a zero cell is never
touched.  The phase counts one comparison per ordered pair ``u ≠ o`` with
a non-zero cell, not the ``k²`` cells of a row per root.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracing import tick
from .bitset import closed_masks
from .dominance import PairwiseMatrices

__all__ = ["enumerate_maximal_cgroups"]


def enumerate_maximal_cgroups(
    matrices: PairwiseMatrices,
) -> list[tuple[tuple[int, ...], int]]:
    """Enumerate all maximal c-groups over the seed set.

    Parameters
    ----------
    matrices:
        Pairwise matrices over the seeds; their non-zero coincidence cells
        drive the search.

    Returns
    -------
    List of ``(members, subspace)`` pairs where ``members`` are *local* seed
    positions (sorted tuples) and ``subspace`` is a dimension bitmask.
    Singleton groups carry the full space as their maximal subspace.  The
    list is ordered by smallest member, then by decreasing subspace
    bitmask, so a root's full-space group (if it has one) comes first.
    """
    full = matrices.full_space
    if full == 0 or len(matrices) == 0:
        return []
    out: list[tuple[tuple[int, ...], int]] = []
    for start, stop, roots, others, cells in matrices.coincidences():
        # Each root's cells are one run sorted by the other seed: the
        # earlier seeds' cells, then the later seeds'.
        n_roots = stop - start
        counts = np.bincount(roots - start, minlength=n_roots)
        before = others < roots
        earlier = np.bincount(roots[before] - start, minlength=n_roots)
        # Earlier seeds coinciding with the root everywhere: its duplicates.
        twins = np.bincount(roots[before & (cells == full)] - start, minlength=n_roots)
        ends = np.cumsum(counts)
        splits = ends - counts + earlier
        lo = 0
        for u, split, hi, twin in zip(
            range(start, stop), splits.tolist(), ends.tolist(), twins.tolist()
        ):
            tick()
            if split == hi:
                # No later seed ties u, so the full space is its only
                # candidate, with u alone; an earlier duplicate emits it.
                if not twin:
                    out.append(((u,), full))
                lo = hi
                continue
            cell_run, n_earlier = cells[lo:hi], split - lo
            later_seeds = others[split:hi]
            lo = hi
            subspaces = closed_masks(cell_run[n_earlier:].tolist())
            subspaces.add(full)
            # One row per candidate B: which of u's cells cover it.
            masks = np.array(sorted(subspaces, reverse=True), dtype=cells.dtype)
            covers = (cell_run & masks[:, None]) == masks[:, None]
            # An earlier seed coinciding with u on all of B is the group's
            # smallest member: the group is emitted from that root instead.
            kept = ~covers[:, :n_earlier].any(axis=1)
            for subspace, row in zip(masks[kept].tolist(), covers[kept, n_earlier:]):
                out.append(((u, *later_seeds[row].tolist()), subspace))
    return out
