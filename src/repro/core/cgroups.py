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

The closure reads the same coincidence rows as Figure 6's tree search, one
:meth:`~repro.core.dominance.PairwiseMatrices.eq_row_array` per root, so the
phase's comparison count is the tree's.
"""

from __future__ import annotations

import numpy as np

from ..core.dominance import PairwiseMatrices
from .bitset import closed_masks, distinct_masks

__all__ = ["enumerate_maximal_cgroups"]


def enumerate_maximal_cgroups(
    matrices: PairwiseMatrices,
) -> list[tuple[tuple[int, ...], int]]:
    """Enumerate all maximal c-groups over the seed set.

    Parameters
    ----------
    matrices:
        Pairwise matrices over the seeds; coincidence rows drive the search.

    Returns
    -------
    List of ``(members, subspace)`` pairs where ``members`` are *local* seed
    positions (sorted tuples) and ``subspace`` is a dimension bitmask.
    Singleton groups carry the full space as their maximal subspace.  The
    list is ordered by smallest member, then by decreasing subspace
    bitmask, so a root's full-space group (if it has one) comes first.
    """
    k = len(matrices)
    full = matrices.full_space
    if full == 0 or k == 0:
        return []
    out: list[tuple[tuple[int, ...], int]] = []
    for u in range(k):
        row = matrices.eq_row_array(u)
        subspaces = closed_masks(distinct_masks(row[u + 1 :]))
        subspaces.add(full)
        for subspace in sorted(subspaces, reverse=True):
            covers = (row & subspace) == subspace
            if covers[:u].any():
                # An earlier seed coincides with u on all of B: the group
                # is emitted from that seed's root instead.
                continue
            out.append((tuple(np.flatnonzero(covers).tolist()), subspace))
    return out
