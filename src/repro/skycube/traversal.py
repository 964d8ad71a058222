"""The depth-first SkyCube traversal: one skyline per non-empty subspace.

The search starts at the full space.  The children of a subspace remove
one of its dimensions with index below the node's removal limit, visited in
increasing dimension order, and a child's own limit is the dimension it
removed.  Along any path dimensions therefore go in decreasing index order,
and every non-empty subspace is visited exactly once.

Every subspace skyline goes through
:func:`~repro.skyline.numpy_skyline.skyline_rows`, the same kernel as
Stellar's full-space skyline: an elimination filter by the rows of
smallest coordinate sum, then a bitset kernel or a sort-first scan of the
survivors.  Two strategies share the traversal:

* **Every object** (Skyey, Pei et al., VLDB 2005): every subspace starts
  from all objects, and the kernel sums the subspace's columns itself.
  ``share_sort_keys`` is accepted and has no effect: deriving a child's
  sums from its parent's would only pick the filter's head, and rounding
  can make a derived sum non-monotone under dominance, so the scan could
  not use it.
* **Parent-candidate pruning** (the top-down idea of the SkyCube paper,
  Yuan et al., VLDB 2005).  For ``C ⊂ B``, ``sky(C) ⊆ sky(B) ∪ T_C``, where
  ``T_C`` is the set of objects whose ``C``-projection coincides with that
  of some member of ``sky(B)``.  Proof sketch: take
  ``o ∈ sky(C) − sky(B)`` and a ``v ∈ sky(B)`` dominating ``o`` in ``B``
  (domination chains end in the skyline).  On ``C``, ``v ≤ o`` throughout;
  a strict dimension would contradict ``o ∈ sky(C)``, so ``v_C = o_C``.
  Every true child-skyline member is therefore a candidate, and every
  dominated candidate is dominated by a child-skyline member, itself a
  candidate: the skyline within the candidates is the child's skyline.
  Under the distinct value condition ``T_C`` adds nothing; value ties add
  exactly the coincidence set.  Coincidence compares values, so ``0.0``
  and ``-0.0`` coincide.

Pruning shrinks each scan but not the number of subspaces: on correlated
data the candidate sets are tiny, on anti-correlated data they approach
the whole dataset.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..core.bitset import bit_list
from ..core.types import Dataset
from ..skyline.numpy_skyline import skyline_rows

__all__ = ["SubspaceSearch", "skycube_shared", "skycube_topdown"]


class SubspaceSearch:
    """One depth-first traversal of the subspace tree of ``minimized``.

    A node's *seed* is what its skyline scan starts from: the candidate
    rows (pruning), or None for every object.
    """

    def __init__(
        self,
        minimized: np.ndarray,
        share_sort_keys: bool = True,
        candidate_pruning: bool = False,
    ):
        self.minimized = minimized
        self.share_sort_keys = share_sort_keys
        self.candidate_pruning = candidate_pruning
        self.full = (1 << minimized.shape[1]) - 1

    def nodes(self) -> Iterator[tuple[int, np.ndarray]]:
        """``(subspace, sorted skyline)`` of every subspace, depth-first."""
        return self._walk(self.full, self.minimized.shape[1], self._root_seed())

    def _root_seed(self) -> np.ndarray | None:
        if self.candidate_pruning:
            return np.arange(self.minimized.shape[0])
        return None

    def _walk(
        self, subspace: int, max_removable: int, seed
    ) -> Iterator[tuple[int, np.ndarray]]:
        skyline = self._skyline(subspace, seed)
        yield subspace, skyline
        for d in range(max_removable):
            child = subspace & ~(1 << d)
            if child == subspace or child == 0:
                continue
            yield from self._walk(child, d, self._child_seed(seed, skyline, child))

    def _skyline(self, subspace: int, seed) -> np.ndarray:
        cols = bit_list(subspace)
        if seed is None:
            return skyline_rows(self.minimized[:, cols])
        return seed[skyline_rows(self.minimized[np.ix_(seed, cols)])]

    def _child_seed(self, seed, skyline, child: int):
        if seed is not None:
            # Adding 0.0 turns -0.0 into 0.0, so the byte-level row
            # comparison below compares values.
            block = self.minimized[:, bit_list(child)] + 0.0
            member_rows = _rows_as_void(block[skyline])
            return np.flatnonzero(np.isin(_rows_as_void(block), member_rows))
        return None


def _rows_as_void(matrix: np.ndarray) -> np.ndarray:
    """View each row as one opaque comparable scalar (for set membership)."""
    contiguous = np.ascontiguousarray(matrix)
    return contiguous.view(
        np.dtype((np.void, contiguous.dtype.itemsize * contiguous.shape[1]))
    ).reshape(-1)


def _skycube(dataset: Dataset, candidate_pruning: bool) -> dict[int, list[int]]:
    minimized = dataset.minimized
    if minimized.shape[0] == 0 or minimized.shape[1] == 0:
        return {}
    search = SubspaceSearch(minimized, candidate_pruning=candidate_pruning)
    return {subspace: skyline.tolist() for subspace, skyline in search.nodes()}


def skycube_shared(dataset: Dataset) -> dict[int, list[int]]:
    """Skyline of every non-empty subspace, each scanning every object."""
    return _skycube(dataset, candidate_pruning=False)


def skycube_topdown(dataset: Dataset) -> dict[int, list[int]]:
    """Skyline of every non-empty subspace via parent-candidate pruning."""
    return _skycube(dataset, candidate_pruning=True)
