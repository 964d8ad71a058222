"""Dominance and coincidence relations (Section 5.1 of the paper).

For seed objects :math:`o, o'` the paper defines (Definition 4):

* dominance matrix cell ``dom[o, o'] = {D : o.D < o'.D}``
* coincidence matrix cell ``co[o, o'] = {D : o.D = o'.D}``

and notes (Property 1) that the coincidence matrix is redundant:
``co[o, o'] = D - dom[o, o'] - dom[o', o]``.  Neither matrix is stored
here: a coincidence row is one direct equality comparison, as cheap as the
two dominance rows the derivation would need.

Cells are dimension bitmasks (see :mod:`repro.core.bitset`).  A row is one
vectorised numpy comparison per call, which keeps Stellar's "scan a row of
the dominance matrix" step cheap with thousands of seeds.  Rows are not
kept: each phase scans the row of one root at a time and computes it once,
so no ``k × k`` matrix is ever held.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .bitset import full_mask
from .types import Dataset

__all__ = [
    "dominates",
    "strictly_less_mask",
    "equal_mask",
    "PairwiseMatrices",
    "ComparisonCounter",
    "COMPARISONS",
]


class ComparisonCounter:
    """Running count of pairwise dominance tests performed.

    Comparison counts are the hardware-independent cost metric of the
    skyline literature (every algorithm paper since BNL reports them), so
    the primitives in this module and the skyline implementations feed a
    single process-global instance, :data:`COMPARISONS`.  Vectorised code
    adds the number of *logical* object-pair tests per numpy broadcast, so
    counts are comparable across the pure-Python and vectorised paths.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Record ``n`` pairwise tests."""
        self.value += n

    def reset(self) -> int:
        """Zero the counter; returns the value it had."""
        value = self.value
        self.value = 0
        return value


#: Process-global pairwise-test counter (see :class:`ComparisonCounter`).
COMPARISONS = ComparisonCounter()


def strictly_less_mask(
    minimized: np.ndarray, i: int, j: int, universe: int | None = None
) -> int:
    """Mask of dimensions where object ``i`` is strictly better than ``j``.

    This is the dominance-matrix cell ``dom[i, j]`` restricted to
    ``universe`` (defaults to the full space).
    """
    COMPARISONS.add(1)
    mask = _pack(minimized[i] < minimized[j])
    if universe is not None:
        mask &= universe
    return mask


def equal_mask(
    minimized: np.ndarray, i: int, j: int, universe: int | None = None
) -> int:
    """Mask of dimensions where objects ``i`` and ``j`` coincide (``co[i, j]``)."""
    COMPARISONS.add(1)
    mask = _pack(minimized[i] == minimized[j])
    if universe is not None:
        mask &= universe
    return mask


def dominates(minimized: np.ndarray, i: int, j: int, subspace: int) -> bool:
    """True when object ``i`` dominates object ``j`` in ``subspace``.

    ``i`` dominates ``j`` when ``i`` is no worse on every dimension of the
    subspace and strictly better on at least one (Section 2).
    """
    COMPARISONS.add(1)
    worse = _pack(minimized[i] > minimized[j]) & subspace
    if worse:
        return False
    better = _pack(minimized[i] < minimized[j]) & subspace
    return better != 0


def _pack(flags: np.ndarray) -> int:
    """Pack a boolean vector into a dimension bitmask (bit i = flags[i])."""
    mask = 0
    for d in np.flatnonzero(flags):
        mask |= 1 << int(d)
    return mask


class PairwiseMatrices:
    """Lazy dominance/coincidence matrices over a subset of objects.

    Parameters
    ----------
    dataset:
        The full dataset.
    indices:
        Global object indices the matrices range over (the seeds ``F(S)`` in
        Stellar).  Cells are addressed by *local* position within ``indices``.

    The class vectorises one full matrix row per call: computing
    ``dom[i, *]`` is a single ``(k, d)`` numpy comparison packed into ``k``
    bitmask integers.  Rows are not cached; callers keep the row they scan.
    """

    def __init__(self, dataset: Dataset, indices: Sequence[int]):
        self.dataset = dataset
        self.indices: tuple[int, ...] = tuple(int(i) for i in indices)
        self._sub = dataset.minimized[list(self.indices), :]
        self._n_dims = dataset.n_dims
        self._full = full_mask(self._n_dims)
        # Bit weights for packing comparison outcomes into masks.  Use
        # object dtype beyond 62 dimensions so Python big ints take over.
        if self._n_dims <= 62:
            self._pow2 = (1 << np.arange(self._n_dims, dtype=np.int64)).astype(
                np.int64
            )
        else:
            self._pow2 = np.array(
                [1 << d for d in range(self._n_dims)], dtype=object
            )

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def full_space(self) -> int:
        """Mask of the full space the matrices range over."""
        return self._full

    def dom_row_array(self, i: int) -> np.ndarray:
        """Row ``dom[i, *]`` as a packed numpy vector (local index ``i``)."""
        COMPARISONS.add(len(self.indices))
        return (self._sub[i] < self._sub).astype(self._pow2.dtype) @ self._pow2

    def eq_row_array(self, i: int) -> np.ndarray:
        """Row ``co[i, *]`` as a packed numpy vector (local index ``i``)."""
        COMPARISONS.add(len(self.indices))
        return (self._sub[i] == self._sub).astype(self._pow2.dtype) @ self._pow2

    def dom_row(self, i: int) -> list[int]:
        """Row ``dom[i, *]`` of the dominance matrix, as Python ints."""
        return [int(x) for x in self.dom_row_array(i)]

    def eq_row(self, i: int) -> list[int]:
        """Row ``co[i, *]`` of the coincidence matrix, as Python ints."""
        return [int(x) for x in self.eq_row_array(i)]

    def dom(self, i: int, j: int) -> int:
        """Cell ``dom[i, j]``: dimensions where seed ``i`` beats seed ``j``."""
        return int(self.dom_row_array(i)[j])

    def co(self, i: int, j: int) -> int:
        """Cell ``co[i, j]``: dimensions where seeds ``i`` and ``j`` coincide."""
        return int(self.eq_row_array(i)[j])

    def as_dense(self) -> tuple[list[list[int]], list[list[int]]]:
        """Materialise both matrices (tests and small examples only)."""
        k = len(self.indices)
        return [self.dom_row(i) for i in range(k)], [self.eq_row(i) for i in range(k)]
