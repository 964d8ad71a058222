"""Dominance and coincidence relations (Section 5.1 of the paper).

For seed objects :math:`o, o'` the paper defines (Definition 4):

* dominance matrix cell ``dom[o, o'] = {D : o.D < o'.D}``
* coincidence matrix cell ``co[o, o'] = {D : o.D = o'.D}``

and notes (Property 1) that the coincidence matrix is redundant:
``co[o, o'] = D - dom[o, o'] - dom[o', o]``.  Neither matrix is stored
here.

Cells are dimension bitmasks (see :mod:`repro.core.bitset`).  A dominance
row is one vectorised numpy comparison per call, which keeps Stellar's
"scan a row of the dominance matrix" step cheap with thousands of seeds.
Rows are not kept: each phase scans the row of one root at a time and
computes it once, so no ``k × k`` matrix is ever held.

The coincidence matrix is almost all zeros on real data, so it is never
read by rows: :func:`tie_pairs` is an equality join that finds the pairs
tying on some dimension from each column's sorted tie runs, and
:meth:`PairwiseMatrices.coincidences` packs only those non-zero cells.

Both matrices are read off per-dimension rank codes, not the values: a
seed's code on a dimension is the number of seeds strictly below it
there.  The codes are exact.  ``a < b`` holds iff fewer seeds lie below
``a`` than below ``b``, and ``a = b`` iff the counts are equal, because the
values of one column are totally ordered: a :class:`~repro.core.types.Dataset`
holds no NaN or infinity, and ``-0.0 == 0.0`` gives both zeros one code.
So every cell is the cell the float comparison gives.  Codes fit the
smallest unsigned dtype holding ``k − 1``, and comparing them costs a
fraction of comparing float64 values.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .bitset import full_mask, sorted_distinct
from .types import Dataset

__all__ = [
    "dominates",
    "strictly_less_mask",
    "equal_mask",
    "bit_weights",
    "pack_rows",
    "tie_pairs",
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


def bit_weights(n_dims: int) -> np.ndarray:
    """Bit weights that :func:`pack_rows` multiplies boolean rows by.

    Up to 24 dimensions they are float32: the product then runs as one BLAS
    matrix-vector call, and it is exact because every mask is an integer
    below ``2^24``.  Up to 62 dimensions they are int64 (numpy's own integer
    loop, no BLAS); beyond that, object dtype so Python big ints take over.
    """
    if n_dims <= 24:
        return (2.0 ** np.arange(n_dims)).astype(np.float32)
    if n_dims <= 62:
        return 1 << np.arange(n_dims, dtype=np.int64)
    return np.array([1 << d for d in range(n_dims)], dtype=object)


def pack_rows(flags: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pack each row of a boolean ``(n, d)`` matrix into a dimension bitmask.

    ``weights`` come from :func:`bit_weights`; the masks are int64, or
    object (Python ints) beyond 62 dimensions.
    """
    packed = flags.astype(weights.dtype) @ weights
    if weights.dtype == np.float32:
        return packed.astype(np.int64)
    return packed


#: Most (rep, row, dimension) ties one block of :func:`tie_pairs`
#: materialises; bounds its pairwise temporaries.
_PAIR_BUDGET = 1 << 18


def tie_pairs(
    reps: np.ndarray, matrix: np.ndarray, on_dims: np.ndarray | None = None
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Equality join: the ``(rep, row)`` pairs that tie on some dimension.

    Each column of ``matrix`` is sorted once, and ``searchsorted`` finds
    every rep's tie run in it, so a pair equal on no dimension is never
    touched.  ``on_dims[g, k]`` False leaves dimension ``k`` out for rep
    ``g`` (default: every dimension counts).

    Yields ``(start, stop, g, j)`` for consecutive blocks of reps
    ``[start, stop)``, every block including those with no pair: ``g`` are
    rep positions and ``j`` row positions of ``matrix``, unique pairs sorted
    by ``(g, j)``.  A block's tie runs sum to at most :data:`_PAIR_BUDGET`,
    or cover a single rep whose runs alone exceed it, so memory stays
    bounded per block however tie-heavy the data is.
    """
    n, d = reps.shape
    m = matrix.shape[0]
    # Per dimension: the sorted order of the column, and each rep's tie
    # run in it (its start and length; length 0 off the rep's dimensions).
    orders, run_starts, run_lens = [], [], []
    for k in range(d):
        order = np.argsort(matrix[:, k])
        column = matrix[order, k]
        lo = np.searchsorted(column, reps[:, k], side="left")
        hi = np.searchsorted(column, reps[:, k], side="right")
        if on_dims is not None:
            hi = np.where(on_dims[:, k], hi, lo)
        orders.append(order)
        run_starts.append(lo)
        run_lens.append(hi - lo)
    pair_ends = np.cumsum(sum(run_lens, np.zeros(n, dtype=np.int64)))
    start = 0
    while start < n:
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
        if groups:
            keys = np.concatenate(groups) * m + np.concatenate(rows)
            g, j = np.divmod(sorted_distinct(keys), m)
        else:
            g = j = np.zeros(0, dtype=np.int64)
        yield start, stop, g, j
        start = stop


def _rank_codes(matrix: np.ndarray) -> np.ndarray:
    """Per-dimension rank codes of ``matrix``'s rows, dimension-major.

    ``codes[k, i]`` is the number of rows strictly below row ``i`` on
    dimension ``k``, in the smallest unsigned dtype holding ``n − 1``.
    Two rows' codes compare as their values do, ``<`` and ``=`` alike
    (module docstring).  Each column is sorted once, and the sorted column
    searched for its own values, so the binary searches walk in order.
    """
    n, d = matrix.shape
    codes = np.empty((d, n), dtype=np.min_scalar_type(max(n - 1, 0)))
    for k in range(d):
        order = np.argsort(matrix[:, k])
        column = matrix[order, k]
        codes[k, order] = np.searchsorted(column, column)
    return codes


class PairwiseMatrices:
    """Lazy dominance/coincidence matrices over a subset of objects.

    Parameters
    ----------
    dataset:
        The full dataset.
    indices:
        Global object indices the matrices range over (the seeds ``F(S)`` in
        Stellar).  Cells are addressed by *local* position within ``indices``.

    The seeds' values are held only as rank codes (:func:`_rank_codes`),
    built once.  A dominance row ``dom[i, *]`` compares them on every
    dimension and packs the flags into ``k`` bitmask integers; rows are not
    cached, callers keep the row they scan.  The coincidence matrix is read
    only through its non-zero cells (:meth:`coincidences`), whose equality
    join runs over the same codes.
    """

    def __init__(self, dataset: Dataset, indices: Sequence[int]):
        self.dataset = dataset
        self.indices: tuple[int, ...] = tuple(int(i) for i in indices)
        self._codes = _rank_codes(dataset.minimized[list(self.indices), :])
        self._full = full_mask(dataset.n_dims)
        self._weights = bit_weights(dataset.n_dims)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def full_space(self) -> int:
        """Mask of the full space the matrices range over."""
        return self._full

    def dom_row_array(self, i: int) -> np.ndarray:
        """Row ``dom[i, *]`` as a packed numpy vector (local index ``i``)."""
        COMPARISONS.add(len(self.indices))
        codes = self._codes
        return pack_rows((codes[:, i, None] < codes).T, self._weights)

    def dom_rows_array(self, rows: np.ndarray) -> np.ndarray:
        """Rows ``dom[i, *]`` for each local index in ``rows``, stacked.

        Packed into the smallest unsigned dtype holding ``d`` bits (up to 64
        dimensions).  The dimensions run from high to low: each one compares
        the block's rank codes with every seed's into one reused bool
        buffer, then doubles the packed array in place and ORs the flags
        in, so a block allocates nothing per dimension.
        """
        COMPARISONS.add(len(rows) * len(self.indices))
        packed = np.zeros(
            (len(rows), len(self.indices)), dtype=np.min_scalar_type(self._full)
        )
        flags = np.empty(packed.shape, dtype=bool)
        # The same bytes as 0/1 integers: OR-ing them in needs no bool cast.
        bits = flags.view(np.uint8)
        block = self._codes[:, rows]
        for k in range(self.dataset.n_dims - 1, -1, -1):
            np.less(block[k, :, None], self._codes[k], out=flags)
            np.add(packed, packed, out=packed)
            np.bitwise_or(packed, bits, out=packed)
        return packed

    def dom_row(self, i: int) -> list[int]:
        """Row ``dom[i, *]`` of the dominance matrix, as Python ints."""
        return [int(x) for x in self.dom_row_array(i)]

    def dom(self, i: int, j: int) -> int:
        """Cell ``dom[i, j]``: dimensions where seed ``i`` beats seed ``j``."""
        return int(self.dom_row_array(i)[j])

    def as_dense(self) -> list[list[int]]:
        """Materialise the dominance matrix (tests and small examples only)."""
        return [self.dom_row(i) for i in range(len(self.indices))]

    def coincidences(
        self,
    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """The non-zero off-diagonal coincidence cells, from :func:`tie_pairs`.

        Yields ``(start, stop, u, o, co)`` for consecutive blocks of roots
        ``[start, stop)``: parallel arrays holding every pair ``u ≠ o`` with
        ``co[u, o] ≠ 0`` and ``start ≤ u < stop``, sorted by ``(u, o)``,
        and the packed cell of each.  A zero cell never appears, and each
        pair counts as one comparison.
        """
        table = self._codes.T
        for start, stop, u, o in tie_pairs(table, table):
            off_diagonal = u != o
            u, o = u[off_diagonal], o[off_diagonal]
            COMPARISONS.add(len(u))
            yield start, stop, u, o, pack_rows(table[u] == table[o], self._weights)
