"""Vectorised skyline used at benchmark scale: an elimination filter, then
one of two kernels, picked by how many rows the filter leaves.

**The filter.**  :func:`skyline_rows` takes the :data:`FILTER_HEAD` rows
with the smallest coordinate sum (an ``argpartition``, not a sort) and
computes their own skyline, the *filter points*.  A vectorised pass then
drops every row that a filter point dominates.  It tests the points in
rounds of a few, smallest sum first, and each round tests only the rows
the previous rounds left, so on independent data the first round removes
~97% of the rows and the rest cost little.  Small sums are strong
dominators: on independent and correlated data the filter leaves a few
hundred rows of tens of thousands.  On anti-correlated data it removes
almost nothing, so once the rows left fit the bitset kernel, a round that
removes fewer than 1/:data:`FILTER_MIN_GAIN` of the rows it tested ends
the pass -- a property of the input, observed as the pass runs.  While
more rows are left than that, every round runs: the scan they would meet
tests each row against a whole window, far more work than a round.

**Soundness.**  A removed row is dominated by a filter point, so it is not
a skyline row: every skyline row survives.  Dominance is a strict partial
order, so every dominated survivor has a dominator in the skyline, and
that dominator survived too.  The survivors' skyline is therefore the
skyline of the whole input.

**The kernels**, chosen by the *survivor* count.  Up to
:data:`BITSET_MAX_ROWS` survivors the skyline is computed with
:func:`skyline_bitset`, which replaces the per-candidate scan with
``s^2/64`` packed word operations.  Above it the survivors are sorted by
the coordinate sum and scanned with :func:`chunked_sorted_skyline`: SFS
(one filtered scan in a monotone order), organised in *chunks* with no
Python loop over candidates.  Each chunk is first filtered against the
accepted-skyline window, then the window survivors are tested against
each other in one vectorised ``c x c`` comparison.  The filter pass and
the scan build dominance one dimension at a time from 2-D
``(candidates, others)`` comparisons, so no ``(c, w, d)`` temporary is
ever materialised.

Scan correctness: every dominated row has a dominator in the skyline, and
under a monotone sort key that dominator comes *earlier* in the order.  It
therefore sits either in the window or among the current chunk's window
survivors.  A survivor is thus a skyline row iff no other survivor
dominates it, whatever the order inside the chunk.  The survivors are
sorted by SFS's :func:`~repro.skyline.sfs.monotone_order` (the sum, ties
broken lexicographically), not by the sum alone: floating-point rounding
can give a row and its dominator the same sum (``1.0 + 2**-60 == 1.0``),
and such a tie run could straddle a chunk boundary with the dominated row
first.  The lexicographic tie-break puts the dominator first.

Comparison accounting (:data:`COMPARISONS`): the filter is charged
``H^2`` for the head's self-test whenever the input has more than ``H``
rows, plus one test per (row, filter point) pair its rounds compare.  The
kernel then adds its own charge on the ``s`` survivors:
:func:`skyline_bitset` ``s^2``; :func:`chunked_sorted_skyline` one test
per (candidate, window row) pair actually compared and ``c^2`` for the
``c x c`` test among ``c`` window survivors (diagonal included).

On correlated inputs (tiny skylines) the filter leaves a few rows and the
whole computation is near-linear; on anti-correlated inputs (huge
skylines) the filter removes little and the scan degrades towards
quadratic like every window algorithm -- exactly the cost profile the
discussion of the paper's Figure 11(c) relies on.  The skyline of a
dataset is unique, so every path returns the same indices; only the
:data:`COMPARISONS` accounting differs.

Measurements in the comments below: 2 vCPU, numpy 2.4, best of 3-5 runs,
inputs from ``make_dataset(..., seed=20070415)``.
"""

from __future__ import annotations

import numpy as np

from ..core.dominance import COMPARISONS
from .base import subspace_columns
from .sfs import monotone_order

__all__ = [
    "BITSET_MAX_ROWS",
    "FILTER_HEAD",
    "FILTER_MIN_GAIN",
    "chunked_sorted_skyline",
    "skyline_bitset",
    "skyline_numpy",
    "skyline_rows",
]

#: Candidates filtered per broadcast; keeps the comparison blocks in cache.
_CHUNK = 512
#: Window rows compared per broadcast (bounds temporary memory).
_WINDOW_BLOCK = 4096
#: Rows of smallest coordinate sum whose own skyline forms the filter.
#: Full skyline time with 32 / 64 / 128 (one sweep): independent
#: 50,000 x 4 6.1 / 5.8 / 5.9 ms (623 / 424 / 353 survivors),
#: anti-correlated 6,000 x 4 58 / 39 / 41 ms, independent 50,000 x 6
#: 66 / 46 / 43 ms.
FILTER_HEAD = 64
#: Filter points per round.  Rounds of 4 leave more rows to the kernels
#: (anti-correlated 6,000 x 4: 55 ms against 39 ms), rounds of 16 make
#: the first round, which tests every row, twice as long (independent
#: 50,000 x 4: 10.4 ms against 5.8 ms).
_FILTER_ROUND = 8
#: A round that removes fewer than 1/FILTER_MIN_GAIN of the rows it tested
#: ends the pass, once the rows left fit :data:`BITSET_MAX_ROWS`.  With no
#: stop, anti-correlated 2,000 x 6 (1,910 skyline rows) takes 13.8 ms
#: instead of 10.3 ms, the pass removing 49 rows instead of 24.
FILTER_MIN_GAIN = 8
#: Largest survivor count :func:`skyline_rows` hands to
#: :func:`skyline_bitset`.  The bitsets cost the same on every input of a
#: size, the scan grows with the skyline, and the filter's survivors are
#: mostly skyline rows.  Bitsets vs scan on the survivors: anti-correlated
#: 3,000 x 6 (2,929 survivors) 34 vs 80 ms; anti-correlated 6,000 x 4
#: (3,583) 33 vs 37 ms; independent 100,000 x 6 (4,714) 87 vs 120 ms;
#: anti-correlated 5,000 x 6 (4,853) 93 vs 130 ms; anti-correlated
#: 10,000 x 4 (7,589) 153 vs 111 ms.  The cut sits below that crossover,
#: where the bitsets take 2 MB apiece (0.5 MB at 2,000 survivors).
BITSET_MAX_ROWS = 4_000


def skyline_rows(proj: np.ndarray) -> np.ndarray:
    """Skyline rows of ``proj`` (smaller is better), ascending."""
    rows = _filtered(proj)
    survivors = proj[rows]
    if rows.size <= BITSET_MAX_ROWS:
        return rows[~_bitset_dominated(survivors)]
    order = monotone_order(survivors)
    return np.sort(rows[order[chunked_sorted_skyline(survivors[order])]])


def _filtered(proj: np.ndarray) -> np.ndarray:
    """Rows of ``proj`` that survive the elimination filter, ascending."""
    n = proj.shape[0]
    if n <= FILTER_HEAD:
        return np.arange(n)
    keys = proj.sum(axis=1)
    head = np.argpartition(keys, FILTER_HEAD - 1)[:FILTER_HEAD]
    head_cols = np.ascontiguousarray(proj[head].T)
    COMPARISONS.add(FILTER_HEAD * FILTER_HEAD)
    points = head[~_dominated_by(head_cols, head_cols)]
    filter_cols = np.ascontiguousarray(proj[points[np.argsort(keys[points])]].T)
    columns = np.ascontiguousarray(proj.T)
    alive = np.arange(n)
    for start in range(0, filter_cols.shape[1], _FILTER_ROUND):
        round_cols = filter_cols[:, start : start + _FILTER_ROUND]
        tested = columns if start == 0 else columns[:, alive]
        COMPARISONS.add(alive.size * round_cols.shape[1])
        dominated = _dominated_by(tested, round_cols)
        alive = alive[~dominated]
        too_little = dominated.sum() * FILTER_MIN_GAIN < dominated.size
        if too_little and alive.size <= BITSET_MAX_ROWS:
            break
    return alive


def chunked_sorted_skyline(ordered: np.ndarray, chunk: int = _CHUNK) -> list[int]:
    """Skyline positions of a matrix already sorted by a monotone key.

    Returns positions *into the sorted matrix*, in increasing order.
    """
    n, d = ordered.shape
    # Column-major, so every per-dimension comparison reads contiguous rows.
    columns = np.ascontiguousarray(ordered.T)
    window = np.empty((d, 0), dtype=ordered.dtype)
    accepted: list[int] = []
    for start in range(0, n, chunk):
        block = columns[:, start : start + chunk]
        alive = np.arange(block.shape[1])
        for ws in range(0, window.shape[1], _WINDOW_BLOCK):
            wblock = window[:, ws : ws + _WINDOW_BLOCK]
            COMPARISONS.add(alive.size * wblock.shape[1])
            alive = alive[~_dominated_by(block[:, alive], wblock)]
            if alive.size == 0:
                break
        if alive.size == 0:
            continue
        survivors = block[:, alive]
        COMPARISONS.add(alive.size * alive.size)
        keep = alive[~_dominated_by(survivors, survivors)]
        accepted.extend((start + keep).tolist())
        window = np.hstack([window, block[:, keep]])
    return accepted


def _dominated_by(candidates: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Which candidates some other row dominates; both given column-major.

    ``candidates`` is ``(d, c)`` and ``others`` ``(d, w)``.  Dominance is
    built one dimension at a time from 2-D comparisons, so no
    ``(c, w, d)`` temporary is ever materialised.  Many candidates against
    a few others (the filter's rounds) lie along the comparisons'
    contiguous axis, where numpy runs several times faster per pair
    (50,000 x 4 rows against 8 filter points: 1.7 ms instead of 8.4 ms).
    The scan's shapes keep ``(c, w)``: on independent 50,000 x 4 its
    ``(512, ~200)`` tests took 99 ms that way and 110 ms the other.
    """
    if candidates.shape[1] >= 8 * others.shape[1]:
        axis = 0
        shape = (others.shape[1], candidates.shape[1])
        pairs = [(other[:, None], cand) for cand, other in zip(candidates, others)]
    else:
        axis = 1
        shape = (candidates.shape[1], others.shape[1])
        pairs = [(other, cand[:, None]) for cand, other in zip(candidates, others)]
    no_worse = np.ones(shape, dtype=bool)
    better = np.zeros(shape, dtype=bool)
    for other, cand in pairs:
        no_worse &= other <= cand
        better |= other < cand
    return (no_worse & better).any(axis=axis)


def skyline_bitset(proj: np.ndarray) -> list[int]:
    """Skyline of ``proj`` (smaller-is-better rows) via packed bitsets."""
    return np.flatnonzero(~_bitset_dominated(proj)).tolist()


def _bitset_dominated(proj: np.ndarray) -> np.ndarray:
    """Which rows of ``proj`` another row dominates, via packed bitsets.

    For every dimension ``c`` build, per object ``o``, the packed uint64
    bitset ``LE_c[o]`` of objects whose value on ``c`` is ``<=`` that of
    ``o`` -- one stable argsort plus one prefix-OR along the sorted order
    (tie runs share the prefix through the run's end).  ANDing the per-
    dimension bitsets gives the objects that are no worse than ``o``
    *everywhere*; removing those equal to ``o`` everywhere (the same
    construction over equality runs) leaves exactly ``o``'s dominators.
    ``o`` is a skyline object iff that bitset is empty.

    :data:`COMPARISONS` is charged the full ``n^2`` logical pair tests the
    bitsets encode.  Peak memory is a few ``(n, n/64)`` uint64 arrays,
    2 MB apiece at :data:`BITSET_MAX_ROWS`.
    """
    n = int(proj.shape[0])
    if n == 0:
        return np.zeros(0, dtype=bool)
    words = (n + 63) // 64
    arange = np.arange(n)
    obj_bits = np.zeros((n, words), dtype=np.uint64)
    obj_bits[arange, arange // 64] = np.uint64(1) << (arange % 64).astype(
        np.uint64
    )
    le_all = np.full((n, words), ~np.uint64(0))
    eq_all = np.full((n, words), ~np.uint64(0))
    for c in range(proj.shape[1]):
        col = proj[:, c]
        order = np.argsort(col, kind="stable")
        svals = col[order]
        prefix = np.bitwise_or.accumulate(obj_bits[order], axis=0)
        # Last/first sorted position of each tie run, mapped per position.
        run_last_pos = np.flatnonzero(np.append(svals[1:] != svals[:-1], True))
        run_id = np.searchsorted(run_last_pos, arange, side="left")
        run_last = run_last_pos[run_id]
        run_first = np.concatenate(([0], run_last_pos[:-1] + 1))[run_id]
        le_sorted = prefix[run_last]
        eq_sorted = le_sorted.copy()
        has_prev = run_first > 0
        eq_sorted[has_prev] &= ~prefix[run_first[has_prev] - 1]
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = arange
        le_all &= le_sorted[inverse]
        eq_all &= eq_sorted[inverse]
    COMPARISONS.add(n * n)
    return (le_all & ~eq_all).any(axis=1)


def skyline_numpy(minimized: np.ndarray, subspace: int | None = None) -> list[int]:
    """Skyline of ``minimized`` in ``subspace`` through :func:`skyline_rows`."""
    return skyline_rows(subspace_columns(minimized, subspace)).tolist()
