"""Vectorised skyline used at benchmark scale: two kernels, picked by size.

Up to :data:`BITSET_MAX_ROWS` objects the skyline is computed with
:func:`skyline_bitset`, which replaces the per-candidate scan with
``n^2/64`` packed word operations.  Above it the skyline is computed with
SFS (sort by the monotone coordinate sum, then one filtered scan), with
the scan organised in *chunks* and no Python loop over candidates.  Each
chunk is first filtered against the accepted-skyline window, then the
window survivors are tested against each other in one vectorised
``c x c`` comparison.  Both tests build dominance one dimension at a time
from 2-D ``(candidates, others)`` comparisons, so no ``(c, w, d)``
temporary is ever materialised.

Correctness: dominance is a strict partial order, so every dominated row
has a dominator in the skyline, and under a monotone sort key that
dominator comes *earlier* in the order.  It therefore sits either in the
window or among the current chunk's window survivors.  A survivor is
thus a skyline row iff no other survivor dominates it, whatever the
order inside the chunk.

Comparison accounting: :data:`COMPARISONS` is charged one logical test per
(candidate, window row) pair actually compared, and ``c^2`` for the
``c x c`` test among ``c`` window survivors (diagonal included).

On correlated inputs (tiny skylines) the chunked scan runs in near-linear
time; on anti-correlated inputs (huge skylines) it degrades towards
quadratic like every window algorithm -- exactly the cost profile the
discussion of the paper's Figure 11(c) relies on.  The skyline of a
dataset is unique, so both kernels return the same indices; only the
:data:`COMPARISONS` accounting differs.
"""

from __future__ import annotations

import numpy as np

from ..core.dominance import COMPARISONS
from .base import subspace_columns
from .sfs import monotone_order

__all__ = [
    "BITSET_MAX_ROWS",
    "chunked_sorted_skyline",
    "skyline_bitset",
    "skyline_numpy",
]

#: Candidates filtered per broadcast; keeps the comparison blocks in cache.
_CHUNK = 512
#: Window rows compared per broadcast (bounds temporary memory).
_WINDOW_BLOCK = 4096
#: Largest input :func:`skyline_numpy` hands to :func:`skyline_bitset`.  The
#: bitsets cost the same on every input of a size, the scan grows with the
#: skyline.  At 2,000 rows the bitsets win on large skylines (anti-correlated
#: 2,000 x 6: 10 ms vs 39 ms for the scan; independent: 13 ms vs 17 ms) and
#: lose on small ones (correlated: 13 ms vs 7 ms; NBA-like 2,000 x 17: 29 ms
#: vs 17 ms).  Above it their n^2 cost catches up even on anti-correlated
#: data (5,000 x 6: 110 ms vs 122 ms; 10,000 x 6: 311 ms vs 278 ms) and
#: loses clearly elsewhere (independent 10,000 x 6: 334 ms vs 107 ms;
#: correlated: 344 ms vs 15 ms); at 50,000 x 4 the bitsets take 2.5 GiB.
#: (2 vCPU, numpy 2.4.)
BITSET_MAX_ROWS = 2_000


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
    built one dimension at a time from ``(c, w)`` comparisons, so no
    ``(c, w, d)`` temporary is ever materialised.
    """
    shape = (candidates.shape[1], others.shape[1])
    no_worse = np.ones(shape, dtype=bool)
    better = np.zeros(shape, dtype=bool)
    for cand, other in zip(candidates, others):
        cand = cand[:, None]
        no_worse &= other <= cand
        better |= other < cand
    return (no_worse & better).any(axis=1)


def skyline_bitset(proj: np.ndarray) -> list[int]:
    """Skyline of ``proj`` (smaller-is-better rows) via packed bitsets.

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
    0.5 MB apiece at :data:`BITSET_MAX_ROWS`.
    """
    n = int(proj.shape[0])
    if n == 0:
        return []
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
    dominated = (le_all & ~eq_all).any(axis=1)
    return [int(i) for i in np.flatnonzero(~dominated)]


def skyline_numpy(minimized: np.ndarray, subspace: int | None = None) -> list[int]:
    """Skyline of ``minimized`` in ``subspace``, kernel picked by input size.

    :func:`skyline_bitset` up to :data:`BITSET_MAX_ROWS` rows, the
    chunk-vectorised SFS scan above that.
    """
    proj = subspace_columns(minimized, subspace)
    if proj.shape[0] == 0:
        return []
    if proj.shape[0] <= BITSET_MAX_ROWS:
        return skyline_bitset(proj)
    order = monotone_order(proj)
    positions = chunked_sorted_skyline(proj[order])
    return sorted(int(order[p]) for p in positions)
