"""SUBSKY-style on-the-fly subspace skylines over a sorted key list.

Reference [13] (Tao, Xiao, Pei, ICDE 2006) indexes the dataset *once* so
that the skyline of any subspace can be computed on demand -- the paper's
related-work counterpoint to materialising a cube.  SUBSKY's core idea is
to collapse each point to a one-dimensional sort key stored in a B+-tree
and scan the leaf chain in key order with (a) a sound incremental skyline
filter and (b) an early-termination threshold that stops the scan long
before the chain ends on well-behaved data.  The index is built once and
never updated, so a list sorted by key gives the same scan as the leaf
chain.

This reconstruction uses the single-anchor variant.  Each point is stored
under the composite key ``(min_D(p), sum_D(p), id)`` -- the minimum
coordinate over *all* indexed dimensions, which lower-bounds the minimum
over any queried subspace ``B``: ``min_D(p) <= min_B(p)``.

* **Early termination.**  Maintain ``t = min over accepted candidates of
  max_B(candidate)``.  Any point ``p`` whose stored key satisfies
  ``min_D(p) > t`` obeys ``p_i >= min_B(p) >= min_D(p) > t >= s_i`` on
  every dimension of ``B`` for the witness candidate ``s``, so ``s``
  strictly dominates it.  Stored keys are scanned in ascending order, so
  once a key passes ``t`` the entire remaining leaf chain is dominated and
  the scan stops.  (If the witness was itself pruned later, its pruner has
  a no-larger ``max_B``, so the recorded threshold stays valid.)

* **Exactness despite a non-monotone scan order.**  Within a subspace the
  stored key is *not* dominance-monotone: a dominator can arrive after its
  victim.  The filter therefore maintains a mutually non-dominated
  *candidate* set and prunes it on every acceptance.  Invariant: each
  discarded point is dominated (transitively, hence directly) by some
  current candidate; each candidate is dominated by no scanned point.
  Combined with the termination argument -- every unscanned point is
  strictly dominated by a candidate -- the final candidate set is exactly
  the subspace skyline, for every tie pattern.

On correlated data the scan touches a small prefix of the chain (the
``last_scanned`` attribute exposes the depth); on anti-correlated data the
threshold barely prunes and the query degrades toward a full scan --
consistent with how reference [13] positions the method.
"""

from __future__ import annotations

import numpy as np

from ..core.bitset import bit_list
from ..core.types import Dataset

__all__ = ["SubskyIndex"]


class SubskyIndex:
    """One-time index answering arbitrary subspace skyline queries."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        minimized = dataset.minimized
        self._minimized = minimized
        f = minimized.min(axis=1)
        sums = minimized.sum(axis=1)
        #: ``(min_D, sum_D, id)`` keys in ascending order.
        self._keys = sorted(
            (float(f[i]), float(sums[i]), i) for i in range(dataset.n_objects)
        )
        #: Objects inspected by the most recent query (scan-depth metric).
        self.last_scanned = 0

    def query(self, subspace: int | None = None) -> list[int]:
        """Skyline of ``subspace`` computed on the fly from the index."""
        dataset = self.dataset
        if subspace is None:
            subspace = dataset.full_space
        if subspace == 0:
            raise ValueError("the empty subspace has no skyline")
        if subspace >> dataset.n_dims:
            raise ValueError(
                f"subspace {subspace:#x} references dimensions beyond the "
                f"{dataset.n_dims} available"
            )
        cols = bit_list(subspace)
        minimized = self._minimized
        threshold = np.inf
        d = len(cols)
        capacity = 64
        buffer = np.empty((capacity, d), dtype=minimized.dtype)
        candidates: list[int] = []
        count = 0
        scanned = 0

        for f_value, _, obj in self._keys:
            if f_value > threshold:
                break
            scanned += 1
            row = minimized[obj, cols]
            if count:
                stack = buffer[:count]
                no_worse = np.all(stack <= row, axis=1)
                if bool(no_worse.any()) and bool(
                    np.any(stack[no_worse] < row, axis=1).any()
                ):
                    continue
                # The stored-key order is not dominance-monotone inside the
                # subspace: the newcomer may dominate earlier candidates.
                worse = np.all(row <= stack, axis=1) & np.any(
                    row < stack, axis=1
                )
                if bool(worse.any()):
                    keep = np.flatnonzero(~worse)
                    buffer[: len(keep)] = stack[keep]
                    candidates = [candidates[i] for i in keep]
                    count = len(keep)
            if count == capacity:
                capacity *= 2
                bigger = np.empty((capacity, d), dtype=buffer.dtype)
                bigger[:count] = buffer[:count]
                buffer = bigger
            buffer[count] = row
            count += 1
            candidates.append(obj)
            threshold = min(threshold, float(row.max()))

        self.last_scanned = scanned
        return sorted(candidates)
