"""Chunked full-space skyline: partition-local skylines plus an exact merge.

The classical partition-then-merge decomposition (divide-and-conquer skyline
frameworks use the same argument):

1. split the input rows into contiguous chunks and compute each chunk's
   *local* skyline with the configured algorithm;
2. the union of the local skylines is a superset of the true skyline
   (a globally undominated object is undominated within its chunk);
3. one final pass over the candidate union removes the cross-chunk
   casualties.  The result is *exactly* the skyline: if a candidate ``y``
   were dominated by a discarded object ``z``, transitivity hands ``y`` a
   dominator inside ``z``'s local skyline, which is in the candidate set.

Every registered algorithm returns the skyline as a sorted index list and a
skyline is a set, so the merged output is bit-identical to the serial one.
Only the dominance-comparison *count* differs (chunking changes which pairs
are compared), which is why equality tests compare results, never counters.
"""

from __future__ import annotations

import numpy as np

from ..obs.tracing import span
from .backend import ParallelConfig, chunk_ranges, get_shared, map_shards

__all__ = ["PARTITIONABLE_ALGORITHMS", "partitioned_skyline"]

#: Registry algorithms whose partition-local runs are sound to merge: both
#: are sort-based filters with no global precomputed structure.  ``auto``
#: resolves to one of these before the check.
PARTITIONABLE_ALGORITHMS = frozenset({"sfs", "numpy"})


def _chunk_skyline(bounds: tuple[int, int]) -> list[int]:
    """Shard worker: local skyline of one row range, in global positions."""
    from ..skyline.registry import SKYLINE_ALGORITHMS

    matrix, algorithm = get_shared()
    start, stop = bounds
    local = SKYLINE_ALGORITHMS[algorithm](matrix[start:stop], None)
    return [start + int(i) for i in local]


def partitioned_skyline(
    matrix: np.ndarray,
    algorithm: str,
    config: ParallelConfig,
    workers: int,
) -> list[int]:
    """Skyline of an already-projected matrix via partition + exact merge.

    ``matrix`` must already be restricted to the queried subspace (callers
    project before chunking so shards never re-slice columns); ``algorithm``
    must be a member of :data:`PARTITIONABLE_ALGORITHMS`.
    """
    if algorithm not in PARTITIONABLE_ALGORITHMS:
        raise ValueError(
            f"algorithm {algorithm!r} does not support partitioning; "
            f"supported: {', '.join(sorted(PARTITIONABLE_ALGORITHMS))}"
        )
    from ..skyline.registry import SKYLINE_ALGORITHMS

    n = matrix.shape[0]
    ranges = chunk_ranges(n, workers)
    with span(
        "skyline.partitioned",
        algorithm=algorithm,
        n_objects=n,
        chunks=len(ranges),
    ) as sp:
        locals_ = map_shards(
            "skyline.partition",
            _chunk_skyline,
            ranges,
            config=config,
            workers=workers,
            shared=(matrix, algorithm),
        )
        # Chunks are disjoint ascending ranges, so concatenation is sorted.
        candidates = [i for local in locals_ for i in local]
        sp.count("candidates", len(candidates))
        final = SKYLINE_ALGORITHMS[algorithm](matrix[candidates], None)
        result = sorted(candidates[i] for i in final)
        sp.count("skyline_size", len(result))
    return result
