"""Pluggable parallel execution for the hot paths (see docs/PARALLEL.md).

Stellar only ever computes the full-space skyline and then folds non-seed
objects in with one pass -- both stages, and Skyey's per-subspace search,
decompose into independent shards whose results merge deterministically.
This package provides the machinery:

* :mod:`repro.parallel.backend` -- the execution backends (serial, thread
  pool, process pool), spec parsing and the process default for the CLI
  ``--parallel`` flag, and :func:`map_shards`, the span/metrics-integrated
  fan-out primitive every call site uses;
* :mod:`repro.parallel.skyline` -- partition-local skylines plus an exact
  merge, used by :func:`repro.skyline.compute_skyline` for the algorithms
  that support chunking (SFS, numpy).

Determinism is a hard guarantee: every parallel stage shards work into
contiguous, ordered ranges and merges shard results in shard order, so the
output is bit-identical to the serial code path (the integration tests
assert it).  Only derived *statistics* may differ -- a partitioned skyline
performs a different set of pairwise comparisons than a single-pass one.
"""

from .backend import (
    AUTO_MIN_OBJECTS,
    SERIAL,
    ParallelConfig,
    chunk_ranges,
    default_parallel,
    default_workers,
    get_shared,
    map_shards,
    parse_parallel_spec,
    resolve_parallel,
)
from .skyline import PARTITIONABLE_ALGORITHMS, partitioned_skyline

__all__ = [
    "AUTO_MIN_OBJECTS",
    "SERIAL",
    "ParallelConfig",
    "chunk_ranges",
    "default_parallel",
    "default_workers",
    "get_shared",
    "map_shards",
    "parse_parallel_spec",
    "resolve_parallel",
    "PARTITIONABLE_ALGORITHMS",
    "partitioned_skyline",
]
