"""Algorithm registry and the user-facing :func:`compute_skyline` entry point."""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from ..core.dominance import COMPARISONS
from ..core.types import Dataset
from ..obs.flight import record as flight_record
from ..obs.tracing import current_tracer
from ..parallel import (
    PARTITIONABLE_ALGORITHMS,
    partitioned_skyline,
    resolve_parallel,
)
from .base import skyline_brute, subspace_columns
from .bnl import skyline_bnl
from .nn import skyline_nn
from .numpy_skyline import skyline_numpy
from .sfs import skyline_sfs

__all__ = ["SKYLINE_ALGORITHMS", "compute_skyline"]

SkylineFn = Callable[[np.ndarray, int | None], list[int]]

#: All registered skyline algorithms, by name: ``brute`` is the test
#: oracle, ``sfs`` serves small inputs and the naive-cube oracle, and
#: ``numpy`` runs every build at scale; nothing runs ``bnl`` or ``nn``.
SKYLINE_ALGORITHMS: dict[str, SkylineFn] = {
    "brute": skyline_brute,
    "bnl": skyline_bnl,
    "sfs": skyline_sfs,
    "nn": skyline_nn,
    "numpy": skyline_numpy,
}

#: Input size above which ``algorithm="auto"`` switches to the vectorised
#: implementation; below it plain SFS has less overhead.
_AUTO_THRESHOLD = 128


def compute_skyline(
    data: Dataset | np.ndarray,
    subspace: int | None = None,
    algorithm: str = "auto",
    parallel: object = None,
) -> list[int]:
    """Compute the skyline of ``data`` in ``subspace``.

    Parameters
    ----------
    data:
        A :class:`~repro.core.types.Dataset` (preference directions are
        honoured) or an already-minimized numpy matrix.
    subspace:
        Dimension bitmask; ``None`` means the full space.
    algorithm:
        One of ``"auto"`` or a key of :data:`SKYLINE_ALGORITHMS`.
    parallel:
        Parallel-execution spec (see :mod:`repro.parallel`); ``None`` defers
        to the process default (the CLI ``--parallel`` flag).  When the
        resolved configuration engages and the algorithm supports chunking
        (:data:`~repro.parallel.PARTITIONABLE_ALGORITHMS`), the skyline is
        computed via partition-local skylines plus an exact merge -- the
        result is bit-identical to the serial path.

    Returns
    -------
    Sorted indices of the skyline objects.
    """
    if isinstance(data, Dataset):
        matrix = data.minimized
    else:
        matrix = np.asarray(data, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {matrix.shape}")
    if algorithm == "auto":
        name = "numpy" if matrix.shape[0] >= _AUTO_THRESHOLD else "sfs"
    else:
        name = algorithm
    try:
        fn = SKYLINE_ALGORITHMS[name]
    except KeyError:
        known = ", ".join(sorted(SKYLINE_ALGORITHMS))
        raise ValueError(
            f"unknown skyline algorithm {algorithm!r}; known: auto, {known}"
        ) from None

    flight_record(
        "skyline.compute",
        algorithm=name,
        n_objects=int(matrix.shape[0]),
        subspace=subspace,
    )
    config = resolve_parallel(parallel)
    workers = (
        config.plan(matrix.shape[0])
        if name in PARTITIONABLE_ALGORITHMS
        else 0
    )
    if workers > 1:
        proj = subspace_columns(matrix, subspace)
        return partitioned_skyline(proj, name, config, workers)

    tracer = current_tracer()
    if tracer is None:
        return fn(matrix, subspace)
    with tracer.span(f"skyline.{name}") as sp:
        before = COMPARISONS.value
        result = fn(matrix, subspace)
        sp.annotate(n_objects=matrix.shape[0], subspace=subspace)
        sp.count("dominance_comparisons", COMPARISONS.value - before)
        sp.count("skyline_size", len(result))
    return result
