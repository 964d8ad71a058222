"""Per-subspace SkyCube computation: one independent query per subspace."""

from __future__ import annotations

from ..core.bitset import iter_all_subspaces
from ..core.types import Dataset
from ..skyline import compute_skyline

__all__ = ["skycube_naive"]


def skycube_naive(
    dataset: Dataset, algorithm: str = "auto"
) -> dict[int, list[int]]:
    """Skyline of every non-empty subspace, computed independently.

    Returns a mapping from subspace bitmask to the sorted skyline indices.
    Exponential in the dimensionality; the reference implementation that
    :mod:`repro.skycube.traversal` is tested against.
    """
    return {
        subspace: compute_skyline(dataset, subspace, algorithm=algorithm)
        for subspace in iter_all_subspaces(dataset.n_dims)
    }
