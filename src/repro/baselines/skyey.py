"""The Skyey baseline (Pei et al., VLDB 2005), reconstructed.

Skyey assembles a data-cube traversal with a sorting-based skyline
algorithm: starting from the full space it visits *every* non-empty
subspace depth-first, computes the subspace skyline by scanning the objects
in a monotone sort order, and shares as much work as possible between a
subspace and its children.  Skyline groups and decisive subspaces are then
assembled from the per-subspace skylines.  Its cost is inherently
proportional to the number of subspaces (2^d - 1), which is the behaviour
Figures 8 and 11 measure against Stellar.

Reconstruction notes (the full algorithm lives in the VLDB'05 paper, which
this ICDE'07 paper only sketches):

* The subspace search is :class:`~repro.skycube.traversal.SubspaceSearch`,
  the library's one SkyCube traversal: depth-first from the full space,
  each subspace visited once.  Its per-subspace skyline is
  :func:`~repro.skyline.numpy_skyline.skyline_rows`, the kernel of
  Stellar's full-space skyline, so Skyey and Stellar sit on the same
  substrate and runtime comparisons measure the *search strategy*, not
  implementation folklore.
* Group assembly: each subspace's skyline objects are grouped by their
  shared projection; a group's decisive subspaces are the minimal subspaces
  recorded for it and its maximal subspace is the set of dimensions all
  members share (see :mod:`repro.baselines.naive_cube` for why exclusivity
  holds by construction).

The output is byte-for-byte the same compressed cube Stellar produces,
which the integration tests assert.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from ..core.bitset import bit_list, minimal_masks
from ..core.types import Dataset, SkylineGroup, group_sort_key
from ..core.validate import common_coincidence_mask
from ..obs.tracing import Span, SpanBackedTimings, Tracer, current_tracer, tick
from ..skycube.traversal import SubspaceSearch

__all__ = ["SkyeyStats", "SkyeyResult", "skyey"]


@dataclass
class SkyeyStats(SpanBackedTimings):
    """Counters and the recorded span tree of one Skyey run.

    Per-phase ``timings`` are derived from ``root_span`` (see
    :class:`~repro.obs.tracing.SpanBackedTimings`); keys and
    ``total_seconds`` are unchanged from the hand-timed versions.
    """

    n_objects: int = 0
    n_dims: int = 0
    n_subspaces_searched: int = 0
    #: Total number of (object, subspace) skyline memberships -- the size of
    #: the SkyCube of Yuan et al., plotted in Figures 9 and 10.
    n_subspace_skyline_objects: int = 0
    n_groups: int = 0
    #: Root tracing span of the run; phases are its direct children.
    root_span: Span | None = None


@dataclass
class SkyeyResult:
    """Output of :func:`skyey`: the compressed cube plus the SkyCube sizes."""

    groups: list[SkylineGroup]
    #: Skyline size of every non-empty subspace (the SkyCube byproduct).
    skyline_sizes: dict[int, int]
    stats: SkyeyStats


def _record(
    minimized: np.ndarray,
    nodes: Iterable[tuple[int, np.ndarray]],
    recorded: dict[frozenset[int], list[int]],
    sizes: dict[int, int],
) -> None:
    """Fold each subspace's skyline into the group-assembly accumulators."""
    for subspace, skyline in nodes:
        sizes[subspace] = len(skyline)
        members = skyline.tolist()
        rows = minimized[np.ix_(skyline, bit_list(subspace))].tolist()
        by_projection: dict[tuple[float, ...], list[int]] = {}
        for i, row in zip(members, rows):
            by_projection.setdefault(tuple(row), []).append(i)
        for group in by_projection.values():
            recorded.setdefault(frozenset(group), []).append(subspace)
        tick()


def skyey(
    dataset: Dataset,
    share_sort_keys: bool = True,
    candidate_pruning: bool = False,
) -> SkyeyResult:
    """Compute the compressed skyline cube by searching every subspace.

    Parameters
    ----------
    dataset:
        The input objects; preference directions are honoured.
    share_sort_keys:
        Has no effect.  It chose whether a child subspace derived its sort
        key from the parent's by subtracting one column (the analogue of
        Skyey's shared sorted lists); the skyline kernel sums each
        subspace itself and sorts only the rows its filter leaves.
    candidate_pruning:
        Arm the subspace search with the parent-candidate pruning of the
        SkyCube paper (see :mod:`repro.skycube.traversal`): each child
        subspace only scans the parent skyline plus the objects coinciding
        with it.  This is the "directly adopting the algorithms from [15]"
        configuration the paper's related-work section argues cannot close
        the gap to Stellar -- every subspace must still be visited -- and
        the ablation benchmark quantifies exactly that.
    """
    stats = SkyeyStats(n_objects=dataset.n_objects, n_dims=dataset.n_dims)
    minimized = dataset.minimized
    n, n_dims = minimized.shape
    if n == 0 or n_dims == 0:
        return SkyeyResult(groups=[], skyline_sizes={}, stats=stats)

    tracer = current_tracer()
    if tracer is None:
        # Record phase spans even without ambient tracing: SkyeyStats
        # derives its timings from this tree.
        tracer = Tracer()

    recorded: dict[frozenset[int], list[int]] = {}
    skyline_sizes: dict[int, int] = {}

    full = (1 << n_dims) - 1
    with tracer.span(
        "skyey",
        n_objects=n,
        n_dims=n_dims,
        candidate_pruning=candidate_pruning,
    ) as root:
        with tracer.span("subspace_search", total=full) as sp:
            search = SubspaceSearch(minimized, share_sort_keys, candidate_pruning)
            _record(minimized, search.nodes(), recorded, skyline_sizes)
            stats.n_subspaces_searched = len(skyline_sizes)
            stats.n_subspace_skyline_objects = int(
                sum(skyline_sizes.values())
            )
            sp.count("subspaces", stats.n_subspaces_searched)
            sp.count(
                "subspace_skyline_objects", stats.n_subspace_skyline_objects
            )

        with tracer.span("group_assembly") as sp:
            groups: list[SkylineGroup] = []
            for members, subspaces in recorded.items():
                ordered_members = sorted(members)
                maximal = common_coincidence_mask(minimized, ordered_members)
                groups.append(
                    SkylineGroup(
                        members=frozenset(members),
                        subspace=maximal,
                        decisive=tuple(minimal_masks(subspaces)),
                        projection=dataset.projection(
                            ordered_members[0], maximal
                        ),
                    )
                )
            groups.sort(key=group_sort_key)
            sp.count("groups", len(groups))
        stats.n_groups = len(groups)
        stats.root_span = root

    return SkyeyResult(
        groups=groups, skyline_sizes=skyline_sizes, stats=stats
    )
