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

* The subspace tree removes dimensions in increasing index order, so each
  subspace is visited exactly once, depth-first from the full space.
* The sort key is the coordinate sum over the subspace -- monotone under
  dominance, hence sound for a sort-first scan.  The child's sum vector is
  derived from the parent's by subtracting one column, which is this
  reproduction's analogue of the paper's shared sorted lists.
* The per-subspace skyline scan is the same window filter used by
  :mod:`repro.skyline.numpy_skyline`, so Skyey and Stellar sit on the same
  substrate and runtime comparisons measure the *search strategy*, not
  implementation folklore.
* Group assembly: each subspace's skyline objects are grouped by their
  shared projection; a group's decisive subspaces are the minimal subspaces
  recorded for it and its maximal subspace is the set of dimensions all
  members share (see :mod:`repro.baselines.naive_cube` for why exclusivity
  holds by construction).

Parallel execution (docs/PARALLEL.md): the subspace tree decomposes at the
root -- the full space plus one independent subtree per removable dimension
-- so the per-subspace search shards across workers with one subtree per
shard.  Shard visit orders are merged in dimension order, reproducing the
serial depth-first record order exactly; the baseline comparison against a
parallel Stellar therefore stays fair, with both sides on the same backend.

The output is byte-for-byte the same compressed cube Stellar produces,
which the integration tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitset import iter_bits, minimal_masks
from ..core.types import Dataset, SkylineGroup, group_sort_key
from ..core.validate import common_coincidence_mask
from ..obs.progress import ProgressTask, tick
from ..obs.tracing import Span, SpanBackedTimings, Tracer, current_tracer
from ..parallel import get_shared, map_shards, resolve_parallel
from ..skyline.numpy_skyline import chunked_sorted_skyline

__all__ = ["SkyeyStats", "SkyeyResult", "skyey", "subspace_skyline_sorted"]

#: ``auto`` engages the pool only above this much work, measured as
#: objects x subspaces -- the quantity Skyey's cost is proportional to.
_PARALLEL_FLOOR = 1 << 21


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


def subspace_skyline_sorted(
    proj: np.ndarray, sums: np.ndarray
) -> list[int]:
    """Skyline of the projected matrix using a precomputed monotone key.

    The sum vector is supplied by the caller (derived incrementally from
    the parent subspace), so only the argsort and the filtered scan are
    paid here -- this is the subspace-skyline engine of the DFS.
    """
    order = np.argsort(sums, kind="stable")
    positions = chunked_sorted_skyline(proj[order])
    return [int(order[p]) for p in positions]


def _record_node(
    subspace: int,
    skyline: list[int],
    proj_rows,
    recorded: dict[frozenset[int], list[int]],
    sizes: dict[int, int],
) -> None:
    """Fold one subspace's skyline into the group-assembly accumulators."""
    sizes[subspace] = len(skyline)
    by_projection: dict[tuple[float, ...], list[int]] = {}
    for i in skyline:
        by_projection.setdefault(tuple(proj_rows(i)), []).append(i)
    for members in by_projection.values():
        recorded.setdefault(frozenset(members), []).append(subspace)


def _visit(
    minimized: np.ndarray,
    subspace: int,
    sums: np.ndarray,
    max_removable: int,
    share_sort_keys: bool,
    recorded: dict[frozenset[int], list[int]],
    sizes: dict[int, int],
) -> None:
    """Depth-first search of the subspace tree rooted at ``subspace``.

    Children remove one dimension with index below ``max_removable``, which
    enumerates each non-empty subspace exactly once; ``max_removable=0``
    records the root subspace alone, which is how the parallel path keeps
    the full space in the parent while shipping subtrees to workers.
    """
    cols = list(iter_bits(subspace))
    proj = minimized[:, cols]
    if not share_sort_keys:
        sums = proj.sum(axis=1)
    skyline = subspace_skyline_sorted(proj, sums)
    _record_node(subspace, skyline, lambda i: proj[i], recorded, sizes)
    tick()

    for d in range(max_removable):
        if not subspace & (1 << d):
            continue
        child = subspace & ~(1 << d)
        if child == 0:
            continue
        _visit(
            minimized,
            child,
            sums - minimized[:, d],
            d,
            share_sort_keys,
            recorded,
            sizes,
        )


def _pruned_candidates(
    minimized: np.ndarray, skyline_arr: np.ndarray, child: int
) -> np.ndarray:
    """Parent-candidate pruning: rows coinciding with a parent skyline row."""
    from ..skycube.topdown import _rows_as_void

    child_cols = list(iter_bits(child))
    member_rows = _rows_as_void(minimized[np.ix_(skyline_arr, child_cols)])
    all_rows = _rows_as_void(minimized[:, child_cols])
    return np.flatnonzero(np.isin(all_rows, member_rows))


def _visit_pruned(
    minimized: np.ndarray,
    subspace: int,
    candidates: np.ndarray,
    max_removable: int,
    recorded: dict[frozenset[int], list[int]],
    sizes: dict[int, int],
) -> list[int]:
    """Pruned DFS (SkyCube-style): children scan parent candidates only.

    Returns the root subspace's skyline so the parallel path can hand it to
    subtree workers without a second full-space scan.
    """
    cols = list(iter_bits(subspace))
    cand_proj = minimized[np.ix_(candidates, cols)]
    order = np.argsort(cand_proj.sum(axis=1), kind="stable")
    positions = chunked_sorted_skyline(cand_proj[order])
    skyline = sorted(int(candidates[order[p]]) for p in positions)
    _record_node(
        subspace, skyline, lambda i: minimized[i, cols], recorded, sizes
    )
    tick()

    skyline_arr = np.asarray(skyline)
    for d in range(max_removable):
        if not subspace & (1 << d):
            continue
        child = subspace & ~(1 << d)
        if child == 0:
            continue
        child_candidates = _pruned_candidates(minimized, skyline_arr, child)
        _visit_pruned(
            minimized, child, child_candidates, d, recorded, sizes
        )
    return skyline


def _subtree_shard(
    d: int,
) -> tuple[dict[frozenset[int], list[int]], dict[int, int]]:
    """Shard worker: full depth-first search of the subtree rooted at
    ``full_space & ~(1 << d)`` with removal limit ``d``."""
    minimized, share_sort_keys, pruning, full_skyline = get_shared()
    n_dims = minimized.shape[1]
    full = (1 << n_dims) - 1
    child = full & ~(1 << d)
    recorded: dict[frozenset[int], list[int]] = {}
    sizes: dict[int, int] = {}
    if pruning:
        candidates = _pruned_candidates(
            minimized, np.asarray(full_skyline), child
        )
        _visit_pruned(minimized, child, candidates, d, recorded, sizes)
    else:
        # Exactly the parent's derivation (full sums minus one column) so
        # the float arithmetic -- and hence the scan order -- matches the
        # serial traversal bit for bit.
        sums = minimized.sum(axis=1) - minimized[:, d]
        _visit(
            minimized, child, sums, d, share_sort_keys, recorded, sizes
        )
    return recorded, sizes


def skyey(
    dataset: Dataset,
    share_sort_keys: bool = True,
    candidate_pruning: bool = False,
    parallel: object = None,
) -> SkyeyResult:
    """Compute the compressed skyline cube by searching every subspace.

    Parameters
    ----------
    dataset:
        The input objects; preference directions are honoured.
    share_sort_keys:
        When True (the algorithm as published), a child subspace derives
        its monotone sort key from the parent's by subtracting one column
        -- the reproduction's analogue of Skyey's shared sorted lists.
        When False each subspace recomputes its key from scratch; the
        ablation benchmark measures what the sharing buys.
    candidate_pruning:
        Arm the subspace search with the parent-candidate pruning of the
        SkyCube paper (see :mod:`repro.skycube.topdown`): each child
        subspace only scans the parent skyline plus the objects coinciding
        with it.  This is the "directly adopting the algorithms from [15]"
        configuration the paper's related-work section argues cannot close
        the gap to Stellar -- every subspace must still be visited -- and
        the ablation benchmark quantifies exactly that.
    parallel:
        Parallel-execution spec (see :mod:`repro.parallel`); ``None``
        defers to the process default (the CLI ``--parallel`` flag).  The
        per-subspace search then shards one root subtree per worker; the
        merged result is bit-identical to a serial run.
    """
    stats = SkyeyStats(n_objects=dataset.n_objects, n_dims=dataset.n_dims)
    minimized = dataset.minimized
    n, n_dims = minimized.shape
    if n == 0 or n_dims == 0:
        return SkyeyResult(groups=[], skyline_sizes={}, stats=stats)

    config = resolve_parallel(parallel)
    tracer = current_tracer()
    if tracer is None:
        # Record phase spans even without ambient tracing: SkyeyStats
        # derives its timings from this tree.
        tracer = Tracer()

    recorded: dict[frozenset[int], list[int]] = {}
    skyline_sizes: dict[int, int] = {}

    full = (1 << n_dims) - 1
    workers = config.plan(n * full, floor=_PARALLEL_FLOOR)
    with tracer.span(
        "skyey",
        n_objects=n,
        n_dims=n_dims,
        candidate_pruning=candidate_pruning,
        parallel=config.describe(),
    ) as root:
        with tracer.span("subspace_search") as sp, ProgressTask(
            "subspace_search", total=full
        ):
            if workers > 1 and n_dims >= 2:
                _search_parallel(
                    minimized,
                    share_sort_keys,
                    candidate_pruning,
                    config,
                    workers,
                    recorded,
                    skyline_sizes,
                )
            elif candidate_pruning:
                _visit_pruned(
                    minimized,
                    full,
                    np.arange(n),
                    n_dims,
                    recorded,
                    skyline_sizes,
                )
            else:
                _visit(
                    minimized,
                    full,
                    minimized.sum(axis=1),
                    n_dims,
                    share_sort_keys,
                    recorded,
                    skyline_sizes,
                )
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


def _search_parallel(
    minimized: np.ndarray,
    share_sort_keys: bool,
    candidate_pruning: bool,
    config,
    workers: int,
    recorded: dict[frozenset[int], list[int]],
    sizes: dict[int, int],
) -> None:
    """Subspace search with one root subtree per shard.

    The parent records the full space itself (``max_removable=0``), then
    ships subtree ``d`` -- rooted at ``full & ~(1 << d)`` with removal
    limit ``d`` -- to the pool.  Merging shard results in ascending ``d``
    order reproduces the serial depth-first record order exactly, which is
    what keeps group assembly (and therefore the output) bit-identical.
    """
    n, n_dims = minimized.shape
    full = (1 << n_dims) - 1
    if candidate_pruning:
        full_skyline = _visit_pruned(
            minimized, full, np.arange(n), 0, recorded, sizes
        )
        shared = (minimized, share_sort_keys, True, full_skyline)
    else:
        _visit(
            minimized,
            full,
            minimized.sum(axis=1),
            0,
            share_sort_keys,
            recorded,
            sizes,
        )
        shared = (minimized, share_sort_keys, False, None)
    shards = map_shards(
        "skyey.subtrees",
        _subtree_shard,
        list(range(n_dims)),
        config=config,
        workers=workers,
        shared=shared,
        # Workers cannot tick the parent's task; advance by the number of
        # subspaces each completed subtree visited.
        progress=lambda _d, shard: tick(len(shard[1])),
    )
    for shard_recorded, shard_sizes in shards:
        for members, subspaces in shard_recorded.items():
            recorded.setdefault(members, []).extend(subspaces)
        sizes.update(shard_sizes)
