"""Algorithm Stellar (Figure 7): the paper's primary contribution.

Stellar computes the complete compressed skyline cube -- every skyline group
with its decisive subspaces -- while running a skyline computation *only in
the full space*:

1. compute the full-space skyline ``F(S)`` (the seeds), populating the
   dominance matrix over the seeds as a byproduct;
2. enumerate the maximal c-groups of the seeds (Figure 6) as per-root
   closures of the non-zero coincidence masks, read from an equality join
   over the seeds' columns (:mod:`repro.core.cgroups`);
3. attach decisive subspaces via minimal hitting sets over dominance-matrix
   rows (Corollary 1, :mod:`repro.core.seeds`), dropping c-groups with an
   empty clause (step 4);
4. fold the non-seed objects in with one scan against the seed lattice
   (Theorem 5, :mod:`repro.core.extension`).

No subspace other than the full space is ever searched for a skyline, which
is the source of Stellar's advantage over Skyey whenever skyline groups
compress the subspace skylines well (Section 6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.tracing import Span, SpanBackedTimings, Tracer, current_tracer
from ..skyline import compute_skyline
from .cgroups import enumerate_maximal_cgroups
from .dominance import COMPARISONS, PairwiseMatrices
from .extension import extend_with_nonseeds
from .seeds import SeedGroup, compute_seed_groups, seed_route
from .types import Dataset, SkylineGroup

__all__ = ["StellarStats", "StellarResult", "stellar"]


@dataclass
class StellarStats(SpanBackedTimings):
    """Counters and the recorded span tree of one Stellar run.

    Per-phase wall-clock timings are exposed through the inherited
    ``timings`` property (derived from ``root_span``; the hand-maintained
    dict of earlier versions is gone, keys and ``total_seconds`` semantics
    are unchanged).
    """

    n_objects: int = 0
    n_dims: int = 0
    n_seeds: int = 0
    n_maximal_cgroups: int = 0
    n_seed_groups: int = 0
    n_groups: int = 0
    #: Objects collapsed by duplicate binding (0 unless enabled and found).
    n_bound_duplicates: int = 0
    #: Root tracing span of the run; phases are its direct children.
    root_span: Span | None = None


@dataclass
class StellarResult:
    """Output of :func:`stellar`.

    Attributes
    ----------
    groups:
        The complete set of skyline groups of the dataset, each with its
        full decisive-subspace signature, sorted deterministically.
    seed_groups:
        The seed lattice nodes (skyline groups over ``F(S)`` only).
    seeds:
        Global indices of the full-space skyline objects.
    stats:
        Phase counters and timings.
    """

    groups: list[SkylineGroup]
    seed_groups: list[SeedGroup]
    seeds: list[int]
    stats: StellarStats

    def signatures(self, dataset: Dataset) -> list[str]:
        """Paper-style signatures of every group, sorted as ``groups``."""
        return [g.signature(dataset) for g in self.groups]


def stellar(
    dataset: Dataset,
    bind_duplicates: bool = False,
) -> StellarResult:
    """Compute the compressed skyline cube of ``dataset`` with Stellar.

    Parameters
    ----------
    dataset:
        The input objects; preference directions are honoured.
    bind_duplicates:
        Apply the paper's duplicate-binding preprocessing (Section 5):
        objects identical on *every* dimension "can be bound together since
        they always appear together if they are involved in any skyline
        groups".  The pipeline then runs on the distinct rows and each
        representative is expanded back to its duplicate set in the output.
        Off by default -- the core pipeline handles duplicates natively --
        but worthwhile on data with heavy exact duplication.
    """
    tracer = current_tracer()
    if tracer is None:
        # Record phase spans even without ambient tracing: StellarStats
        # derives its timings from this tree.
        tracer = Tracer()
    with tracer.span(
        "stellar",
        n_objects=dataset.n_objects,
        n_dims=dataset.n_dims,
    ) as root:
        if bind_duplicates and dataset.n_objects:
            result = _stellar_bound(dataset, tracer)
        else:
            result = _stellar_core(dataset, tracer)
        result.stats.root_span = root
    return result


def _phase(tracer: Tracer, name: str, total: int | None):
    """Open one Stellar phase span, pre-wired with the comparison counter.

    ``total`` makes it a phase span (see :mod:`repro.obs.progress`): the
    items the phase will tick through, or None when unknown up front.
    """
    return _PhaseHandle(tracer, name, total)


class _PhaseHandle:
    """Span handle that records the phase's dominance-comparison delta."""

    __slots__ = ("_handle", "_span", "_before")

    def __init__(self, tracer: Tracer, name: str, total: int | None):
        self._handle = tracer.span(name, total=total)

    def __enter__(self) -> Span:
        self._before = COMPARISONS.value
        self._span = self._handle.__enter__()
        return self._span

    def __exit__(self, *exc: object) -> bool:
        self._span.count(
            "dominance_comparisons", COMPARISONS.value - self._before
        )
        return self._handle.__exit__(*exc)


def _stellar_core(dataset: Dataset, tracer: Tracer) -> StellarResult:
    stats = StellarStats(n_objects=dataset.n_objects, n_dims=dataset.n_dims)
    if dataset.n_objects == 0:
        return StellarResult(groups=[], seed_groups=[], seeds=[], stats=stats)

    with _phase(tracer, "full_space_skyline", dataset.n_objects) as sp:
        seeds = compute_skyline(dataset, None)
        sp.count("items", dataset.n_objects)
        sp.count("seeds", len(seeds))
    stats.n_seeds = len(seeds)

    with _phase(tracer, "maximal_cgroups", len(seeds)) as sp:
        matrices = PairwiseMatrices(dataset, seeds)
        cgroups = enumerate_maximal_cgroups(matrices)
        sp.count("maximal_cgroups", len(cgroups))
    stats.n_maximal_cgroups = len(cgroups)

    with _phase(tracer, "seed_decisive", len(cgroups)) as sp:
        sp.annotate(route=seed_route(dataset.n_dims))
        seed_groups = compute_seed_groups(dataset, matrices, cgroups)
        sp.count("seed_groups", len(seed_groups))
    stats.n_seed_groups = len(seed_groups)

    with _phase(tracer, "nonseed_extension", len(seed_groups)) as sp:
        groups = extend_with_nonseeds(dataset, matrices, seed_groups)
        sp.count("groups", len(groups))
    stats.n_groups = len(groups)

    return StellarResult(
        groups=groups, seed_groups=seed_groups, seeds=list(seeds), stats=stats
    )


def _stellar_bound(dataset: Dataset, tracer: Tracer) -> StellarResult:
    """Run the pipeline on distinct rows, then expand duplicate bindings.

    Soundness: exact duplicates coincide on every dimension, so they share
    every c-group membership, contribute identical hitting-set clauses, and
    are jointly seeds or jointly non-seeds -- replacing a representative by
    its duplicate class is a bijection on skyline groups that leaves
    subspaces, decisive subspaces and projections untouched.
    """
    with tracer.span("duplicate_binding") as bind_span:
        _, first_pos, inverse = np.unique(
            dataset.values, axis=0, return_index=True, return_inverse=True
        )
        representatives = sorted(int(i) for i in first_pos)
        bound = dataset.n_objects - len(representatives)
        bind_span.count("bound_duplicates", bound)
        if bound:
            # class id -> all original indices carrying that distinct row
            classes: dict[int, list[int]] = {}
            for obj, cls in enumerate(inverse):
                classes.setdefault(int(cls), []).append(obj)
            reduced = dataset.take(representatives)
            # reduced position -> original duplicate set
            expansion = {
                pos: classes[int(inverse[rep])]
                for pos, rep in enumerate(representatives)
            }
    if not bound:
        return _stellar_core(dataset, tracer)

    inner = _stellar_core(reduced, tracer)

    def expand_members(members) -> frozenset[int]:
        out: set[int] = set()
        for m in members:
            out.update(expansion[m])
        return frozenset(out)

    groups = [
        SkylineGroup(
            members=expand_members(g.members),
            subspace=g.subspace,
            decisive=g.decisive,
            projection=g.projection,
        )
        for g in inner.groups
    ]
    groups.sort(key=lambda g: (len(g.members), tuple(sorted(g.members)), g.subspace))
    seed_groups = [
        SeedGroup(
            local_members=sg.local_members,
            members=tuple(sorted(expand_members(sg.members))),
            subspace=sg.subspace,
            decisive=sg.decisive,
        )
        for sg in inner.seed_groups
    ]
    seeds = sorted(obj for s in inner.seeds for obj in expansion[s])

    stats = inner.stats
    stats.n_objects = dataset.n_objects
    stats.n_bound_duplicates = bound
    stats.n_seeds = len(seeds)
    stats.n_groups = len(groups)
    return StellarResult(
        groups=groups, seed_groups=seed_groups, seeds=seeds, stats=stats
    )
