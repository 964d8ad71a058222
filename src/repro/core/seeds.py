"""Seed skyline groups and their decisive subspaces (Section 5.2).

Stellar's first phase works purely on the *seeds* -- the full-space skyline
objects ``F(S)``:

1. compute ``F(S)`` with any full-space skyline algorithm, populating the
   dominance matrix as a byproduct (Definition 3, Definition 4);
2. enumerate the maximal c-groups over the seeds (Figure 6);
3. turn each c-group into a seed skyline group by computing its decisive
   subspaces from the dominance matrix (Theorem 3 / Corollary 1): group
   ``(G, B)`` contributes, for every seed ``u ∉ G``, the clause
   ``B ∩ dom[rep, u]`` (the dimensions of ``B`` on which the group's shared
   value beats ``u``); the decisive subspaces are the minimal hitting sets;
4. a c-group with an *empty* clause is dominated-or-coincided everywhere in
   ``B`` by some outside seed and is dropped (step 4 of Figure 7).

Clause independence from the representative: every member of ``G`` carries
the group's shared values on ``B``, so ``B ∩ dom[o, u]`` is the same mask
for every ``o ∈ G``; we use the smallest member.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.progress import tick
from ..parallel import chunk_ranges, get_shared, map_shards, resolve_parallel
from .bitset import bit, distinct_masks, iter_bits
from .dominance import COMPARISONS, PairwiseMatrices
from .hitting import minimal_hitting_sets
from .types import Dataset

__all__ = ["SeedGroup", "compute_seed_groups", "singleton_decisive"]

#: ``auto`` engages the pool only above this many (c-group, seed) pairs;
#: below it the clause scan is a handful of vectorised row operations.
_PARALLEL_FLOOR = 1 << 20


@dataclass(frozen=True)
class SeedGroup:
    """A seed skyline group, in both local (seed-array) and global indexing.

    Attributes
    ----------
    local_members:
        Positions of the member seeds within the seed array.
    members:
        The same members as global dataset indices (sorted).
    subspace:
        The maximal subspace ``B`` of the group.
    decisive:
        All decisive subspaces over the seed set ``F(S)``, sorted.
    """

    local_members: tuple[int, ...]
    members: tuple[int, ...]
    subspace: int
    decisive: tuple[int, ...]

    @property
    def representative(self) -> int:
        """Local index of the representative (smallest) member."""
        return self.local_members[0]


def singleton_decisive(subspace: int) -> tuple[int, ...]:
    """Decisive subspaces of a group with no outside objects at all.

    With no competitors every condition of Definition 2 is vacuous except
    minimality, and subspaces are non-empty by definition (Section 2), so
    every single dimension of ``B`` is decisive.
    """
    return tuple(bit(d) for d in iter_bits(subspace))


def compute_seed_groups(
    dataset: Dataset,
    matrices: PairwiseMatrices,
    cgroups: list[tuple[tuple[int, ...], int]],
    parallel: object = None,
) -> list[SeedGroup]:
    """Attach decisive subspaces to maximal c-groups, dropping non-groups.

    Parameters
    ----------
    dataset:
        The full dataset (used only for global index translation).
    matrices:
        Pairwise matrices over the seeds.
    cgroups:
        Output of :func:`repro.core.cgroups.enumerate_maximal_cgroups`.
    parallel:
        Parallel-execution spec; ``None`` defers to the process default.

    Returns
    -------
    The seed skyline groups -- the nodes of the paper's *seed lattice*.
    """
    seeds = matrices.indices
    k = len(seeds)
    config = resolve_parallel(parallel)
    workers = config.plan(len(cgroups) * max(k, 1), floor=_PARALLEL_FLOOR)
    if workers > 1 and len(cgroups) > 1:
        verdicts = _parallel_clause_verdicts(matrices, cgroups, config, workers)
    else:
        verdicts = []
        for members, subspace in cgroups:
            verdicts.append(
                _clause_verdict(
                    matrices.dom_row_array(members[0]), members, subspace, k
                )
            )
            tick()
    groups: list[SeedGroup] = []
    for (local_members, subspace), (keep, decisive) in zip(cgroups, verdicts):
        if not keep:
            # Some outside seed u is never beaten inside B: the group's
            # projection is not exclusively in any skyline of a subspace
            # of B, so this c-group is not a skyline group.
            continue
        groups.append(
            SeedGroup(
                local_members=tuple(local_members),
                members=tuple(sorted(seeds[m] for m in local_members)),
                subspace=subspace,
                decisive=decisive,
            )
        )
    return groups


def _clause_verdict(
    dom_row: np.ndarray,
    local_members: tuple[int, ...],
    subspace: int,
    k: int,
) -> tuple[bool, tuple[int, ...]]:
    """Keep/drop verdict and decisive subspaces of one maximal c-group.

    ``dom_row`` is the representative's packed dominance row over all ``k``
    seeds; the clause family is ``B ∩ dom[rep, u]`` for every outside seed
    ``u`` (Corollary 1).  Pure function of its inputs, so it computes the
    same answer whether the row came from the parent's cached
    :class:`~repro.core.dominance.PairwiseMatrices` or was re-derived
    inside a pool worker.
    """
    mask = np.ones(k, dtype=bool)
    mask[list(local_members)] = False
    clause_arr = dom_row[mask] & subspace
    if clause_arr.size and not clause_arr.all():
        return False, ()
    if clause_arr.size:
        clauses = distinct_masks(clause_arr)
        decisive = tuple(sorted(minimal_hitting_sets(clauses)))
    else:
        decisive = singleton_decisive(subspace)
    return True, decisive


def _clause_shard(bounds: tuple[int, int]) -> list[tuple[bool, tuple[int, ...]]]:
    """Shard worker: verdicts for one contiguous slice of the c-group list."""
    sub, pow2, cgroups = get_shared()
    start, stop = bounds
    k = sub.shape[0]
    out: list[tuple[bool, tuple[int, ...]]] = []
    for local_members, subspace in cgroups[start:stop]:
        rep = local_members[0]
        # Same packed comparison as PairwiseMatrices.dom_row_array; counted
        # identically so cost accounting survives the move into a worker.
        COMPARISONS.add(k)
        dom_row = (sub[rep] < sub).astype(pow2.dtype) @ pow2
        out.append(_clause_verdict(dom_row, local_members, subspace, k))
    return out


def _parallel_clause_verdicts(
    matrices: PairwiseMatrices,
    cgroups: list[tuple[tuple[int, ...], int]],
    config,
    workers: int,
) -> list[tuple[bool, tuple[int, ...]]]:
    """Fan the clause scan out over contiguous c-group shards.

    Workers re-derive dominance rows from the seed submatrix instead of
    shipping the parent's row cache; shard outputs concatenate in shard
    order, so the verdict list is element-for-element the serial one.
    Progress ticks fire in the parent as each shard completes (workers
    cannot reach the ambient progress task).
    """
    shards = map_shards(
        "seeds.clauses",
        _clause_shard,
        chunk_ranges(len(cgroups), workers),
        config=config,
        workers=workers,
        shared=(matrices.sub_matrix, matrices.pack_weights, cgroups),
        progress=lambda _i, shard: tick(len(shard)),
    )
    return [verdict for shard in shards for verdict in shard]
