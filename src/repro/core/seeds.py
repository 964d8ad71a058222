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

from ..obs.tracing import tick
from .bitset import bit, distinct_masks, iter_bits
from .dominance import PairwiseMatrices
from .hitting import minimal_hitting_sets
from .types import Dataset

__all__ = ["SeedGroup", "compute_seed_groups", "singleton_decisive"]


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

    Returns
    -------
    The seed skyline groups -- the nodes of the paper's *seed lattice*.
    """
    seeds = matrices.indices
    groups: list[SeedGroup] = []
    root, row = -1, None
    for local_members, subspace in cgroups:
        if local_members[0] != root:
            # C-groups arrive ordered by smallest member, so each root's
            # dominance row is computed once and dropped at the next root.
            root = local_members[0]
            row = matrices.dom_row_array(root)
        keep, decisive = _clause_verdict(row, len(local_members), subspace)
        tick()
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
    dom_row: np.ndarray, n_members: int, subspace: int
) -> tuple[bool, tuple[int, ...]]:
    """Keep/drop verdict and decisive subspaces of one maximal c-group.

    ``dom_row`` is the representative's packed dominance row over all
    seeds; the clause family is ``B ∩ dom[rep, u]`` for every outside seed
    ``u`` (Corollary 1).  Every member coincides with the representative on
    ``B``, so its cell of ``dom_row & B`` is 0, and the group is kept iff the
    ``n_members`` members are the only zeros: no outside seed has an empty
    clause.  The clauses are then the distinct non-zero cells.
    """
    clause_arr = dom_row & subspace
    if clause_arr.size - np.count_nonzero(clause_arr) != n_members:
        return False, ()
    # The sorted distinct cells start with the members' 0.
    clauses = distinct_masks(clause_arr)[1:]
    if clauses:
        decisive = tuple(sorted(minimal_hitting_sets(clauses)))
    else:
        decisive = singleton_decisive(subspace)
    return True, decisive
