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

Steps 3 and 4 take one of two routes, chosen by the dimensionality alone
(:func:`seed_route`):

* ``"table"`` (``d ≤ 16``): per root ``u``, the subset-count table
  ``N_u[x] = #{o : dom[u, o] ⊆ x}`` -- a histogram of the root's dominance
  row followed by a zeta transform -- answers every c-group of that root.
  With ``D`` the full space, the group is kept iff ``N_u[D∖B] = |G|``; a
  non-empty ``C ⊆ B`` hits every clause iff ``N_u[D∖C] = N_u[D∖B]``; and
  ``C`` is decisive iff it hits and no ``C∖{d}`` does (docs/THEORY.md §9).
* ``"berge"`` (wider inputs, including object-dtype masks past 62
  dimensions): the clauses are the distinct non-zero cells of
  ``dom[rep, *] & B``, solved by the Berge expansion of
  :mod:`repro.core.hitting`, which also serves the non-seed extension.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..obs.tracing import tick
from .bitset import bit, distinct_masks, iter_bits
from .dominance import PairwiseMatrices
from .hitting import minimal_hitting_sets
from .types import Dataset

__all__ = ["SeedGroup", "compute_seed_groups", "seed_route", "singleton_decisive"]


#: Widest space the subset-count route serves.  Its cost per c-group is
#: ``d·2^d`` cell updates whatever the seeds; Berge's grows with the seed
#: count and the clause family instead.  Both routes on the same c-groups,
#: one core, Berge → table (EXPERIMENTS.md, "`seed_decisive` by part"):
#: dense inputs gain at every width tried (anti 200×16 18.0 → 0.6 s, anti
#: 200×18 90 → 2.8 s), while inputs with few seeds, whose clause families
#: are tiny, pay the table's ``2^d`` floor.  That loss stays under 0.05 s
#: up to d = 16 (independent 40×16 0.08 → 0.13 s) and grows to about
#: 0.3 s at d = 18 and 1.3 s at d = 20 (independent 40×20 1.1 → 2.4 s).
_TABLE_MAX_DIMS = 16

#: Most cells one block of the table route materialises: its stacked
#: rows, per-root count tables and per-c-group hitting tables each stay
#: within it.
_CELL_BUDGET = 1 << 18


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


def seed_route(n_dims: int) -> str:
    """The route :func:`compute_seed_groups` takes: ``"table"`` or ``"berge"``."""
    return "table" if n_dims <= _TABLE_MAX_DIMS else "berge"


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
    Both routes compute each root's dominance row once.
    """
    if seed_route(dataset.n_dims) == "table":
        verdicts = _table_verdicts(matrices, cgroups)
    else:
        verdicts = _berge_verdicts(matrices, cgroups)
    seeds = matrices.indices
    groups: list[SeedGroup] = []
    for (local_members, subspace), decisive in zip(cgroups, verdicts):
        if decisive is None:
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


def _table_verdicts(
    matrices: PairwiseMatrices, cgroups: list[tuple[tuple[int, ...], int]]
) -> Iterator[tuple[int, ...] | None]:
    """Per c-group, its sorted decisive subspaces, or None when dropped.

    The subset-count route: c-groups arrive ordered by smallest member, and
    each run sharing a root is read off that root's table
    (:func:`_subset_counts`).  Blocks of whole runs keep their rows and
    tables within :data:`_CELL_BUDGET` cells, and their c-groups are solved
    in chunks of the same size (:func:`_decisive_from_counts`).
    """
    if not cgroups:
        return
    n_dims = matrices.dataset.n_dims
    per_block = max(1, _CELL_BUDGET >> n_dims)
    # Roots per block: their tables and their stacked rows both fit.
    roots_per_block = max(1, min(per_block, _CELL_BUDGET // len(matrices)))
    roots = np.array([members[0] for members, _ in cgroups])
    sizes = np.array([len(members) for members, _ in cgroups])
    subspaces = np.array([subspace for _, subspace in cgroups], dtype=np.int64)
    # run r holds c-groups [run_starts[r], run_starts[r + 1]).
    run_starts = np.concatenate(
        ([0], np.flatnonzero(roots[1:] != roots[:-1]) + 1, [len(cgroups)])
    )
    for first_run in range(0, len(run_starts) - 1, roots_per_block):
        runs = run_starts[first_run : first_run + roots_per_block + 1]
        counts = _subset_counts(matrices.dom_rows_array(roots[runs[:-1]]), n_dims)
        # Each c-group of the block, as a row of ``counts``.
        owner = np.repeat(np.arange(len(runs) - 1), np.diff(runs))
        for lo in range(0, len(owner), per_block):
            rows = owner[lo : lo + per_block]
            chunk = slice(runs[0] + lo, runs[0] + lo + len(rows))
            verdicts = _decisive_from_counts(
                counts[rows], subspaces[chunk], sizes[chunk], n_dims
            )
            tick(len(verdicts))
            yield from verdicts


def _subset_counts(rows: np.ndarray, n_dims: int) -> np.ndarray:
    """Subset-count tables ``N[r, x] = #{o : rows[r][o] ⊆ x}``.

    Each row's cell histogram, then the zeta (subset-sum) transform: pass
    ``j`` adds every cell without bit ``j`` into the cell with it.  Counts
    are at most the seed count, so int32 holds them.
    """
    cells = 1 << n_dims
    counts = np.empty((len(rows), cells), dtype=np.int32)
    for r, row in enumerate(rows):
        counts[r] = np.bincount(row, minlength=cells)
    for j in range(n_dims):
        halves = counts.reshape(len(rows), -1, 2, 1 << j)
        halves[:, :, 1, :] += halves[:, :, 0, :]
    return counts


def _decisive_from_counts(
    counts: np.ndarray, subspaces: np.ndarray, sizes: np.ndarray, n_dims: int
) -> list[tuple[int, ...] | None]:
    """Keep verdicts and decisive subspaces from each c-group's root table.

    ``counts[g]`` is the subset-count table of c-group ``g``'s root.  With
    ``D`` the full space, the group is kept iff ``N[D∖B] = |G|`` (the
    members are the only seeds the root beats nowhere in ``B``).  A non-empty
    ``C ⊆ B`` is a hitting set iff ``N[D∖C] = N[D∖B]``, and decisive iff
    no ``C∖{d}`` is one; with no outside seed that leaves the singletons,
    :func:`singleton_decisive`.  ``N[D∖C]`` is ``counts[g, ::-1][C]``.
    """
    full = (1 << n_dims) - 1
    free = counts[np.arange(len(counts)), full ^ subspaces]
    kept = free == sizes
    out: list[tuple[int, ...] | None] = [None] * len(counts)
    if not kept.any():
        return out
    subspaces = subspaces[kept]
    cells = np.arange(full + 1)
    hits = counts[kept, ::-1] == free[kept][:, None]
    hits &= (cells & ~subspaces[:, None]) == 0
    hits[:, 0] = False
    # below[g, C]: some C∖{d} is a hitting set.
    below = np.zeros_like(hits)
    for j in range(n_dims):
        low = hits.reshape(len(hits), -1, 2, 1 << j)
        below.reshape(len(hits), -1, 2, 1 << j)[:, :, 1, :] |= low[:, :, 0, :]
    g, c = np.nonzero(hits & ~below)
    ends = np.cumsum(np.bincount(g, minlength=len(hits))).tolist()
    decisive = c.tolist()
    for i, start, stop in zip(np.flatnonzero(kept).tolist(), [0, *ends], ends):
        out[i] = tuple(decisive[start:stop])
    return out


def _berge_verdicts(
    matrices: PairwiseMatrices, cgroups: list[tuple[tuple[int, ...], int]]
) -> Iterator[tuple[int, ...] | None]:
    """Per c-group, its sorted decisive subspaces, or None when dropped.

    The Berge route, one :func:`_clause_verdict` per c-group.
    """
    root, row = -1, None
    for local_members, subspace in cgroups:
        if local_members[0] != root:
            # C-groups arrive ordered by smallest member, so each root's
            # dominance row is computed once and dropped at the next root.
            root = local_members[0]
            row = matrices.dom_row_array(root)
        tick()
        yield _clause_verdict(row, len(local_members), subspace)


def _clause_verdict(
    dom_row: np.ndarray, n_members: int, subspace: int
) -> tuple[int, ...] | None:
    """Decisive subspaces of one maximal c-group, or None when dropped.

    ``dom_row`` is the representative's packed dominance row over all
    seeds; the clause family is ``B ∩ dom[rep, u]`` for every outside seed
    ``u`` (Corollary 1).  Every member coincides with the representative on
    ``B``, so its cell of ``dom_row & B`` is 0, and the group is kept iff the
    ``n_members`` members are the only zeros: no outside seed has an empty
    clause.  The clauses are then the distinct non-zero cells.
    """
    clause_arr = dom_row & subspace
    if clause_arr.size - np.count_nonzero(clause_arr) != n_members:
        return None
    # The sorted distinct cells start with the members' 0.
    clauses = distinct_masks(clause_arr)[1:]
    if clauses:
        return tuple(sorted(minimal_hitting_sets(clauses)))
    return singleton_decisive(subspace)
