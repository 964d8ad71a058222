"""Dimension bit-set machinery.

Throughout the library a *subspace* is a non-empty subset of the dimensions
``{D_0, ..., D_{n-1}}`` and is represented as a plain Python ``int`` bitmask:
bit ``i`` set means dimension ``i`` participates.  Masks compose with the
usual bitwise operators (``&`` is subspace intersection, ``|`` is union,
``mask1 & ~mask2`` is set difference) which keeps the hot loops of the
Stellar algorithm allocation-free.

This module collects the helpers the rest of the code base shares: iteration
over the set bits, subset enumeration, antichain (minimal-element) filtering,
intersection closure, de-duplication of packed mask vectors, and
pretty-printing masks with dimension names as in the paper (subspace
``{A, C}`` prints as ``"AC"``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "bit",
    "full_mask",
    "iter_bits",
    "bit_list",
    "popcount",
    "is_subset",
    "is_proper_subset",
    "iter_subsets",
    "iter_nonempty_subsets",
    "iter_supersets",
    "iter_all_subspaces",
    "minimal_masks",
    "maximal_masks",
    "absorb_supersets",
    "closed_masks",
    "distinct_masks",
    "mask_of_dims",
    "format_mask",
    "parse_mask",
    "DEFAULT_DIMENSION_NAMES",
]

#: Single-letter names used when a dataset does not define its own, matching
#: the paper's convention of calling dimensions ``A, B, C, ...``.
DEFAULT_DIMENSION_NAMES = tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def bit(i: int) -> int:
    """Return the mask with only dimension ``i`` set."""
    if i < 0:
        raise ValueError(f"dimension index must be non-negative, got {i}")
    return 1 << i


def full_mask(n_dims: int) -> int:
    """Return the mask of the full ``n_dims``-dimensional space."""
    if n_dims < 0:
        raise ValueError(f"number of dimensions must be non-negative, got {n_dims}")
    return (1 << n_dims) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    """Return the set-bit indices of ``mask`` as a list."""
    return list(iter_bits(mask))


def popcount(mask: int) -> int:
    """Number of dimensions in the subspace ``mask``."""
    return mask.bit_count()


def is_subset(sub: int, sup: int) -> bool:
    """True when subspace ``sub`` is contained in subspace ``sup``.

    Written as ``sub & sup == sub`` rather than ``sub & ~sup == 0``: for
    masks beyond 62 dimensions (Python big ints) the complement allocates,
    and this predicate is the hottest operation in the minimal-transversal
    computation.
    """
    return sub & sup == sub


def is_proper_subset(sub: int, sup: int) -> bool:
    """True when ``sub`` is strictly contained in ``sup``."""
    return sub != sup and sub & ~sup == 0


def iter_subsets(mask: int) -> Iterator[int]:
    """Yield every subset of ``mask`` including the empty set and ``mask``.

    Uses the classic sub-mask enumeration trick: ``sub = (sub - 1) & mask``
    walks all 2^k submasks in decreasing numeric order, so we run it in that
    order and include the empty mask last.
    """
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def iter_nonempty_subsets(mask: int) -> Iterator[int]:
    """Yield every non-empty subset of ``mask`` (the empty mask is skipped)."""
    for sub in iter_subsets(mask):
        if sub:
            yield sub


def iter_supersets(mask: int, universe: int) -> Iterator[int]:
    """Yield every superset of ``mask`` within ``universe``.

    The supersets of ``mask`` inside ``universe`` are ``mask | e`` for every
    subset ``e`` of ``universe & ~mask``.
    """
    if not is_subset(mask, universe):
        raise ValueError(
            f"mask {mask:#x} is not contained in universe {universe:#x}"
        )
    extra = universe & ~mask
    for e in iter_subsets(extra):
        yield mask | e


def iter_all_subspaces(n_dims: int) -> Iterator[int]:
    """Yield every non-empty subspace of an ``n_dims``-dimensional space.

    Order is by increasing integer value, which groups low dimensions first;
    callers that need size order should sort by :func:`popcount`.
    """
    for mask in range(1, 1 << n_dims):
        yield mask


def minimal_masks(masks: Iterable[int]) -> list[int]:
    """Return the minimal elements (an antichain) of a family of masks.

    A mask is kept when no *other distinct* mask in the family is a proper
    subset of it.  Duplicates collapse to one representative.  Sorting by
    popcount first makes the filter a single forward pass: a mask can only be
    absorbed by a strictly smaller-or-equal-cardinality mask already kept.
    """
    unique = sorted(set(masks), key=popcount)
    kept: list[int] = []
    for m in unique:
        for k in kept:
            if k & m == k:  # k ⊆ m: m is absorbed
                break
        else:
            kept.append(m)
    return kept


def maximal_masks(masks: Iterable[int]) -> list[int]:
    """Return the maximal elements (an antichain) of a family of masks."""
    unique = sorted(set(masks), key=popcount, reverse=True)
    kept: list[int] = []
    for m in unique:
        if not any(is_subset(m, k) for k in kept):
            kept.append(m)
    return kept


#: ``absorb_supersets`` is the clause-simplification view of the same
#: operation: in a CNF, a clause that is a superset of another clause is
#: implied by it and can be dropped.
absorb_supersets = minimal_masks


def closed_masks(masks: Iterable[int]) -> set[int]:
    """Closure of a family of masks under pairwise intersection.

    Returns every non-empty intersection of a non-empty subfamily.  Adding
    one mask ``m`` to a family with closure ``C`` adds exactly ``m`` and
    ``m & c`` for ``c`` in ``C``, so one pass over the family suffices.
    """
    closure: set[int] = set()
    for m in set(masks):
        closure |= {m & c for c in closure}
        closure.add(m)
    closure.discard(0)
    return closure


def distinct_masks(arr: np.ndarray) -> list[int]:
    """Sorted distinct values of a packed mask vector, as Python ints.

    Works for ``int64`` vectors and for the ``object`` vectors that carry
    masks beyond 62 dimensions.  Sorting and testing neighbours for
    inequality is several times faster than ``np.unique``'s hash path on
    the short vectors Stellar de-duplicates.
    """
    values = np.sort(arr)
    if values.size == 0:
        return []
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    keep[1:] = values[1:] != values[:-1]
    return values[keep].tolist()


def mask_of_dims(dims: Iterable[int]) -> int:
    """Build a mask from an iterable of dimension indices."""
    mask = 0
    for d in dims:
        mask |= bit(d)
    return mask


def format_mask(mask: int, names: Sequence[str] | None = None) -> str:
    """Render ``mask`` with dimension names, paper style.

    >>> format_mask(0b1011)
    'ABD'
    >>> format_mask(0, None)
    '{}'
    """
    if mask == 0:
        return "{}"
    if names is None:
        names = DEFAULT_DIMENSION_NAMES
    parts = []
    for i in iter_bits(mask):
        if i < len(names):
            parts.append(names[i])
        else:
            parts.append(f"D{i}")
    # Join with no separator when every name is a single character (the
    # paper's ``ACD`` style), otherwise comma-separate for readability.
    if all(len(p) == 1 for p in parts):
        return "".join(parts)
    return ",".join(parts)


def parse_mask(text: str, names: Sequence[str] | None = None) -> int:
    """Parse a subspace written with dimension names back into a mask.

    Accepts both the compact single-letter form (``"ACD"``) and the
    comma-separated form (``"price,stops"``).  Parsing is case-sensitive and
    raises :class:`ValueError` on an unknown name.
    """
    if names is None:
        names = DEFAULT_DIMENSION_NAMES
    text = text.strip()
    if text in ("", "{}"):
        return 0
    index = {name: i for i, name in enumerate(names)}
    if "," in text:
        tokens = [t.strip() for t in text.split(",") if t.strip()]
    elif text in index:
        # A whole multi-character dimension name.
        tokens = [text]
    else:
        tokens = list(text)
    mask = 0
    for token in tokens:
        if token not in index:
            raise ValueError(f"unknown dimension name {token!r}")
        mask |= bit(index[token])
    return mask
