"""Dataset model and result types for skyline-cube computation.

The paper works with a set of objects ``S`` in an ``n``-dimensional numeric
space and assumes *smaller is better* on every dimension.  Real datasets mix
directions (the NBA table prefers *larger* totals), so :class:`Dataset`
carries a per-dimension :class:`Direction` and exposes a *minimized* view --
a numeric matrix in which smaller is uniformly better -- that every algorithm
in the library consumes.  Negation is order-reversing and injective, so
dominance and value-coincidence computed on the minimized view agree exactly
with the user's original semantics.

Equality of values is exact (as in the paper, which truncates synthetic data
to four decimal digits precisely to *create* coincidence); callers who want
tolerant matching should quantize their data first, e.g. with
:func:`repro.data.generators.truncate_decimals`.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from operator import lt

import numpy as np

from .bitset import (
    DEFAULT_DIMENSION_NAMES,
    format_mask,
    full_mask,
    iter_bits,
    parse_mask,
    popcount,
)

__all__ = ["Direction", "Dataset", "SkylineGroup", "group_sort_key"]


class Direction(enum.Enum):
    """Preference direction of one dimension."""

    MIN = "min"
    MAX = "max"

    @classmethod
    def coerce(cls, value: "Direction | str") -> "Direction":
        """Accept a :class:`Direction` or the strings ``"min"``/``"max"``."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            raise ValueError(
                f"direction must be 'min' or 'max', got {value!r}"
            ) from None


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable set of multidimensional objects.

    Parameters
    ----------
    values:
        ``(n_objects, n_dims)`` numeric matrix of the *raw* attribute values.
    names:
        Dimension names; defaults to ``A, B, C, ...`` like the paper.
    directions:
        Per-dimension preference; defaults to MIN everywhere.
    labels:
        Optional object labels (e.g. ``P1 ... P5`` or player names); defaults
        to ``P1 ... Pn``.
    """

    values: np.ndarray
    names: tuple[str, ...] = ()
    directions: tuple[Direction, ...] = ()
    labels: tuple[str, ...] = ()
    _minimized: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(
                f"values must be a 2-d matrix, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite (no NaN or inf)")
        object.__setattr__(self, "values", values)

        n, d = values.shape
        names = tuple(self.names) if self.names else tuple(
            DEFAULT_DIMENSION_NAMES[i] if i < len(DEFAULT_DIMENSION_NAMES) else f"D{i}"
            for i in range(d)
        )
        if len(names) != d:
            raise ValueError(f"expected {d} dimension names, got {len(names)}")
        if len(set(names)) != d:
            raise ValueError("dimension names must be unique")
        object.__setattr__(self, "names", names)

        if self.directions:
            directions = tuple(Direction.coerce(x) for x in self.directions)
        else:
            directions = (Direction.MIN,) * d
        if len(directions) != d:
            raise ValueError(f"expected {d} directions, got {len(directions)}")
        object.__setattr__(self, "directions", directions)

        labels = tuple(self.labels) if self.labels else tuple(
            f"P{i + 1}" for i in range(n)
        )
        if len(labels) != n:
            raise ValueError(f"expected {n} object labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise ValueError("object labels must be unique")
        object.__setattr__(self, "labels", labels)

        minimized = values.copy()
        for i, direction in enumerate(directions):
            if direction is Direction.MAX:
                minimized[:, i] = -minimized[:, i]
        minimized.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "_minimized", minimized)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[Sequence[float]],
        names: Sequence[str] | None = None,
        directions: Sequence[Direction | str] | None = None,
        labels: Sequence[str] | None = None,
    ) -> "Dataset":
        """Build a dataset from an iterable of per-object value sequences."""
        matrix = np.asarray(list(rows), dtype=np.float64)
        if matrix.size == 0:
            matrix = matrix.reshape(0, len(names) if names else 0)
        return cls(
            values=matrix,
            names=tuple(names) if names else (),
            directions=tuple(Direction.coerce(x) for x in directions)
            if directions
            else (),
            labels=tuple(labels) if labels else (),
        )

    # -- basic shape -----------------------------------------------------

    @property
    def n_objects(self) -> int:
        """Number of objects in the dataset."""
        return self.values.shape[0]

    @property
    def n_dims(self) -> int:
        """Number of dimensions of the space."""
        return self.values.shape[1]

    @property
    def full_space(self) -> int:
        """Mask of the full space ``D``."""
        return full_mask(self.n_dims)

    def __len__(self) -> int:
        return self.n_objects

    # -- views -----------------------------------------------------------

    @property
    def minimized(self) -> np.ndarray:
        """Read-only matrix where smaller is better on every dimension."""
        return self._minimized

    def row(self, i: int) -> np.ndarray:
        """Raw values of object ``i``."""
        return self.values[i]

    def projection(self, i: int, subspace: int) -> tuple[float, ...]:
        """Raw projection of object ``i`` onto ``subspace`` (Definition of u_B).

        Python floats, as a cube read back from disk holds them.
        """
        return tuple(self.values[i, list(iter_bits(subspace))].tolist())

    def min_projection(self, i: int, subspace: int) -> tuple[float, ...]:
        """Minimized projection of object ``i`` onto ``subspace``."""
        return tuple(self._minimized[i, d] for d in iter_bits(subspace))

    # -- derivation ------------------------------------------------------

    def restrict_dims(self, subspace: int) -> "Dataset":
        """New dataset keeping only the dimensions in ``subspace``.

        Used by the dimensionality sweeps ("the first d dimensions") of the
        evaluation section.
        """
        dims = list(iter_bits(subspace))
        if not dims:
            raise ValueError("cannot restrict to the empty subspace")
        return Dataset(
            values=self.values[:, dims],
            names=tuple(self.names[d] for d in dims),
            directions=tuple(self.directions[d] for d in dims),
            labels=self.labels,
        )

    def prefix_dims(self, d: int) -> "Dataset":
        """New dataset with the first ``d`` dimensions (paper's d-sweep)."""
        if not 1 <= d <= self.n_dims:
            raise ValueError(f"d must be in [1, {self.n_dims}], got {d}")
        return self.restrict_dims(full_mask(d))

    def take(self, indices: Sequence[int]) -> "Dataset":
        """New dataset with the selected objects (paper's size sweep)."""
        idx = list(indices)
        return Dataset(
            values=self.values[idx],
            names=self.names,
            directions=self.directions,
            labels=tuple(self.labels[i] for i in idx),
        )

    # -- formatting ------------------------------------------------------

    def format_subspace(self, mask: int) -> str:
        """Render a subspace mask with this dataset's dimension names."""
        return format_mask(mask, self.names)

    def parse_subspace(self, text: str) -> int:
        """Parse a subspace written with this dataset's dimension names."""
        return parse_mask(text, self.names)

    def format_objects(self, members: Iterable[int]) -> str:
        """Render a set of objects paper-style, e.g. ``P2P5``."""
        ordered = sorted(members)
        labels = [self.labels[i] for i in ordered]
        if all(len(x) <= 3 for x in labels):
            return "".join(labels)
        return ",".join(labels)


@dataclass(frozen=True, order=False)
class SkylineGroup:
    """A skyline group with its signature (Definition 1 + Definition 2).

    Attributes
    ----------
    members:
        Indices of the objects in the group ``G``.
    subspace:
        The group's *maximal subspace* ``B`` as a bitmask.
    decisive:
        The complete set of decisive subspaces ``C_1 ... C_k`` (bitmasks,
        sorted for determinism).  Always non-empty for a valid group.
    projection:
        The shared raw values ``G_B`` in increasing-dimension order.
    """

    members: frozenset[int]
    subspace: int
    decisive: tuple[int, ...]
    projection: tuple[float, ...]

    def __post_init__(self) -> None:
        members, decisive = self.members, self.decisive
        if not members:
            raise ValueError("a skyline group must contain at least one object")
        if self.subspace == 0:
            raise ValueError("a skyline group's maximal subspace is non-empty")
        if len(self.projection) != popcount(self.subspace):
            raise ValueError(
                "projection length must equal the subspace dimensionality"
            )
        # Fields already in canonical form (as Stellar builds them) are kept
        # as passed: rebuilding them costs more than the rest of the checks.
        if type(members) is not frozenset:
            object.__setattr__(self, "members", frozenset(members))
        if type(decisive) is not tuple or not (
            len(decisive) < 2 or all(map(lt, decisive, decisive[1:]))
        ):
            object.__setattr__(self, "decisive", tuple(sorted(set(decisive))))

    @property
    def key(self) -> tuple[tuple[int, ...], int]:
        """Canonical identity of the group: (sorted members, subspace)."""
        return (tuple(sorted(self.members)), self.subspace)

    def signature(self, dataset: Dataset) -> str:
        """Paper-style signature, e.g. ``(P2P5, (2,*,*,3), A, D)``.

        Dimensions outside the maximal subspace print as ``*``.
        """
        shared = dict(zip(_mask_dims(self.subspace), self.projection))
        cells = []
        for d in range(dataset.n_dims):
            if d in shared:
                value = shared[d]
                cells.append(_format_number(value))
            else:
                cells.append("*")
        decisives = ", ".join(dataset.format_subspace(c) for c in self.decisive)
        return (
            f"({dataset.format_objects(self.members)}, "
            f"({','.join(cells)}), {decisives})"
        )

    def covers_subspace(self, subspace: int) -> bool:
        """True when the group's objects are skyline members in ``subspace``.

        By the semantics of decisive subspaces, the group's objects are in
        the skyline of every subspace ``A`` with ``C ⊆ A ⊆ B`` for some
        decisive ``C``.
        """
        if subspace & ~self.subspace:
            return False
        return any(c & ~subspace == 0 for c in self.decisive)


def _mask_dims(mask: int) -> list[int]:
    return [d for d in iter_bits(mask)]


def _format_number(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return f"{value:g}"


def group_sort_key(group: SkylineGroup) -> tuple:
    """Deterministic ordering for reporting and comparing group sets."""
    return (len(group.members), tuple(sorted(group.members)), group.subspace)
