"""Incremental maintenance of a compressed skyline cube.

The paper lists frequent-update support (Xia & Zhang, SIGMOD 2006) as the
natural follow-up to cube materialisation.  This module implements a sound
incremental layer with two *fast paths* derived from the same theory that
powers Stellar's non-seed step:

* **Irrelevant insert.**  A new object that is dominated by some existing
  object *and* coincides with no current *seed* on any dimension can
  neither enter the full-space skyline (domination chains end in a seed,
  and a dominated insert cannot evict one) nor perturb any group: every
  group's shared values are seed values, so a share mask can only be
  non-empty through a value tie with a seed (Theorem 5's relevance
  condition).  The cube is provably unchanged.
* **Irrelevant delete.**  Removing an object that belongs to no skyline
  group leaves every group and every decisive subspace intact.  Such an
  object is a non-seed, so the seed lattice is untouched; and its
  hitting-set clause against any group ``(G, B)`` is *neutral*: were some
  decisive subspace ``C`` of the group contained in the object's share
  mask, the seed-decisive subspace inside ``C`` would have pulled the
  object into a child group -- contradiction.  Every decisive subspace
  therefore already hits the clause, and dropping a clause that all
  minimal transversals hit changes no minimal transversal
  (docs/THEORY.md §9; the non-seed extension skips its Berge steps and
  emits untouched seed groups by the same lemma).

Everything else falls back to a full Stellar recomputation.  The class
tracks how often each path fires, which example
``examples/incremental_updates.py`` turns into a small study.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ..core.stellar import stellar
from ..core.types import Dataset
from .compressed import CompressedSkylineCube

__all__ = ["MaintenanceStats", "MaintainedCube"]


@dataclass
class MaintenanceStats:
    """How updates were served."""

    fast_inserts: int = 0
    full_inserts: int = 0
    fast_deletes: int = 0
    full_deletes: int = 0
    history: list[str] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Total number of updates served."""
        return (
            self.fast_inserts
            + self.full_inserts
            + self.fast_deletes
            + self.full_deletes
        )


class MaintainedCube:
    """A compressed skyline cube that absorbs inserts and deletes."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        result = stellar(dataset)
        self._cube = CompressedSkylineCube(dataset, result.groups)
        self._seeds: list[int] = list(result.seeds)
        self.stats = MaintenanceStats()

    @classmethod
    def adopt(cls, cube: CompressedSkylineCube) -> "MaintainedCube":
        """Wrap an already-computed cube without re-running Stellar.

        The seed set is recovered from the cube itself: the seeds are by
        definition the full-space skyline objects, and the cube answers
        that query from its groups alone.  This is what lets the serving
        layer (:mod:`repro.serve`) attach incremental maintenance to a
        snapshot loaded from disk at zero extra build cost.
        """
        self = cls.__new__(cls)
        self._dataset = cube.dataset
        self._cube = cube
        full_space = (1 << cube.dataset.n_dims) - 1
        self._seeds = cube.skyline_of(full_space) if full_space else []
        self.stats = MaintenanceStats()
        return self

    @property
    def seeds(self) -> list[int]:
        """Indices of the current full-space skyline objects."""
        return list(self._seeds)

    @property
    def dataset(self) -> Dataset:
        """The current object set, reflecting all applied updates."""
        return self._dataset

    @property
    def cube(self) -> CompressedSkylineCube:
        """The up-to-date compressed cube over :attr:`dataset`."""
        return self._cube

    # -- updates -----------------------------------------------------------

    def check_insert(
        self, row: list[float], label: str | None = None
    ) -> None:
        """Raise ``ValueError`` iff :meth:`insert` would reject the update.

        Validation is separated from application so a write-ahead logger
        can refuse an invalid mutation *before* logging it: a rejected
        update must leave the WAL, the stats counters, and the cube all
        equally untouched.
        """
        if label is not None and label in self._dataset.labels:
            raise ValueError(f"duplicate object label {label!r}")
        if len(row) != self._dataset.n_dims:
            raise ValueError(
                f"row has {len(row)} values, dataset has "
                f"{self._dataset.n_dims} dimensions"
            )
        for value in row:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"row values must be numbers, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"row values must be finite, got {value!r}")

    def check_delete(self, label: str) -> None:
        """Raise ``ValueError`` iff :meth:`delete` would reject the update."""
        if label not in self._dataset.labels:
            raise ValueError(f"unknown object label {label!r}")

    def insert(self, row: list[float], label: str | None = None) -> bool:
        """Insert one object; returns True when the fast path applied."""
        self.check_insert(row, label)
        if label is None:
            label = self._fresh_label()
        new_dataset = Dataset(
            values=np.vstack([self._dataset.values, np.asarray(row, dtype=np.float64)])
            if self._dataset.n_objects
            else np.asarray([row], dtype=np.float64),
            names=self._dataset.names,
            directions=self._dataset.directions,
            labels=self._dataset.labels + (label,),
        )
        fast = self._dataset.n_objects > 0 and self._insert_is_irrelevant(
            new_dataset.minimized[-1]
        )
        if fast:
            # The groups and seeds are unchanged; rebind the cube to the new
            # dataset so indices (which are append-only) stay valid.
            self._cube = CompressedSkylineCube(new_dataset, self._cube.groups)
            self.stats.fast_inserts += 1
            self.stats.history.append(f"insert {label}: fast")
        else:
            # Build first: a build that raises leaves this cube unchanged.
            result = stellar(new_dataset)
            self._cube = CompressedSkylineCube(new_dataset, result.groups)
            self._seeds = list(result.seeds)
            self.stats.full_inserts += 1
            self.stats.history.append(f"insert {label}: full")
        self._dataset = new_dataset
        return fast

    def delete(self, label: str) -> bool:
        """Delete one object by label; returns True when the fast path applied.

        The fast path requires the object to appear in no skyline group.
        Note indices shift on delete, so the cube is re-indexed even on the
        fast path (groups themselves are reused).
        """
        self.check_delete(label)
        victim = self._dataset.labels.index(label)
        in_any_group = any(victim in g.members for g in self._cube.groups)
        keep = [i for i in range(self._dataset.n_objects) if i != victim]
        new_dataset = self._dataset.take(keep)
        if not in_any_group:
            # An ungrouped object is never a seed (every seed has at least
            # its singleton group), so the seed set survives the remap.
            remap = {old: new for new, old in enumerate(keep)}
            regrouped = [
                type(g)(
                    members=frozenset(remap[m] for m in g.members),
                    subspace=g.subspace,
                    decisive=g.decisive,
                    projection=g.projection,
                )
                for g in self._cube.groups
            ]
            self._dataset = new_dataset
            self._cube = CompressedSkylineCube(new_dataset, regrouped)
            self._seeds = [remap[s] for s in self._seeds]
            self.stats.fast_deletes += 1
            self.stats.history.append(f"delete {label}: fast")
            return True
        result = stellar(new_dataset)
        self._dataset = new_dataset
        self._cube = CompressedSkylineCube(new_dataset, result.groups)
        self._seeds = list(result.seeds)
        self.stats.full_deletes += 1
        self.stats.history.append(f"delete {label}: full")
        return False

    # -- internal ------------------------------------------------------------

    def _insert_is_irrelevant(self, new_min_row: np.ndarray) -> bool:
        """Dominated by an existing object, value-disjoint from every seed."""
        minimized = self._dataset.minimized
        if self._seeds and bool(
            np.any(minimized[self._seeds] == new_min_row)
        ):
            # A value tie with a seed could make the insert *relevant* to
            # some group (non-empty share mask): recompute.
            return False
        # Dominated by any existing object suffices: the dominated-by
        # relation always reaches a full-space skyline object transitively,
        # so a dominated insert can never become a seed nor evict one.
        no_worse = np.all(minimized <= new_min_row, axis=1)
        strictly = np.any(minimized < new_min_row, axis=1)
        return bool((no_worse & strictly).any())

    def _fresh_label(self) -> str:
        base = self._dataset.n_objects + 1
        existing = set(self._dataset.labels)
        candidate = f"P{base}"
        while candidate in existing:
            base += 1
            candidate = f"P{base}"
        return candidate
