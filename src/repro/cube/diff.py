"""Temporal diff of two compressed skyline cubes (Emerging Skycube style).

With snapshots versioned as ``vNNNNNN``, comparing two generations of the
same logical dataset becomes a natural analysis workload (PAPERS.md,
*Emerging Skycube*): which skyline groups entered or left, which decisive
subspaces grew or shrank, and how much each subspace's skyline churned.
:func:`diff_cubes` answers all three from the compressed representation
alone -- no skyline is recomputed.

Objects are matched across versions by *label* (labels are the stable
identity the maintenance WAL logs); groups are matched by their
``(member labels, subspace)`` key, the compressed cube's identity.  The
per-subspace churn count for subspace ``A`` is the number of labels whose
``A``-skyline membership differs between the versions -- computed from the
groups' decisive intervals (``C ⊆ A ⊆ B``) as per-label Python sets of
subspace masks.  (A dense ``(labels, 2^d)`` boolean matrix would need
~655 MB at 10k labels and :data:`MAX_CHURN_DIMS` dimensions.)

Every diff carries a :class:`DiffPlan` (the EXPLAIN pattern of
:mod:`repro.cube.query`): work counters and elapsed time, so
``repro diff --explain`` and the ``/v1/diff`` endpoint stay auditable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..core.bitset import iter_supersets
from ..core.types import Dataset
from ..obs.metrics import registry
from ..obs.tracing import span
from .compressed import CompressedSkylineCube

__all__ = ["CubeDiff", "DiffPlan", "GroupDelta", "GroupRef", "diff_cubes"]

#: Churn enumerates every non-empty subspace (``2^d - 1`` of them); above
#: this many dimensions the enumeration is skipped and reported as such.
MAX_CHURN_DIMS = 16

_DIFF_SECONDS = registry().histogram("cube.diff.seconds")
_DIFFS = registry().counter("cube.diff.computed")

#: Work counters every diff accumulates; mirrored into ``cube.diff.<name>``
#: registry counters so plan counters equal registry deltas (query.py's
#: auditable-EXPLAIN contract).
DIFF_PLAN_COUNTERS = (
    "groups_old",
    "groups_new",
    "groups_entered",
    "groups_exited",
    "groups_matched",
    "groups_changed",
    "labels_compared",
    "subspaces_scanned",
    "memberships_enumerated",
)


@dataclass(frozen=True)
class GroupRef:
    """A group identified across versions: member labels + subspace."""

    labels: tuple[str, ...]
    subspace: int
    decisive: tuple[int, ...]


@dataclass(frozen=True)
class GroupDelta:
    """A group present in both versions whose decisive set changed."""

    labels: tuple[str, ...]
    subspace: int
    decisive_added: tuple[int, ...]
    decisive_removed: tuple[int, ...]


@dataclass
class DiffPlan:
    """How one diff was computed: work counters, elapsed time."""

    counters: dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in DIFF_PLAN_COUNTERS}
    )
    seconds: float = 0.0
    detail: dict = field(default_factory=dict)

    def count(self, name: str, amount: int = 1) -> None:
        """Accumulate into one of the :data:`DIFF_PLAN_COUNTERS`."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def to_dict(self) -> dict:
        """JSON-friendly representation (what ``/v1/diff`` embeds)."""
        return {
            "counters": dict(self.counters),
            "seconds": self.seconds,
            "detail": dict(self.detail),
        }

    def render(self) -> str:
        """Pretty EXPLAIN text (what ``repro diff --explain`` prints)."""
        c = self.counters
        lines = [
            "EXPLAIN cube.diff",
            f"  groups:                {c['groups_old']} -> {c['groups_new']}"
            f"  (entered: {c['groups_entered']}, exited: {c['groups_exited']},"
            f" changed: {c['groups_changed']})",
            f"  labels compared:       {c['labels_compared']}",
            f"  subspaces scanned:     {c['subspaces_scanned']}",
            f"  memberships enumerated: {c['memberships_enumerated']}",
            f"  elapsed:               {self.seconds * 1e3:.3f} ms",
        ]
        for key, value in self.detail.items():
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CubeDiff:
    """Everything that changed between two cube versions."""

    names: tuple[str, ...]
    n_dims: int
    entered_groups: tuple[GroupRef, ...]
    exited_groups: tuple[GroupRef, ...]
    changed_groups: tuple[GroupDelta, ...]
    #: Labels gaining/losing skyline presence in *some* subspace.
    entered_objects: tuple[str, ...]
    exited_objects: tuple[str, ...]
    #: Labels entering/leaving the full-space skyline specifically.
    fullspace_entered: tuple[str, ...]
    fullspace_exited: tuple[str, ...]
    #: subspace mask -> number of labels whose membership flipped; empty
    #: when churn was skipped (see ``plan.detail['churn_skipped']``).
    churn: dict[int, int]
    churn_skipped: bool
    plan: DiffPlan

    @property
    def total_churn(self) -> int:
        """Total membership flips summed over every subspace."""
        return sum(self.churn.values())

    def top_churn(self, k: int = 10) -> list[tuple[int, int]]:
        """The ``k`` subspaces with the most membership flips."""
        ranked = sorted(self.churn.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[: max(k, 0)]

    def to_dict(self, top: int = 10) -> dict:
        """JSON-friendly representation; churn truncated to ``top`` rows."""
        fmt = self._format_subspace
        return {
            "dimensions": list(self.names),
            "entered_groups": [self._group_dict(g) for g in self.entered_groups],
            "exited_groups": [self._group_dict(g) for g in self.exited_groups],
            "changed_groups": [
                {
                    "labels": list(d.labels),
                    "subspace": fmt(d.subspace),
                    "decisive_added": [fmt(m) for m in d.decisive_added],
                    "decisive_removed": [fmt(m) for m in d.decisive_removed],
                }
                for d in self.changed_groups
            ],
            "entered_objects": list(self.entered_objects),
            "exited_objects": list(self.exited_objects),
            "fullspace_entered": list(self.fullspace_entered),
            "fullspace_exited": list(self.fullspace_exited),
            "churn": {
                "skipped": self.churn_skipped,
                "total": self.total_churn,
                "subspaces_changed": len(self.churn),
                "top": [
                    {"subspace": fmt(mask), "objects_changed": count}
                    for mask, count in self.top_churn(top)
                ],
            },
            "plan": self.plan.to_dict(),
        }

    def render(self, top: int = 10) -> str:
        """Human-readable table (what ``repro diff`` prints)."""
        c = self.plan.counters
        lines = [
            f"groups:    {c['groups_old']} -> {c['groups_new']}"
            f"  (+{len(self.entered_groups)} entered,"
            f" -{len(self.exited_groups)} exited,"
            f" {len(self.changed_groups)} changed decisive)",
            f"objects:   entered: {_join(self.entered_objects)};"
            f" exited: {_join(self.exited_objects)}",
            f"fullspace: entered: {_join(self.fullspace_entered)};"
            f" exited: {_join(self.fullspace_exited)}",
        ]
        if self.churn_skipped:
            lines.append("churn:     skipped (too many dimensions)")
        else:
            lines.append(
                f"churn:     {self.total_churn} membership flips across"
                f" {len(self.churn)} subspaces"
            )
            for mask, count in self.top_churn(top):
                lines.append(f"  {self._format_subspace(mask):<24} {count}")
        return "\n".join(lines)

    def _group_dict(self, ref: GroupRef) -> dict:
        fmt = self._format_subspace
        return {
            "labels": list(ref.labels),
            "subspace": fmt(ref.subspace),
            "decisive": [fmt(m) for m in ref.decisive],
        }

    def _format_subspace(self, mask: int) -> str:
        return ",".join(
            self.names[i] for i in range(self.n_dims) if mask >> i & 1
        )


def _join(labels: tuple[str, ...]) -> str:
    return ", ".join(labels) if labels else "-"


def _group_key(
    cube: CompressedSkylineCube, group
) -> tuple[tuple[str, ...], int]:
    labels = tuple(sorted(cube.dataset.labels[m] for m in group.members))
    return labels, group.subspace


def _group_masks(group) -> set[int]:
    """Every subspace the group covers: ``{A : C ⊆ A ⊆ B for some C}``."""
    return {
        sub for c in group.decisive for sub in iter_supersets(c, group.subspace)
    }


def _memberships(cube: CompressedSkylineCube, plan: DiffPlan) -> dict[str, set[int]]:
    """label -> set of subspace masks where the label is a skyline member."""
    out: dict[str, set[int]] = {}
    for group in cube.groups:
        masks = _group_masks(group)
        plan.count("memberships_enumerated", len(masks) * len(group.members))
        for m in group.members:
            out.setdefault(cube.dataset.labels[m], set()).update(masks)
    return out


def _check_comparable(old: Dataset, new: Dataset) -> None:
    if old.names != new.names or old.directions != new.directions:
        raise ValueError(
            "cannot diff cubes over different schemas: "
            f"{old.names}/{old.directions} vs {new.names}/{new.directions}"
        )


def diff_cubes(
    old: CompressedSkylineCube,
    new: CompressedSkylineCube,
    *,
    max_churn_dims: int = MAX_CHURN_DIMS,
) -> CubeDiff:
    """Diff two cubes over the same schema; see the module docstring.

    Churn is skipped -- not approximated -- beyond ``max_churn_dims``
    dimensions.
    """
    _check_comparable(old.dataset, new.dataset)
    n_dims = old.dataset.n_dims
    plan = DiffPlan()
    t0 = time.perf_counter()
    with span("cube.diff"):
        old_groups = {_group_key(old, g): g for g in old.groups}
        new_groups = {_group_key(new, g): g for g in new.groups}
        plan.count("groups_old", len(old_groups))
        plan.count("groups_new", len(new_groups))

        entered = tuple(
            GroupRef(labels=key[0], subspace=key[1], decisive=g.decisive)
            for key, g in sorted(new_groups.items())
            if key not in old_groups
        )
        exited = tuple(
            GroupRef(labels=key[0], subspace=key[1], decisive=g.decisive)
            for key, g in sorted(old_groups.items())
            if key not in new_groups
        )
        changed = []
        for key in sorted(old_groups.keys() & new_groups.keys()):
            plan.count("groups_matched")
            before = set(old_groups[key].decisive)
            after = set(new_groups[key].decisive)
            if before != after:
                changed.append(
                    GroupDelta(
                        labels=key[0],
                        subspace=key[1],
                        decisive_added=tuple(sorted(after - before)),
                        decisive_removed=tuple(sorted(before - after)),
                    )
                )
        plan.count("groups_entered", len(entered))
        plan.count("groups_exited", len(exited))
        plan.count("groups_changed", len(changed))

        old_present = {lab for labels, _ in old_groups for lab in labels}
        new_present = {lab for labels, _ in new_groups for lab in labels}
        full = (1 << n_dims) - 1
        old_full = {old.dataset.labels[i] for i in old.skyline_of(full)}
        new_full = {new.dataset.labels[i] for i in new.skyline_of(full)}

        churn: dict[int, int] = {}
        churn_skipped = n_dims > max_churn_dims
        if churn_skipped:
            plan.detail["churn_skipped"] = (
                f"{n_dims} dims > max_churn_dims={max_churn_dims}"
            )
        else:
            plan.count("subspaces_scanned", (1 << n_dims) - 1)
            union = sorted(old_present | new_present)
            plan.count("labels_compared", len(union))
            by_old = _memberships(old, plan)
            by_new = _memberships(new, plan)
            for label in union:
                flips = by_old.get(label, set()) ^ by_new.get(label, set())
                for mask in flips:
                    churn[mask] = churn.get(mask, 0) + 1
    plan.seconds = time.perf_counter() - t0
    for name, amount in plan.counters.items():
        if amount:
            registry().counter(f"cube.diff.{name}").inc(amount)
    _DIFFS.inc()
    _DIFF_SECONDS.observe(plan.seconds)
    return CubeDiff(
        names=old.dataset.names,
        n_dims=n_dims,
        entered_groups=entered,
        exited_groups=exited,
        changed_groups=tuple(changed),
        entered_objects=tuple(sorted(new_present - old_present)),
        exited_objects=tuple(sorted(old_present - new_present)),
        fullspace_entered=tuple(sorted(new_full - old_full)),
        fullspace_exited=tuple(sorted(old_full - new_full)),
        churn=churn,
        churn_skipped=churn_skipped,
        plan=plan,
    )
