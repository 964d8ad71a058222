"""LSM-style compaction: fold a WAL segment into a published snapshot.

Compaction replays ``<name>/wal/vNNNNNN.wal`` onto the ``vNNNNNN``
snapshot, publishes the result as the next version through the store's
atomic :meth:`~repro.serve.store.SnapshotStore.publish` (so readers never
observe a half-written snapshot), then retires the segment.  The published
snapshot's dataset fingerprint is byte-equal to the fingerprint of the
replayed in-memory state by construction -- publish serialises exactly the
maintained dataset/cube -- which is what the durability smoke job checks.

The same routine backs the offline ``repro compact`` subcommand and the
serving layer's ``--compact-threshold`` auto-trigger (the latter publishes
from its live maintained state instead of re-replaying, an equivalent but
cheaper path; see :meth:`repro.serve.app.CubeService.compact`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

from ..cube.maintenance import MaintainedCube
from ..obs.logging import get_logger
from ..obs.metrics import registry
from ..obs.tracing import span
from .log import apply_records, recover_segment, retire_segment, wal_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve imports wal)
    from ..serve.store import SnapshotStore

__all__ = ["CompactionResult", "compact_snapshot"]

_LOG = get_logger("wal.compact")

_COMPACTIONS = registry().counter("serve.wal.compactions")


@dataclass(frozen=True)
class CompactionResult:
    """What one compaction did (``new_version`` is None for a no-op)."""

    name: str
    base_version: str
    new_version: str | None
    records: int
    applied: int
    skipped: int
    fingerprint: str | None
    retired_segment: str | None

    def to_dict(self) -> dict:
        """JSON-friendly representation (CLI ``--json`` output)."""
        return asdict(self)


def compact_snapshot(
    store: "SnapshotStore",
    name: str,
    *,
    version: str | None = None,
    activate: bool = True,
) -> CompactionResult:
    """Fold ``version``'s WAL segment (active version by default) forward.

    An empty or missing segment is a no-op: nothing is published and
    ``new_version`` is None.  Otherwise the replayed state is published as
    the next version, activated (by default), and the segment retired.
    """
    if version is None:
        version = store.current_version(name)
        if version is None:
            raise ValueError(f"snapshot {name!r} has no active version")
    segment = wal_path(store.root, name, version)
    records = recover_segment(segment)
    if not records:
        return CompactionResult(
            name=name,
            base_version=version,
            new_version=None,
            records=0,
            applied=0,
            skipped=0,
            fingerprint=None,
            retired_segment=None,
        )
    with span("wal.compact", snapshot=name, version=version):
        dataset, cube, _ = store.load(name, version)
        maintained = MaintainedCube.adopt(cube)
        applied, skipped = apply_records(maintained, records)
        info = store.publish(
            name, maintained.dataset, maintained.cube, activate=activate
        )
        retired = retire_segment(segment)
    _COMPACTIONS.inc()
    _LOG.info(
        "wal.compacted",
        extra={
            "snapshot": name,
            "base_version": version,
            "new_version": info.version,
            "applied": applied,
            "skipped": skipped,
        },
    )
    return CompactionResult(
        name=name,
        base_version=version,
        new_version=info.version,
        records=len(records),
        applied=applied,
        skipped=skipped,
        fingerprint=info.fingerprint,
        retired_segment=str(retired) if retired is not None else None,
    )
