"""Named, versioned cube snapshots on disk.

A :class:`SnapshotStore` manages the offline half of the serving split: a
batch job computes a compressed cube and *publishes* it under a name; the
online service loads the active version and answers queries from it.  The
on-disk layout is one directory per snapshot name, one subdirectory per
version, plus an atomically-replaced ``CURRENT`` pointer file::

    <root>/
      fig8/
        v000001/
          dataset.csv      the bound dataset (schema-bearing CSV)
          cube.bin         the compressed cube (repro.cube.io format)
          meta.json        version metadata (fingerprint, sizes)
        v000002/...
        CURRENT            "v000002" -- the active version

Publishing is crash-safe end to end: the version directory is assembled
under a temporary name and renamed into place (atomic on POSIX), and the
``CURRENT`` pointer is replaced via the same write-temp-then-``os.replace``
dance :func:`~repro.cube.io.save_cube` uses -- a reader never observes a
half-written version or a pointer to one.

Every stored cube is built by Stellar, so ``cube.bin`` is derived data: a
version whose ``cube.bin`` is missing, corrupt or of an older format is
rebuilt from ``dataset.csv`` on load and checked against ``meta.json``.

Loading is *lazy* by design: nothing is read at construction time, and the
serving layer (:mod:`repro.serve.app`) only loads a snapshot on its first
request, then hot-reloads when the ``CURRENT`` pointer moves.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.types import Dataset
from ..cube.compressed import CompressedSkylineCube
from ..cube.io import atomic_write_bytes, dataset_fingerprint, load_cube, save_cube
from ..data.io import load_csv, save_csv
from ..obs.logging import get_logger
from ..obs.metrics import registry
from ..obs.tracing import span

__all__ = ["SnapshotStore", "SnapshotInfo"]

_LOG = get_logger("serve.store")

#: Snapshot names are path components exposed over HTTP: keep them tame.
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_RE = re.compile(r"^v\d{6}$")

_CURRENT = "CURRENT"
_DATASET_FILE = "dataset.csv"
_CUBE_FILE = "cube.bin"
_META_FILE = "meta.json"


@dataclass(frozen=True)
class SnapshotInfo:
    """Metadata of one published snapshot version."""

    name: str
    version: str
    created_unix: float
    fingerprint: str
    n_objects: int
    n_dims: int
    n_groups: int

    def to_dict(self) -> dict:
        """JSON-friendly representation (what ``/v1/snapshots`` returns)."""
        return asdict(self)


class SnapshotStore:
    """Versioned cube snapshots under one root directory.

    Thread- and process-safe for the operations a serving fleet performs:
    concurrent readers always see complete versions, concurrent publishers
    are serialised by the atomicity of directory renames (a lost race is
    retried under the next version number).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- publishing --------------------------------------------------------

    def publish(
        self,
        name: str,
        dataset: Dataset,
        cube: CompressedSkylineCube,
        *,
        activate: bool = True,
    ) -> SnapshotInfo:
        """Write ``cube`` (and its dataset) as a new version of ``name``.

        The version directory appears atomically; with ``activate`` (the
        default) the ``CURRENT`` pointer then moves to it, which live
        services pick up on their next reload check.
        """
        if cube.dataset is not dataset and dataset_fingerprint(
            cube.dataset
        ) != dataset_fingerprint(dataset):
            raise ValueError("cube was not computed from the supplied dataset")
        snap_dir = self._snapshot_dir(name, create=True)
        with span("serve.store.publish", snapshot=name):
            staging = Path(
                tempfile.mkdtemp(prefix=".publish-", dir=snap_dir)
            )
            try:
                save_csv(dataset, staging / _DATASET_FILE)
                save_cube(cube, staging / _CUBE_FILE)
                info_base = {
                    "name": name,
                    "created_unix": time.time(),
                    "fingerprint": dataset_fingerprint(dataset),
                    "n_objects": dataset.n_objects,
                    "n_dims": dataset.n_dims,
                    "n_groups": len(cube.groups),
                }
                version = self._claim_version(snap_dir, staging, info_base)
            except BaseException:
                shutil.rmtree(staging, ignore_errors=True)
                raise
        info = SnapshotInfo(version=version, **info_base)
        if activate:
            self.activate(name, version)
        registry().counter("serve.store.published").inc()
        _LOG.info(
            "snapshot.published",
            extra={
                "snapshot": name,
                "version": version,
                "groups": info.n_groups,
                "active": activate,
            },
        )
        return info

    def _claim_version(
        self, snap_dir: Path, staging: Path, info_base: dict
    ) -> str:
        """Rename the staging directory to the next free version number."""
        attempt = self._next_version_number(snap_dir)
        while True:
            version = f"v{attempt:06d}"
            # meta.json is (re)written before each rename attempt so the
            # version recorded inside always matches the directory name.
            (staging / _META_FILE).write_text(
                json.dumps({"version": version, **info_base}, indent=1)
            )
            try:
                os.rename(staging, snap_dir / version)
                return version
            except OSError:
                if not (snap_dir / version).exists():
                    raise  # not a lost publish race: propagate
                attempt += 1

    def activate(self, name: str, version: str) -> None:
        """Point ``CURRENT`` at ``version`` (which must exist)."""
        snap_dir = self._snapshot_dir(name)
        if not (snap_dir / version / _META_FILE).is_file():
            raise ValueError(f"snapshot {name!r} has no version {version!r}")
        atomic_write_bytes(snap_dir / _CURRENT, (version + "\n").encode())
        _LOG.info(
            "snapshot.activated", extra={"snapshot": name, "version": version}
        )

    # -- reading -----------------------------------------------------------

    def names(self) -> list[str]:
        """Every snapshot name with at least one published version."""
        out = []
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and self._version_dirs(child):
                out.append(child.name)
        return out

    def versions(self, name: str) -> list[SnapshotInfo]:
        """All published versions of ``name``, oldest first."""
        snap_dir = self._snapshot_dir(name)
        out = []
        for vdir in self._version_dirs(snap_dir):
            out.append(self._read_info(name, vdir))
        return out

    def current_version(self, name: str) -> str | None:
        """The active version of ``name``, or None when nothing is active."""
        pointer = self._snapshot_dir(name) / _CURRENT
        try:
            version = pointer.read_text().strip()
        except OSError:
            return None
        if not _VERSION_RE.match(version):
            return None
        if not (pointer.parent / version / _META_FILE).is_file():
            return None
        return version

    def load(
        self, name: str, version: str | None = None
    ) -> tuple[Dataset, CompressedSkylineCube, SnapshotInfo]:
        """Read one version (the active one by default) back into memory."""
        if version is None:
            version = self.current_version(name)
            if version is None:
                raise ValueError(f"snapshot {name!r} has no active version")
        vdir = self._snapshot_dir(name) / version
        if not (vdir / _META_FILE).is_file():
            raise ValueError(f"snapshot {name!r} has no version {version!r}")
        info = self._read_info(name, vdir)
        with span("serve.store.load", snapshot=name, version=version):
            try:
                cube = load_cube(vdir / _CUBE_FILE)
            except (OSError, ValueError) as exc:
                cube = self._rebuild(vdir, info, exc)
        registry().counter("serve.store.loaded").inc()
        return cube.dataset, cube, info

    @staticmethod
    def _rebuild(
        vdir: Path, info: SnapshotInfo, exc: Exception
    ) -> CompressedSkylineCube:
        """Recompute an unreadable ``cube.bin`` from ``dataset.csv``.

        The CSV stores ``repr`` floats, so the dataset round-trips exactly
        and Stellar reproduces the published cube; the fingerprint and
        group count recorded in ``meta.json`` prove it.
        """
        _LOG.warning(
            "snapshot.rebuilt",
            extra={
                "snapshot": info.name,
                "version": info.version,
                "error": str(exc),
            },
        )
        dataset = load_csv(vdir / _DATASET_FILE)
        cube = CompressedSkylineCube.build(dataset)
        if (
            dataset_fingerprint(dataset) != info.fingerprint
            or len(cube.groups) != info.n_groups
        ):
            raise ValueError(
                f"{vdir}: rebuilt cube does not match meta.json "
                f"(fingerprint or group count differs)"
            )
        registry().counter("serve.store.rebuilt").inc()
        return cube

    # -- internal ----------------------------------------------------------

    def _snapshot_dir(self, name: str, create: bool = False) -> Path:
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid snapshot name {name!r} (use letters, digits, "
                "'.', '_', '-')"
            )
        snap_dir = self.root / name
        if create:
            snap_dir.mkdir(parents=True, exist_ok=True)
        elif not snap_dir.is_dir():
            raise ValueError(f"unknown snapshot {name!r}")
        return snap_dir

    @staticmethod
    def _version_dirs(snap_dir: Path) -> list[Path]:
        return sorted(
            child
            for child in snap_dir.iterdir()
            if child.is_dir()
            and _VERSION_RE.match(child.name)
            and (child / _META_FILE).is_file()
        )

    @staticmethod
    def _next_version_number(snap_dir: Path) -> int:
        versions = SnapshotStore._version_dirs(snap_dir)
        if not versions:
            return 1
        return int(versions[-1].name[1:]) + 1

    def _read_info(self, name: str, vdir: Path) -> SnapshotInfo:
        meta = json.loads((vdir / _META_FILE).read_text())
        return SnapshotInfo(
            name=name,
            version=meta["version"],
            created_unix=float(meta["created_unix"]),
            fingerprint=meta["fingerprint"],
            n_objects=int(meta["n_objects"]),
            n_dims=int(meta["n_dims"]),
            n_groups=int(meta["n_groups"]),
        )
