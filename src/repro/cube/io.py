"""Persistence for compressed skyline cubes.

A computed cube is a set of skyline groups -- small relative to the data
(that is the paper's whole point).  :func:`save_cube` writes it, together
with its dataset, as one binary file; :func:`load_cube` reads it back.

Layout::

    8 bytes   BINARY_MAGIC ("RSCBIN01")
    4 bytes   little-endian uint32: JSON header length H
    H bytes   JSON header (format, fingerprint, schema, array directory,
              payload_size, payload_sha256)
    N bytes   payload: the arrays of the directory, concatenated at the
              recorded offsets, every dtype explicitly little-endian

Subspace masks (a group's maximal subspace and its decisive subspaces)
are stored as ``ceil(d / 64)`` little-endian ``uint64`` words each, so a
cube of any width round-trips.  Loading maps the file read-only and builds
numpy views straight into the mapping (``np.frombuffer``); nothing is
parsed or copied beyond the JSON header and the checksum pass.

A cube applied to different data would answer queries wrongly, so loading
verifies the payload checksum always and the dataset fingerprint whenever
the caller supplies a dataset; a mismatch raises :class:`ValueError`.

Writes are *atomic*: the payload lands in a temporary file in the target
directory and is moved into place with :func:`os.replace`, so a crash
mid-write can never leave a torn file that :func:`load_cube` half-parses
-- readers see either the old file or the new one.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from ..core.types import Dataset, SkylineGroup, group_sort_key
from .compressed import CompressedSkylineCube

__all__ = [
    "save_cube",
    "load_cube",
    "dataset_fingerprint",
    "cube_fingerprint",
    "BINARY_MAGIC",
    "BINARY_FORMAT",
]

#: 8-byte magic of the cube file format.
BINARY_MAGIC = b"RSCBIN01"
BINARY_FORMAT = "repro-skyline-cube-bin/2"


def dataset_fingerprint(dataset: Dataset) -> str:
    """Stable hash of the dataset's schema and raw values."""
    digest = hashlib.sha256()
    digest.update(repr(dataset.names).encode())
    digest.update(repr([d.value for d in dataset.directions]).encode())
    digest.update(repr(dataset.labels).encode())
    digest.update(dataset.values.tobytes())
    return digest.hexdigest()


def cube_fingerprint(cube: CompressedSkylineCube) -> str:
    """Stable hash of the full cube: dataset plus every group's identity.

    Two cubes hash equal iff their datasets are byte-identical and their
    group sets (members, maximal subspace, decisive subspaces) match --
    the "bit-identical" comparison the durability tests make between a
    WAL-replayed cube and an offline rebuild.
    """
    digest = hashlib.sha256()
    digest.update(dataset_fingerprint(cube.dataset).encode())
    for group in sorted(cube.groups, key=group_sort_key):
        digest.update(
            repr(
                (tuple(sorted(group.members)), group.subspace, group.decisive)
            ).encode()
        )
    return digest.hexdigest()


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a sibling temp file + :func:`os.replace`.

    The temp file lives in the destination directory so the final rename
    stays on one filesystem (where :func:`os.replace` is atomic).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent or "."
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _pack_masks(masks: list[int], words: int) -> np.ndarray:
    """Masks as a ``(len(masks), words)`` array of little-endian uint64."""
    raw = b"".join(m.to_bytes(8 * words, "little") for m in masks)
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), words)


def _unpack_masks(arr: np.ndarray) -> list[int]:
    """Inverse of :func:`_pack_masks`."""
    width = 8 * arr.shape[1]
    raw = arr.tobytes()
    return [
        int.from_bytes(raw[i : i + width], "little")
        for i in range(0, len(raw), width)
    ]


def _offsets(rows: list) -> np.ndarray:
    """CSR offsets of a ragged field: row ``g`` is ``flat[off[g]:off[g+1]]``."""
    offsets = np.zeros(len(rows) + 1, dtype="<i8")
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    return offsets


def save_cube(cube: CompressedSkylineCube, path: str | Path) -> None:
    """Write the cube (and its dataset) to ``path``, atomically."""
    dataset = cube.dataset
    groups = cube.groups
    words = max(1, -(-dataset.n_dims // 64))
    members = [sorted(g.members) for g in groups]
    arrays: dict[str, np.ndarray] = {
        "values": np.ascontiguousarray(dataset.values, dtype="<f8"),
        "subspaces": _pack_masks([g.subspace for g in groups], words),
        "members_off": _offsets(members),
        "members_flat": np.array(
            [m for row in members for m in row], dtype="<i8"
        ),
        "decisive_off": _offsets([g.decisive for g in groups]),
        "decisive_flat": _pack_masks(
            [c for g in groups for c in g.decisive], words
        ),
        "projection_off": _offsets([g.projection for g in groups]),
        "projection_flat": np.array(
            [v for g in groups for v in g.projection], dtype="<f8"
        ),
    }

    directory = []
    payload = bytearray()
    for name, arr in arrays.items():
        directory.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": len(payload),
            }
        )
        payload += arr.tobytes()
    header = {
        "format": BINARY_FORMAT,
        "fingerprint": dataset_fingerprint(dataset),
        "n_objects": dataset.n_objects,
        "n_dims": dataset.n_dims,
        "n_groups": len(groups),
        "names": list(dataset.names),
        "directions": [d.value for d in dataset.directions],
        "labels": list(dataset.labels),
        "payload_size": len(payload),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "arrays": directory,
    }
    header_bytes = json.dumps(header).encode()
    blob = (
        BINARY_MAGIC
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + bytes(payload)
    )
    atomic_write_bytes(path, blob)


def load_cube(
    path: str | Path, dataset: Dataset | None = None
) -> CompressedSkylineCube:
    """Map a cube file and rebuild its cube (and dataset).

    The file is memory-mapped read-only; the dataset's value matrix is a
    zero-copy view into the mapping (the mapping stays alive through the
    arrays' ``base`` references).  The payload checksum is always verified:
    a corrupt or truncated file raises a :class:`ValueError` naming the
    problem instead of feeding garbage columns to the kernels.

    When ``dataset`` is supplied, its fingerprint must match the file's and
    the returned cube is bound to the supplied instance; otherwise the cube
    is bound to the dataset stored in the file.
    """
    path = Path(path)
    with path.open("rb") as handle:
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    head = len(BINARY_MAGIC)
    if mm[:head] != BINARY_MAGIC:
        raise ValueError(f"{path}: not a cube file (bad magic)")
    if mm.size() < head + 4:
        raise ValueError(f"{path}: truncated cube file (no header)")
    (header_len,) = struct.unpack("<I", mm[head : head + 4])
    body = head + 4
    if mm.size() < body + header_len:
        raise ValueError(f"{path}: truncated cube file (partial header)")
    try:
        header = json.loads(mm[body : body + header_len].decode())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: corrupt cube file header ({exc})") from None
    if header.get("format") != BINARY_FORMAT:
        raise ValueError(
            f"{path}: not a {BINARY_FORMAT} file "
            f"(format {header.get('format')!r})"
        )
    payload_start = body + header_len
    payload_size = int(header["payload_size"])
    if mm.size() < payload_start + payload_size:
        raise ValueError(
            f"{path}: truncated cube file "
            f"(payload needs {payload_size} bytes, "
            f"{mm.size() - payload_start} present)"
        )
    digest = hashlib.sha256(
        mm[payload_start : payload_start + payload_size]
    ).hexdigest()
    if digest != header["payload_sha256"]:
        raise ValueError(
            f"{path}: cube file checksum mismatch "
            f"(expected {header['payload_sha256']}, got {digest}); "
            "the file is corrupt"
        )

    view = np.frombuffer(mm, dtype=np.uint8, count=payload_size, offset=payload_start)
    arrays: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        shape = spec["shape"]
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        arrays[spec["name"]] = np.frombuffer(
            view, dtype=np.dtype(spec["dtype"]), count=count, offset=spec["offset"]
        ).reshape(shape)

    if dataset is None:
        dataset = Dataset(
            values=arrays["values"].reshape(
                int(header["n_objects"]), int(header["n_dims"])
            ),
            names=tuple(header["names"]),
            directions=tuple(header["directions"]),
            labels=tuple(header["labels"]),
        )
    elif header.get("fingerprint") != dataset_fingerprint(dataset):
        raise ValueError(
            f"{path}: cube was computed from a different dataset "
            "(fingerprint mismatch)"
        )

    members = arrays["members_flat"].tolist()
    members_off = arrays["members_off"].tolist()
    projection = arrays["projection_flat"].tolist()
    projection_off = arrays["projection_off"].tolist()
    decisive = _unpack_masks(arrays["decisive_flat"])
    decisive_off = arrays["decisive_off"].tolist()
    subspaces = _unpack_masks(arrays["subspaces"])
    groups = [
        SkylineGroup(
            members=frozenset(members[members_off[g] : members_off[g + 1]]),
            subspace=subspaces[g],
            decisive=tuple(decisive[decisive_off[g] : decisive_off[g + 1]]),
            projection=tuple(
                projection[projection_off[g] : projection_off[g + 1]]
            ),
        )
        for g in range(int(header["n_groups"]))
    ]
    groups.sort(key=group_sort_key)
    return CompressedSkylineCube(dataset, groups)
