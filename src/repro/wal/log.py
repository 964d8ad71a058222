"""CRC-framed NDJSON write-ahead log segments.

One segment per snapshot generation: mutations applied while serving
``<name>@vNNNNNN`` append to ``<root>/<name>/wal/vNNNNNN.wal``.  Each
record is one line::

    <crc32 of payload, 8 hex digits> <payload JSON>\\n

The CRC covers the JSON payload bytes exactly, so a reader can verify each
line independently and a crashed writer can leave at most one bad *tail*.
Like the trace sink's torn-record handling, the reader stops at the first
line that fails framing, CRC, or schema validation -- and
:func:`recover_segment` additionally truncates the file there, so the next
appender continues from a clean prefix.

Durability contract (write-ahead): the serving layer appends + fsyncs the
record *before* applying the mutation to the in-memory cube.  Replay is
deterministic because :class:`~repro.cube.maintenance.MaintainedCube` is:
re-applying the same records to the same base snapshot reproduces the same
dataset, the same groups, and the same mutation count -- records whose
apply raises (e.g. a delete of a label that never existed) are skipped on
replay exactly as they failed to mutate the live cube.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from ..core.hitting import HittingSetOverflow
from ..cube.maintenance import MaintainedCube
from ..obs.logging import get_logger
from ..obs.metrics import registry

__all__ = [
    "SegmentScan",
    "WalRecord",
    "WalWriter",
    "apply_records",
    "encode_record",
    "read_segment",
    "recover_segment",
    "retire_segment",
    "wal_path",
]

_LOG = get_logger("wal")

# Handles survive metric resets; created once at import (cache.py idiom).
_APPENDS = registry().counter("serve.wal.appends")
_REPLAYED = registry().counter("serve.wal.replayed")
_SKIPPED = registry().counter("serve.wal.replay.skipped")
_TRUNCATED = registry().counter("serve.wal.truncated")
_FSYNC_SECONDS = registry().histogram("serve.wal.fsync.seconds")

#: Retired (compacted) segments keep their bytes under this suffix so a
#: post-incident audit can still replay history; they are never re-read.
_RETIRED_SUFFIX = ".compacted"

_OPS = ("insert", "delete")


def wal_path(root: str | Path, name: str, version: str) -> Path:
    """The segment path for one snapshot generation."""
    return Path(root) / name / "wal" / f"{version}.wal"


@dataclass(frozen=True)
class WalRecord:
    """One logged mutation.

    ``seq`` is 1-based and contiguous within a segment; ``row`` is None
    for deletes; ``label`` is None for inserts that let the cube pick a
    fresh label (replay then regenerates the *same* label because label
    generation is a pure function of the dataset state).
    """

    seq: int
    op: str
    label: str | None
    row: tuple[float, ...] | None
    ts: float

    def payload(self) -> dict:
        """The JSON payload framed into the segment line."""
        out: dict = {"seq": self.seq, "op": self.op, "ts": self.ts}
        if self.label is not None:
            out["label"] = self.label
        if self.row is not None:
            out["row"] = list(self.row)
        return out


@dataclass(frozen=True)
class SegmentScan:
    """What :func:`read_segment` found: the valid prefix and its extent."""

    records: tuple[WalRecord, ...]
    #: Byte length of the valid prefix; the file is longer iff ``torn``.
    valid_bytes: int
    #: True when trailing bytes failed framing/CRC/schema validation.
    torn: bool


def encode_record(record: WalRecord) -> bytes:
    """Frame one record as a CRC-prefixed NDJSON line."""
    payload = json.dumps(record.payload(), separators=(",", ":")).encode()
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return b"%08x %s\n" % (crc, payload)


def _decode_line(line: bytes) -> WalRecord | None:
    """Parse one framed line; None on any framing/CRC/schema failure."""
    if not line.endswith(b"\n") or len(line) < 11 or line[8:9] != b" ":
        return None
    crc_hex, payload = line[:8], line[9:-1]
    try:
        crc = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError:
        return None
    if not isinstance(doc, dict):
        return None
    seq, op = doc.get("seq"), doc.get("op")
    label, row = doc.get("label"), doc.get("row")
    if not isinstance(seq, int) or op not in _OPS:
        return None
    if label is not None and not isinstance(label, str):
        return None
    if op == "delete" and (label is None or row is not None):
        return None
    if op == "insert":
        if not isinstance(row, list) or not row:
            return None
        if not all(isinstance(v, (int, float)) for v in row):
            return None
    return WalRecord(
        seq=seq,
        op=op,
        label=label,
        row=tuple(float(v) for v in row) if row is not None else None,
        ts=float(doc.get("ts", 0.0)),
    )


def read_segment(path: str | Path) -> SegmentScan:
    """Scan a segment, stopping at the first invalid line (torn tail).

    A missing segment scans as empty: a generation with no mutations
    simply has no file yet.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError:
        return SegmentScan(records=(), valid_bytes=0, torn=False)
    records: list[WalRecord] = []
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        if end < 0:
            break  # unterminated tail line from a crashed writer
        record = _decode_line(data[offset : end + 1])
        if record is None or record.seq != len(records) + 1:
            break
        records.append(record)
        offset = end + 1
    return SegmentScan(
        records=tuple(records), valid_bytes=offset, torn=offset < len(data)
    )


def recover_segment(path: str | Path) -> tuple[WalRecord, ...]:
    """Read a segment and truncate any torn tail in place.

    Returns the valid records.  Truncation keeps the write-ahead invariant
    simple for the next appender: the file always ends on a record
    boundary.
    """
    path = Path(path)
    scan = read_segment(path)
    if scan.torn:
        with open(path, "rb+") as fh:
            fh.truncate(scan.valid_bytes)
            os.fsync(fh.fileno())
        _TRUNCATED.inc()
        _LOG.warning(
            "wal.torn_tail_truncated",
            extra={
                "path": str(path),
                "valid_bytes": scan.valid_bytes,
                "records": len(scan.records),
            },
        )
    return scan.records


class WalWriter:
    """Appender over one segment: recover, then append + fsync per record.

    Construction recovers the segment (truncating a torn tail) so appends
    always continue a valid prefix; ``count`` and ``first_ts`` expose the
    pending depth and staleness the health endpoint reports.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        records = recover_segment(self.path)
        self.count = len(records)
        self.first_ts = records[0].ts if records else None
        self._next_seq = self.count + 1
        self._fd = os.open(
            self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644
        )

    def append(
        self,
        op: str,
        *,
        label: str | None = None,
        row: list[float] | None = None,
    ) -> WalRecord:
        """Durably log one mutation *before* the caller applies it."""
        if op not in _OPS:
            raise ValueError(f"unknown WAL op {op!r}")
        record = WalRecord(
            seq=self._next_seq,
            op=op,
            label=label,
            row=tuple(float(v) for v in row) if row is not None else None,
            ts=time.time(),
        )
        frame = encode_record(record)
        if _decode_line(frame) is None:
            raise ValueError(f"unencodable WAL record: {record!r}")
        # One write call keeps the frame contiguous under O_APPEND even
        # with concurrent writers; fsync makes it durable before apply.
        os.write(self._fd, frame)
        t0 = time.perf_counter()
        os.fsync(self._fd)
        _FSYNC_SECONDS.observe(time.perf_counter() - t0)
        self._next_seq += 1
        self.count += 1
        if self.first_ts is None:
            self.first_ts = record.ts
        _APPENDS.inc()
        return record

    def close(self) -> None:
        """Release the segment fd (appends are already durable)."""
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "WalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def apply_records(
    maintained: MaintainedCube, records: tuple[WalRecord, ...]
) -> tuple[int, int]:
    """Replay records through the maintenance layer; ``(applied, skipped)``.

    A record whose apply raises ``ValueError`` (duplicate label, unknown
    label) or :class:`~repro.core.hitting.HittingSetOverflow` (a rebuild
    the live path answered with a 422) is skipped: it failed identically
    on the live path, so skipping keeps the replayed mutation count equal
    to the pre-crash count.
    """
    applied = skipped = 0
    for record in records:
        try:
            if record.op == "insert":
                maintained.insert(list(record.row or ()), label=record.label)
            else:
                maintained.delete(record.label or "")
        except (ValueError, HittingSetOverflow):
            skipped += 1
            _SKIPPED.inc()
            continue
        applied += 1
        _REPLAYED.inc()
    return applied, skipped


def retire_segment(path: str | Path) -> Path | None:
    """Atomically move a compacted segment aside; None when absent.

    The retired file (``vNNNNNN.wal.compacted``) is never replayed -- the
    new snapshot version already contains its effects -- but keeps the
    mutation history auditable.  An existing retired file of the same name
    is overwritten: replaying the same segment twice produces the same
    snapshot, so the latest bytes are always the authoritative history.
    """
    path = Path(path)
    if not path.exists():
        return None
    retired = path.with_name(path.name + _RETIRED_SUFFIX)
    os.replace(path, retired)
    return retired
