"""Benchmark trajectory ledger: append-only records, regression diffs.

Figures answer "what does the curve look like *today*"; the ledger answers
"how has it moved *across runs*".  Every benchmark invocation appends one
normalized :class:`LedgerEntry` -- workload identity, per-algorithm total
seconds, dominance-comparison counts (the hardware-independent cost unit
of the skyline literature), host shape -- to ``BENCH_<figure>.json``, a
small JSON document that lives next to the code and is meant to be
committed.  ``repro bench diff`` compares two entries of a ledger and
exits non-zero when any cost metric regressed beyond a threshold, which
is what lets CI gate on the trajectory instead of a single run.

Entries are comparable only between same-figure, same-scale runs on
similar hardware; the comparison-count metrics are machine-independent and
therefore the strongest regression signal in the file.
"""

from __future__ import annotations

import json
import os
import platform
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

from ..core.dominance import COMPARISONS
from .reporting import FigureResult

__all__ = [
    "LEDGER_FORMAT",
    "LedgerEntry",
    "host_cpus",
    "Regression",
    "normalize_metric",
    "ledger_path",
    "append_entry",
    "load_entries",
    "entry_from_result",
    "diff_entries",
    "render_diff",
]

LEDGER_FORMAT = "repro-bench-ledger/1"


def normalize_metric(value: float) -> float | int:
    """Canonical numeric form for a ledger metric: integral values as int.

    Appends from different code paths historically mixed ``6`` and ``6.0``
    for the same metric; normalizing both on write (:meth:`LedgerEntry.
    to_dict`) and on read (:meth:`LedgerEntry.from_dict`) keeps the JSON
    file canonical and guarantees ``diff_entries`` never compares two
    representations of one number.
    """
    number = float(value)
    if number.is_integer():
        return int(number)
    return number


@dataclass(frozen=True)
class LedgerEntry:
    """One normalized benchmark run.

    ``metrics`` is a flat name -> number dict where **higher is worse**
    (seconds, comparison counts); the diff logic relies on that
    orientation.  ``workload`` records what ran (figure, scale, points) so
    entries are only ever compared like-for-like.
    """

    figure: str
    scale: str
    created: float
    metrics: dict[str, float]
    workload: dict = field(default_factory=dict)
    host_cpus: int = 1
    python: str = ""

    def to_dict(self) -> dict:
        """JSON-friendly representation (what the ledger file stores)."""
        return {
            "figure": self.figure,
            "scale": self.scale,
            "created": self.created,
            "metrics": {
                k: normalize_metric(v) for k, v in self.metrics.items()
            },
            "workload": dict(self.workload),
            "host_cpus": self.host_cpus,
            "python": self.python,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LedgerEntry":
        """Rebuild an entry from its :meth:`to_dict` payload (lenient).

        Unknown keys are ignored, so entries written with the retired
        ``parallel``/``workers`` fields still load.
        """
        return cls(
            figure=payload["figure"],
            scale=payload.get("scale", "default"),
            created=float(payload.get("created", 0.0)),
            metrics={
                k: normalize_metric(v)
                for k, v in payload.get("metrics", {}).items()
            },
            workload=dict(payload.get("workload", {})),
            host_cpus=int(payload.get("host_cpus", 1)),
            python=payload.get("python", ""),
        )


def host_cpus() -> int:
    """The CPUs usable by this process (recorded on every entry)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def ledger_path(directory: str | Path, figure: str) -> Path:
    """The ledger file for ``figure`` under ``directory``."""
    return Path(directory) / f"BENCH_{figure}.json"


def load_entries(path: str | Path) -> list[LedgerEntry]:
    """All entries of a ledger file, oldest first; [] when absent."""
    path = Path(path)
    if not path.exists():
        return []
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not a ledger file ({exc})") from None
    if not isinstance(payload, dict) or payload.get("format") != LEDGER_FORMAT:
        raise ValueError(f"{path}: not a {LEDGER_FORMAT} file")
    return [LedgerEntry.from_dict(e) for e in payload.get("entries", [])]


@contextmanager
def _exclusive_lock(path: Path):
    """Hold an exclusive advisory lock for one ledger read-modify-write.

    The lock lives on a sidecar ``<ledger>.lock`` file, not the ledger
    itself: the append rewrites the ledger with ``write_text``, and locking
    a file that is about to be replaced would leave the second writer
    holding a lock on a dead inode.  Best-effort -- on platforms without
    :mod:`fcntl` the append is unguarded, exactly as before.
    """
    if fcntl is None:  # pragma: no cover - non-POSIX hosts
        yield
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    lock_path = path.with_suffix(path.suffix + ".lock")
    with open(lock_path, "a") as lock_file:
        fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)


def append_entry(path: str | Path, entry: LedgerEntry) -> int:
    """Append one entry to the ledger at ``path``; returns its index.

    Creates the file (and parent directories) on first use.  The
    read-modify-write cycle holds an exclusive file lock, so concurrent
    benchmark processes appending to one ledger serialize instead of
    losing entries.
    """
    path = Path(path)
    with _exclusive_lock(path):
        entries = load_entries(path)
        entries.append(entry)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": LEDGER_FORMAT,
            "entries": [e.to_dict() for e in entries],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
    return len(entries) - 1


def entry_from_result(
    result: FigureResult,
    *,
    figure: str,
    scale: str,
    comparisons: int,
) -> LedgerEntry:
    """Normalize one :class:`FigureResult` into a ledger entry.

    Every ``*_s`` column becomes a ``<column>_total`` metric (sum of the
    measured, non-skipped points) plus a ``points_measured`` count, and the
    run's dominance-comparison delta is recorded as
    ``dominance_comparisons`` -- all "higher is worse" by construction.
    """
    metrics: dict[str, float] = {}
    measured = 0
    for i, header in enumerate(result.headers):
        if not header.endswith("_s"):
            continue
        values = [
            row[i]
            for row in result.rows
            if isinstance(row[i], (int, float)) and row[i] is not None
        ]
        measured = max(measured, len(values))
        metrics[f"{header[:-2]}_total_s"] = round(sum(values), 6)
    metrics["points_measured"] = measured
    metrics["dominance_comparisons"] = comparisons
    return LedgerEntry(
        figure=figure,
        scale=scale,
        created=time.time(),
        metrics=metrics,
        workload={"figure": result.figure, "title": result.title},
        host_cpus=host_cpus(),
        python=platform.python_version(),
    )


@dataclass(frozen=True)
class Regression:
    """One metric that moved; ``regressed`` marks a beyond-threshold one."""

    metric: str
    baseline: float
    candidate: float
    ratio: float
    regressed: bool


def diff_entries(
    baseline: LedgerEntry,
    candidate: LedgerEntry,
    threshold: float = 0.25,
    only: list[str] | None = None,
) -> list[Regression]:
    """Compare two entries metric by metric.

    A metric regresses when ``candidate > baseline * (1 + threshold)``
    (metrics are cost-like, so higher is worse).  Metrics absent from
    either entry are skipped; a zero baseline with a non-zero candidate is
    reported with an infinite ratio.  Returns every shared metric, flagged.

    ``only`` restricts the comparison to metrics matching at least one of
    the given shell-style globs (e.g. ``["*_p99_s", "error_rate"]``) --
    the serving-latency gate uses this to gate tail latency without
    tripping on deliberately noisy companions like the shed rate.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    shared = sorted(set(baseline.metrics) & set(candidate.metrics))
    if only:
        shared = [
            metric
            for metric in shared
            if any(fnmatch(metric, pattern) for pattern in only)
        ]
    out: list[Regression] = []
    for metric in shared:
        base = baseline.metrics[metric]
        cand = candidate.metrics[metric]
        if base == 0:
            ratio = float("inf") if cand > 0 else 1.0
        else:
            ratio = cand / base
        out.append(
            Regression(
                metric=metric,
                baseline=base,
                candidate=cand,
                ratio=ratio,
                regressed=cand > base * (1.0 + threshold),
            )
        )
    return out


def render_diff(
    baseline: LedgerEntry,
    candidate: LedgerEntry,
    diffs: list[Regression],
    threshold: float,
) -> str:
    """Human-readable diff report (the ``repro bench diff`` output)."""
    lines = [
        f"bench diff: {baseline.figure} [{baseline.scale}] "
        f"baseline@{_stamp(baseline.created)} vs "
        f"candidate@{_stamp(candidate.created)} "
        f"(threshold +{threshold * 100:.0f}%)",
    ]
    width = max((len(d.metric) for d in diffs), default=6)
    for d in diffs:
        flag = "REGRESSION" if d.regressed else "ok"
        ratio = "inf" if d.ratio == float("inf") else f"{d.ratio:.3f}x"
        lines.append(
            f"  {d.metric.ljust(width)}  {d.baseline:>14g} -> "
            f"{d.candidate:>14g}  {ratio:>9}  {flag}"
        )
    if not diffs:
        lines.append("  (no shared metrics to compare)")
    regressed = [d for d in diffs if d.regressed]
    lines.append(
        f"{len(regressed)} regression(s) beyond threshold"
        if regressed
        else "no regressions beyond threshold"
    )
    return "\n".join(lines)


def _stamp(created: float) -> str:
    if not created:
        return "?"
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(created))


def comparisons_delta(before: int) -> int:
    """Comparison-count delta since ``before`` (a COMPARISONS snapshot)."""
    return COMPARISONS.value - before
