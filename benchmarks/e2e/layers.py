"""Per-layer spans for the traced benchmark run, recorded from outside.

The benchmark times every layer at its public boundary; nothing under
``src/`` changes.

* ``core``: ``stellar`` is wrapped wherever the program calls it (builds,
  publish, maintenance reruns).  Every call returns the span tree it
  always records (``StellarStats.root_span``): one child per Figure-7
  phase, each with its dominance-comparison delta and output count.  The
  phase metrics come from that tree; the root's duration minus its
  children is the part of a build no phase covers.  A global tracer would
  miss the maintenance reruns, which run under the per-request tracer of
  ``CubeService.handle_http``.
* ``serve``: timed ``ResultCache``, ``AdmissionController`` and
  ``SnapshotStore`` subclasses, injected through the ``CubeService``
  constructor, plus the benchmark's own ``handle_http`` and ``json.dumps``
  calls.
* ``cube``: the ``QueryEngine`` query methods and constructor, and
  ``MaintainedCube.insert``/``delete`` split by the fast-path flag they
  return.
* ``wal``: ``WalWriter.append``.

Spans (name, start, end, parent, op id, attributes) stay in memory and are
written out when the run ends; every per-layer metric is computed from
them.  A span's self time is its duration minus the time its children
cover.  A wrapped symbol that no longer exists is reported as a missing
layer instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Callable

from repro.serve import AdmissionController, OverloadedError, ResultCache
from repro.serve import SnapshotStore
from repro.wal import encode_record

#: QueryEngine methods behind the six request kinds of the workload mix.
QUERY_METHODS = (
    "skyline",
    "where_wins",
    "wins_in",
    "why_not",
    "signature_of",
    "top_frequent",
)

#: Per-call core metrics: medians over the run's ``stellar()`` calls.
CORE_KEYS = (
    "full_space_skyline_s",
    "full_space_skyline_cmp",
    "maximal_cgroups_s",
    "maximal_cgroups_cmp",
    "seed_decisive_s",
    "seed_decisive_cmp",
    "nonseed_extension_s",
    "nonseed_extension_objects_per_s",
    "seeds",
    "maximal_cgroups",
    "seed_groups",
    "groups",
    "unattributed_s",
)


def _stellar_phases(args: tuple, result: object) -> dict:
    """Phase times and counts of one ``stellar()`` call, from its span tree."""
    root = result.stats.root_span
    out = {"unattributed_s": root.duration_seconds}
    for phase in root.children:
        out["unattributed_s"] -= phase.duration_seconds
        out[f"{phase.name}_s"] = phase.duration_seconds
        for key, value in phase.counters.items():
            if key == "dominance_comparisons":
                key = f"{phase.name}_cmp"
            out[key] = value
    extension_s = out.get("nonseed_extension_s", 0.0)
    nonseeds = result.stats.n_objects - result.stats.n_seeds
    out["nonseed_extension_objects_per_s"] = (
        nonseeds / extension_s if extension_s > 0 else 0.0
    )
    return out


def _fast(args: tuple, result: object) -> dict:
    return {"fast": bool(result)}


def _wal_bytes(args: tuple, result: object) -> dict:
    return {"bytes": len(encode_record(result))}


_STELLAR = "repro.core.stellar"
_MAINTENANCE = "repro.cube.maintenance"

#: (module, class or None, attribute, span name, attributes).  Attribute
#: extractors run after the span closes.  ``repro.cube.compressed`` imports
#: ``stellar`` at call time, so the first entry covers publish builds too.
_TARGETS = (
    (_STELLAR, None, "stellar", "core.stellar", _stellar_phases),
    (_MAINTENANCE, None, "stellar", "core.stellar", _stellar_phases),
    ("repro.cube.query", "QueryEngine", "__init__", "cube.engine_build", None),
    *(
        ("repro.cube.query", "QueryEngine", m, f"cube.query.{m}", None)
        for m in QUERY_METHODS
    ),
    (_MAINTENANCE, "MaintainedCube", "insert", "cube.maintenance", _fast),
    (_MAINTENANCE, "MaintainedCube", "delete", "cube.maintenance", _fast),
    ("repro.wal.log", "WalWriter", "append", "wal.append", _wal_bytes),
)


class SpanLog:
    """In-memory spans of one single-threaded traced run."""

    FIELDS = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self) -> None:
        #: One ``[name, start, end, parent index, op id, attrs]`` per span.
        self.rows: list[list] = []
        self._open: list[int] = []
        #: Id of the timed operation in flight; -1 during set-up.
        self.op = -1

    def open(self, name: str) -> list:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.rows))
        row = [name, 0.0, 0.0, parent, self.op, None]
        self.rows.append(row)
        row[1] = time.perf_counter()
        return row

    def close(self, row: list) -> None:
        row[2] = time.perf_counter()
        self._open.pop()

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable[[tuple, object], dict] | None = None,
    ) -> Callable:
        """``fn`` recorded as one span named ``name`` per call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(row)
            if attrs is not None:
                row[5] = attrs(args, result)
            return result

        return wrapper

    def wrap_op(self, fn: Callable) -> Callable:
        """``fn`` as one timed operation: a new op id and an ``op`` span."""
        inner = self.wrap("op", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.op += 1
            return inner(*args, **kwargs)

        return wrapper

    def write(self, path: Path, meta: dict) -> None:
        doc = {**meta, "fields": list(self.FIELDS), "spans": self.rows}
        path.write_text(json.dumps(doc, separators=(",", ":")))


class Instrumentation:
    """Class- and module-level wrappers over the program's layer functions."""

    def __init__(self, log: SpanLog):
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        for module, cls, attr, span, attrs in _TARGETS:
            where = ".".join(part for part in (module, cls, attr) if part)
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
            except (ImportError, AttributeError):
                self.missing.append(where)
                continue
            original = vars(owner).get(attr)
            if original is None:
                self.missing.append(where)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, log.wrap(span, original, attrs))

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class TimedResultCache(ResultCache):
    """Result cache whose lookups, stores and invalidations are spans."""

    def __init__(self, log: SpanLog):
        super().__init__()
        self._log = log

    def get(self, key):
        row = self._log.open("serve.cache_get")
        try:
            value, hit = super().get(key)
        finally:
            self._log.close(row)
        row[5] = {"hit": hit}
        return value, hit

    def put(self, key, value) -> None:
        before = len(self)
        row = self._log.open("serve.cache_put")
        try:
            super().put(key, value)
        finally:
            self._log.close(row)
        # The service stores only after a miss, so the key is new.
        row[5] = {"evicted": max(0, before + 1 - len(self))}

    def invalidate(self, cube_version=None) -> int:
        row = self._log.open("serve.cache_invalidate")
        try:
            dropped = super().invalidate(cube_version)
        finally:
            self._log.close(row)
        row[5] = {"dropped": dropped}
        return dropped


class TimedAdmissionController(AdmissionController):
    """Admission control whose slot acquisition is a span."""

    def __init__(self, log: SpanLog):
        super().__init__()
        self._log = log

    @contextmanager
    def admit(self, deadline=None):
        with ExitStack() as stack:
            row = self._log.open("serve.admission")
            try:
                admitted = stack.enter_context(super().admit(deadline))
            except OverloadedError:
                row[5] = {"shed": 1}
                raise
            finally:
                self._log.close(row)
            yield admitted


class TimedSnapshotStore(SnapshotStore):
    """Snapshot store whose publishes and loads are spans."""

    def __init__(self, log: SpanLog, root: Path):
        super().__init__(root)
        self._log = log

    def publish(self, *args, **kwargs):
        publish = self._log.wrap("serve.store_publish", super().publish)
        return publish(*args, **kwargs)

    def load(self, *args, **kwargs):
        return self._log.wrap("serve.store_load", super().load)(*args, **kwargs)


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated ``q``-th percentile (0 when there are no values)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def _unit(key: str) -> str:
    if key.endswith("per_s"):
        return "1/s"
    return "s" if key.endswith("_s") else "count"


def layer_metrics(rows: list[list]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, ``name -> (value, unit)``, from the spans.

    A layer the workload never calls reports 0.
    """
    covered = [0.0] * len(rows)
    by_name: dict[str, list[list]] = defaultdict(list)
    for name, start, end, parent, _op, _attrs in rows:
        if parent >= 0:
            covered[parent] += end - start
    for row in rows:
        by_name[row[0]].append(row)

    def durations(name: str) -> list[float]:
        return [row[2] - row[1] for row in by_name[name]]

    def attr(name: str, key: str) -> list:
        return [(row[5] or {}).get(key, 0) for row in by_name[name]]

    calls = [row[5] for row in by_name["core.stellar"]]
    out = {
        f"core.{key}": (_median([c.get(key, 0) for c in calls]), _unit(key))
        for key in CORE_KEYS
    }

    request_self = [
        row[2] - row[1] - covered[i]
        for i, row in enumerate(rows)
        if row[0] == "serve.request"
    ]
    hits = attr("serve.cache_get", "hit")
    out["serve.request_self_s_p50"] = (_median(request_self), "s")
    out["serve.admission_s_p50"] = (_median(durations("serve.admission")), "s")
    out["serve.admission_shed"] = (sum(attr("serve.admission", "shed")), "count")
    out["serve.cache_get_s_p50"] = (_median(durations("serve.cache_get")), "s")
    out["serve.cache_put_s_p50"] = (_median(durations("serve.cache_put")), "s")
    out["serve.cache_hit_ratio"] = (sum(hits) / len(hits) if hits else 0.0, "ratio")
    out["serve.cache_evictions"] = (sum(attr("serve.cache_put", "evicted")), "count")
    out["serve.cache_invalidated"] = (
        sum(attr("serve.cache_invalidate", "dropped")),
        "count",
    )
    out["serve.encode_s_p50"] = (_median(durations("serve.encode")), "s")
    out["serve.encode_bytes_p50"] = (_median(attr("serve.encode", "bytes")), "bytes")
    out["serve.store_publish_s"] = (_median(durations("serve.store_publish")), "s")
    out["serve.store_load_s"] = (_median(durations("serve.store_load")), "s")

    queries = [d for m in QUERY_METHODS for d in durations(f"cube.query.{m}")]
    out["cube.query_s_p50"] = (percentile(queries, 50), "s")
    out["cube.query_s_p99"] = (percentile(queries, 99), "s")
    for m in QUERY_METHODS:
        out[f"cube.query.{m}_s_mean"] = (_mean(durations(f"cube.query.{m}")), "s")
    out["cube.engine_build_s_p50"] = (_median(durations("cube.engine_build")), "s")
    fast, full = [], []
    for row in by_name["cube.maintenance"]:
        (fast if row[5]["fast"] else full).append(row[2] - row[1])
    mutations = len(fast) + len(full)
    out["cube.maintenance_fast_s_p50"] = (_median(fast), "s")
    out["cube.maintenance_full_s_p50"] = (_median(full), "s")
    out["cube.maintenance_fast_ratio"] = (
        len(fast) / mutations if mutations else 0.0,
        "ratio",
    )
    out["cube.maintenance_full_count"] = (len(full), "count")

    appends = durations("wal.append")
    out["wal.append_s_p50"] = (percentile(appends, 50), "s")
    out["wal.append_s_p99"] = (percentile(appends, 99), "s")
    out["wal.bytes_per_mutation"] = (_mean(attr("wal.append", "bytes")), "bytes")
    return out
