"""The query-serving service: snapshots + cache + admission + HTTP API.

:class:`CubeService` composes the other three serve modules into one
production-shaped unit:

* snapshots load *lazily* from a :class:`~repro.serve.store.SnapshotStore`
  on first request and hot-swap when the store's ``CURRENT`` pointer moves
  (checked at most every ``reload_interval`` seconds);
* every query result is cached under ``(cube_version, kind, args)`` in a
  :class:`~repro.serve.cache.ResultCache` -- the version string changes on
  every maintenance mutation and snapshot swap, so stale entries can never
  be served;
* every request passes the :class:`~repro.serve.admission.AdmissionController`
  first: bounded concurrency, bounded queueing, typed shedding.

The HTTP layer is a thin JSON façade over the service on the stdlib
:class:`~http.server.ThreadingHTTPServer` (no third-party dependency):
``/v1/skyline``, ``/v1/where-wins``, ``/v1/wins-in``, ``/v1/why-not``,
``/v1/signature``, ``/v1/top-frequent``, ``/v1/explain``, ``/v1/diff``
(temporal cube diff across published versions), ``/v1/snapshots``
(list/publish/activate), ``/v1/maintenance`` (insert/delete/compact),
plus ``/healthz`` and ``/metrics`` (rendered by
:mod:`repro.obs.promexport`).  Every response echoes the ``cube_version``
that produced it, so clients (and the concurrency tests) can pin results
to cube generations.

Every mutation is durable: it is appended + fsync'd to the active
version's WAL segment (:mod:`repro.wal`) *before* it is applied, and a
restart replays the segment through
:meth:`~repro.cube.maintenance.MaintainedCube.adopt` -- so a SIGKILL loses
at most the request that had not yet been acknowledged.  A non-zero
``compact_threshold`` folds the segment into a freshly published snapshot
version once its depth reaches the threshold (LSM-style compaction; also
available on demand via ``POST /v1/maintenance/compact``).
"""

from __future__ import annotations

import io
import json
import re
import threading
import time
from dataclasses import dataclass, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..core.types import Dataset
from ..cube.compressed import CompressedSkylineCube
from ..cube.diff import diff_cubes
from ..cube.maintenance import MaintainedCube
from ..cube.query import QueryEngine
from ..data.io import parse_csv
from ..wal import WalWriter, apply_records, recover_segment, retire_segment, wal_path
from ..obs.context import (
    TRACE_ID_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
    parse_traceparent,
    use_trace_context,
)
from ..obs.logging import get_logger
from ..obs.metrics import registry
from ..obs.promexport import MetricsServer, negotiate_exposition
from ..obs.tracesink import exemplar_trace_id
from ..obs.tracing import Tracer, span
from .admission import (
    AdmissionController,
    DeadlineExceededError,
    OverloadedError,
)
from .cache import ResultCache
from .store import SnapshotInfo, SnapshotStore

__all__ = ["CubeService", "UnknownSnapshotError", "start_server"]

_LOG = get_logger("serve")

_REQUESTS = registry().counter("serve.requests")
_REQUEST_SECONDS = registry().histogram("serve.request.seconds")
_SWAPS = registry().counter("serve.snapshot.swaps")
#: Wall-clock of one snapshot activation: store load (mmap binary or JSON
#: fallback) + engine construction + state swap.  Scraped by the load
#: harness into the ``snapshot_activate_p99_s`` ledger metric.
_ACTIVATE_SECONDS = registry().histogram("serve.snapshot.activate.seconds")
_INSERTS = registry().counter("serve.maintenance.inserts")
_DELETES = registry().counter("serve.maintenance.deletes")
#: Pending WAL records not yet folded into a published snapshot (depth of
#: the active segment); drops to 0 on compaction.
_WAL_LAG = registry().gauge("serve.wal.lag")
_COMPACTIONS = registry().counter("serve.wal.compactions")
_DIFF_REQUESTS = registry().counter("serve.diff.requests")
_DIFF_SECONDS = registry().histogram("serve.diff.seconds")
#: Deadline budget left when the request finished: the headroom signal the
#: SLO layer watches (shrinking remaining time predicts timeout sheds).
_DEADLINE_REMAINING = registry().histogram("serve.deadline.remaining_seconds")
_DEADLINE_LAST = registry().gauge("serve.deadline.last_remaining_seconds")

#: kind -> per-endpoint latency histogram (``serve.request.<kind>.seconds``),
#: cached so the hot path does one dict lookup, not a registry get-or-create.
_KIND_SECONDS: dict[str, object] = {}


def _kind_seconds(kind: str):
    hist = _KIND_SECONDS.get(kind)
    if hist is None:
        hist = _KIND_SECONDS[kind] = registry().histogram(
            f"serve.request.{kind}.seconds"
        )
    return hist


class UnknownSnapshotError(LookupError):
    """The requested snapshot name has no loadable active version."""


#: Published version names; mirrors the store's naming so ``/v1/diff``
#: can reject malformed version parameters before touching the disk.
_VERSION_RE = re.compile(r"^v\d{6}$")


@dataclass(frozen=True)
class _Serving:
    """One immutable generation of a served snapshot.

    Queries grab the current generation once and answer entirely from it,
    so a concurrent swap (new version activated, maintenance mutation)
    can never mix cube versions within one response.
    """

    name: str
    base_version: str
    mutations: int
    dataset: Dataset
    cube: CompressedSkylineCube
    engine: QueryEngine
    maintained: MaintainedCube | None
    info: SnapshotInfo
    #: ``time.monotonic()`` when this generation went live -- the health
    #: endpoint reports ``now - activated_at`` as snapshot staleness, which
    #: is how operators spot a hot reload that stopped firing.
    activated_at: float = 0.0

    @property
    def cube_version(self) -> str:
        """``<name>@<version>`` plus ``+<n>`` after n in-memory mutations."""
        base = f"{self.name}@{self.base_version}"
        return f"{base}+{self.mutations}" if self.mutations else base


def _parse_mask(engine: QueryEngine, params: dict, key: str = "subspace") -> int:
    return engine.dataset.parse_subspace(_require(params, key))


def _require(params: dict, key: str) -> str:
    try:
        return params[key]
    except KeyError:
        raise ValueError(f"missing parameter {key!r}") from None


def _optional_str(body: dict, key: str) -> str | None:
    """A JSON body field that must be a string when present."""
    value = body.get(key)
    if value is not None and not isinstance(value, str):
        raise ValueError(
            f"parameter {key!r} must be a string, got {type(value).__name__}"
        )
    return value


def _optional_bool(body: dict, key: str, default: bool) -> bool:
    """A JSON body field that must be a boolean when present."""
    value = body.get(key, default)
    if not isinstance(value, bool):
        raise ValueError(
            f"parameter {key!r} must be a boolean, got {type(value).__name__}"
        )
    return value


def _require_str(body: dict, key: str) -> str:
    value = _optional_str(body, key)
    if value is None:
        raise ValueError(f"missing parameter {key!r}")
    return value


def _header_get(headers: dict | None, name: str) -> str | None:
    """Case-insensitive header lookup over a plain dict or Message object."""
    if not headers:
        return None
    value = headers.get(name)
    if value is not None:
        return value
    lowered = name.lower()
    for key in headers:
        if str(key).lower() == lowered:
            return headers[key]
    return None


def _parse_k(params: dict) -> int:
    raw = _require(params, "k")
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ValueError(f"k must be an integer, got {raw!r}") from None


def _run_explain(engine: QueryEngine, params: dict) -> dict:
    plan = engine.explain(
        _require(params, "kind"), *params.get("args", ())
    )
    return {"plan": plan.to_dict(), "rendered": plan.render()}


@dataclass(frozen=True)
class _QuerySpec:
    cacheable: bool
    normalize: Callable[[QueryEngine, dict], tuple]
    run: Callable[[QueryEngine, dict], object]


#: Query kind -> cache-key normaliser + executor.  Subspaces normalise to
#: bitmasks so every textual spelling of the same subspace shares one cache
#: entry; ``explain`` bypasses the cache (its plan records live timings).
_SPECS: dict[str, _QuerySpec] = {
    "skyline": _QuerySpec(
        cacheable=True,
        normalize=lambda e, p: (_parse_mask(e, p),),
        run=lambda e, p: e.skyline(p["subspace"]),
    ),
    "where-wins": _QuerySpec(
        cacheable=True,
        normalize=lambda e, p: (_require(p, "label"),),
        run=lambda e, p: e.where_wins(p["label"]),
    ),
    "wins-in": _QuerySpec(
        cacheable=True,
        normalize=lambda e, p: (_require(p, "label"), _parse_mask(e, p)),
        run=lambda e, p: e.wins_in(p["label"], p["subspace"]),
    ),
    "why-not": _QuerySpec(
        cacheable=True,
        normalize=lambda e, p: (_require(p, "label"), _parse_mask(e, p)),
        run=lambda e, p: e.why_not(p["label"], p["subspace"]),
    ),
    "signature": _QuerySpec(
        cacheable=True,
        normalize=lambda e, p: (_require(p, "label"),),
        run=lambda e, p: e.signature_of(p["label"]),
    ),
    "top-frequent": _QuerySpec(
        cacheable=True,
        normalize=lambda e, p: (_parse_k(p),),
        run=lambda e, p: e.top_frequent(_parse_k(p)),
    ),
    "explain": _QuerySpec(
        cacheable=False,
        normalize=lambda e, p: (_require(p, "kind"), tuple(p.get("args", ()))),
        run=_run_explain,
    ),
}


class CubeService:
    """Queryable front end over a snapshot store (see module docstring)."""

    def __init__(
        self,
        store: SnapshotStore,
        *,
        cache: ResultCache | None = None,
        admission: AdmissionController | None = None,
        default_snapshot: str | None = None,
        reload_interval: float = 0.5,
        compact_threshold: int = 0,
    ):
        if compact_threshold < 0:
            raise ValueError(
                f"compact_threshold must be >= 0, got {compact_threshold}"
            )
        self.store = store
        self.cache = cache if cache is not None else ResultCache()
        self.admission = (
            admission if admission is not None else AdmissionController()
        )
        self.default_snapshot = default_snapshot
        self.reload_interval = reload_interval
        #: Auto-compact once the active WAL segment holds this many
        #: records; 0 disables the trigger (``repro compact`` still works).
        self.compact_threshold = compact_threshold
        self._lock = threading.Lock()
        self._states: dict[str, _Serving] = {}
        self._checked: dict[str, float] = {}
        self._name_locks: dict[str, threading.RLock] = {}
        #: name -> open appender over that snapshot's *active* segment;
        #: rotated when the base version moves, mutated under the name lock.
        self._wals: dict[str, WalWriter] = {}

    # -- queries -----------------------------------------------------------

    def query(
        self,
        kind: str,
        params: dict,
        snapshot: str | None = None,
        deadline_ms: float | None = None,
    ) -> dict:
        """Answer one query, observed and admission-controlled.

        Returns the JSON response envelope: ``snapshot``, ``cube_version``,
        ``kind``, ``result``, ``cached``, ``seconds``.  Raises
        :class:`OverloadedError` when shed, :class:`DeadlineExceededError`
        when the deadline expires first, :class:`UnknownSnapshotError` /
        :class:`ValueError` on bad input.
        """
        try:
            spec = _SPECS[kind]
        except KeyError:
            known = ", ".join(sorted(_SPECS))
            raise ValueError(
                f"unknown query kind {kind!r}; known kinds: {known}"
            ) from None
        deadline = self.admission.deadline(deadline_ms)
        with self.admission.admit(deadline):
            state = self._state(self._resolve_name(snapshot))
            t0 = time.perf_counter()
            with span(
                "serve.query", kind=kind, snapshot=state.name
            ) as sp:
                key = (state.cube_version, kind, spec.normalize(state.engine, params))
                cached = False
                if spec.cacheable:
                    with span("serve.cache.get"):
                        result, cached = self.cache.get(key)
                if not cached:
                    if deadline.expired:
                        raise DeadlineExceededError(deadline)
                    result = spec.run(state.engine, params)
                    if spec.cacheable:
                        with span("serve.cache.put"):
                            self.cache.put(key, result)
                seconds = time.perf_counter() - t0
                sp.annotate(cached=cached, cube_version=state.cube_version)
            _REQUESTS.inc()
            exemplar = exemplar_trace_id(seconds)
            _REQUEST_SECONDS.observe(seconds, trace_id=exemplar)
            _kind_seconds(kind).observe(seconds, trace_id=exemplar)
            remaining = max(deadline.remaining(), 0.0)
            _DEADLINE_REMAINING.observe(remaining)
            _DEADLINE_LAST.set(remaining)
            _LOG.debug(
                "serve.query",
                extra={
                    "kind": kind,
                    "snapshot": state.name,
                    "cube_version": state.cube_version,
                    "cached": cached,
                    "seconds": round(seconds, 6),
                },
            )
            return {
                "snapshot": state.name,
                "cube_version": state.cube_version,
                "kind": kind,
                "result": result,
                "cached": cached,
                "seconds": seconds,
            }

    # -- maintenance -------------------------------------------------------

    def maintenance_insert(
        self,
        row: list[float],
        label: str | None = None,
        snapshot: str | None = None,
    ) -> dict:
        """Insert one object into the served cube; invalidates the cache.

        With WAL enabled the mutation is validated, durably logged, and
        only then applied -- an invalid request (duplicate label, wrong
        row width, a non-numeric or non-finite value) touches neither the
        log nor the mutation counter.
        """
        name = self._resolve_name(snapshot)
        with self._name_lock(name):
            state = self._state(name)
            maintained = state.maintained or MaintainedCube.adopt(state.cube)
            maintained.check_insert(row, label)
            values = [float(v) for v in row]
            self._wal_append(state, "insert", label=label, row=values)
            fast = maintained.insert(values, label=label)
            new_state = self._mutated(state, maintained)
            _INSERTS.inc()
            new_state = self._maybe_compact(new_state)
        return self._mutation_envelope(new_state, fast, "insert")

    def maintenance_delete(
        self, label: str, snapshot: str | None = None
    ) -> dict:
        """Delete one object from the served cube; invalidates the cache."""
        name = self._resolve_name(snapshot)
        with self._name_lock(name):
            state = self._state(name)
            maintained = state.maintained or MaintainedCube.adopt(state.cube)
            maintained.check_delete(label)
            self._wal_append(state, "delete", label=label)
            fast = maintained.delete(label)
            new_state = self._mutated(state, maintained)
            _DELETES.inc()
            new_state = self._maybe_compact(new_state)
        return self._mutation_envelope(new_state, fast, "delete")

    def _mutated(
        self, state: _Serving, maintained: MaintainedCube
    ) -> _Serving:
        """Swap in the post-mutation generation and invalidate the cache."""
        new_state = _Serving(
            name=state.name,
            base_version=state.base_version,
            mutations=state.mutations + 1,
            dataset=maintained.dataset,
            cube=maintained.cube,
            engine=QueryEngine(maintained.cube),
            maintained=maintained,
            info=state.info,
            activated_at=time.monotonic(),
        )
        with self._lock:
            self._states[state.name] = new_state
        self.cache.invalidate(state.cube_version)
        _LOG.info(
            "serve.mutation",
            extra={
                "snapshot": state.name,
                "cube_version": new_state.cube_version,
            },
        )
        return new_state

    @staticmethod
    def _mutation_envelope(state: _Serving, fast: bool, op: str) -> dict:
        return {
            "snapshot": state.name,
            "cube_version": state.cube_version,
            "op": op,
            "fast_path": fast,
            "n_objects": state.dataset.n_objects,
            "n_groups": len(state.cube.groups),
        }

    # -- durability (WAL + compaction) -------------------------------------

    def _wal_append(
        self,
        state: _Serving,
        op: str,
        *,
        label: str | None = None,
        row: list[float] | None = None,
    ) -> None:
        """Durably log one validated mutation before it is applied."""
        writer = self._wal_for(state.name, state.base_version)
        writer.append(op, label=label, row=row)
        _WAL_LAG.set(writer.count)

    def _wal_for(self, name: str, base_version: str) -> WalWriter:
        """The appender over ``name``'s active segment (caller holds the
        name lock); rotated when the base version moves."""
        expected = wal_path(self.store.root, name, base_version)
        writer = self._wals.get(name)
        if writer is None or writer.path != expected:
            if writer is not None:
                writer.close()
            writer = self._wals[name] = WalWriter(expected)
        return writer

    def compact(self, snapshot: str | None = None) -> dict:
        """Fold pending mutations into a freshly published version.

        A no-op (``compacted: false``) when the serving state carries no
        mutations; otherwise the in-memory dataset/cube are published as
        the next version, the WAL segment is retired, and serving swaps
        to the new base with zero mutations -- same contract as the
        offline :func:`repro.wal.compact_snapshot`.
        """
        name = self._resolve_name(snapshot)
        with self._name_lock(name):
            state = self._state(name)
            new_state, info = self._compact_locked(state)
        out = {
            "snapshot": name,
            "compacted": info is not None,
            "cube_version": new_state.cube_version,
            "new_version": info.version if info else None,
        }
        if info is not None:
            out["fingerprint"] = info.fingerprint
        return out

    def _maybe_compact(self, state: _Serving) -> _Serving:
        """Auto-trigger: compact once the segment depth hits the threshold."""
        if self.compact_threshold <= 0:
            return state
        writer = self._wals.get(state.name)
        if writer is None or writer.count < self.compact_threshold:
            return state
        new_state, _ = self._compact_locked(state)
        return new_state

    def _compact_locked(
        self, state: _Serving
    ) -> tuple[_Serving, SnapshotInfo | None]:
        """Publish the live state as the next version; retire the segment.

        Caller holds the name lock.  Publishing directly from the live
        maintained state is equivalent to replay-then-publish (replaying
        the segment reproduces exactly this state, see :mod:`repro.wal`)
        but skips the redundant replay.
        """
        if state.mutations == 0:
            return state, None
        info = self.store.publish(
            state.name, state.dataset, state.cube, activate=True
        )
        writer = self._wals.pop(state.name, None)
        if writer is not None:
            writer.close()
        retire_segment(wal_path(self.store.root, state.name, state.base_version))
        _WAL_LAG.set(0)
        _COMPACTIONS.inc()
        new_state = _Serving(
            name=state.name,
            base_version=info.version,
            mutations=0,
            dataset=state.dataset,
            cube=state.cube,
            engine=state.engine,
            maintained=state.maintained,
            info=info,
            activated_at=time.monotonic(),
        )
        with self._lock:
            self._states[state.name] = new_state
            # The pointer we just wrote is the version we now serve; no
            # reload check needed until the interval elapses again.
            self._checked[state.name] = time.monotonic()
        self.cache.invalidate(state.cube_version)
        _LOG.info(
            "serve.compacted",
            extra={
                "snapshot": state.name,
                "from_version": state.cube_version,
                "new_version": info.version,
            },
        )
        return new_state, info

    def close(self) -> None:
        """Release WAL file handles (tests and embedders; idempotent)."""
        with self._lock:
            writers = list(self._wals.values())
            self._wals.clear()
        for writer in writers:
            writer.close()

    # -- temporal diff -----------------------------------------------------

    def diff(
        self,
        from_version: str,
        to_version: str,
        snapshot: str | None = None,
        top: int = 10,
        deadline_ms: float | None = None,
    ) -> dict:
        """Diff two *published* versions of one snapshot name.

        Published versions are immutable, so the result is cached under
        the version pair (plus ``top``) and never needs invalidation.
        """
        name = self._resolve_name(snapshot)
        for version in (from_version, to_version):
            if not _VERSION_RE.match(version):
                raise ValueError(
                    f"bad version {version!r} (expected vNNNNNN)"
                )
        if top <= 0:
            raise ValueError(f"top must be positive, got {top}")
        deadline = self.admission.deadline(deadline_ms)
        with self.admission.admit(deadline):
            t0 = time.perf_counter()
            with span("serve.diff", snapshot=name) as sp:
                key = (f"{name}@{from_version}..{to_version}", "diff", (top,))
                result, cached = self.cache.get(key)
                if not cached:
                    if deadline.expired:
                        raise DeadlineExceededError(deadline)
                    _, old_cube, _ = self.store.load(name, from_version)
                    _, new_cube, _ = self.store.load(name, to_version)
                    result = diff_cubes(old_cube, new_cube).to_dict(top=top)
                    self.cache.put(key, result)
                seconds = time.perf_counter() - t0
                sp.annotate(cached=cached)
            _DIFF_REQUESTS.inc()
            _DIFF_SECONDS.observe(seconds)
            return {
                "snapshot": name,
                "from": from_version,
                "to": to_version,
                "cached": cached,
                "seconds": seconds,
                "diff": result,
            }

    # -- snapshot management ----------------------------------------------

    def publish_csv(
        self,
        name: str,
        csv_text: str,
        activate: bool = True,
    ) -> dict:
        """Build a cube from CSV text and publish it as a new version."""
        dataset = parse_csv(io.StringIO(csv_text, newline=""), source="csv")
        cube = CompressedSkylineCube.build(dataset)
        info = self.store.publish(name, dataset, cube, activate=activate)
        if activate:
            self._force_reload(name)
        return {**info.to_dict(), "active": activate}

    def activate(self, name: str, version: str) -> dict:
        """Activate a published version; live traffic swaps to it."""
        self.store.activate(name, version)
        self._force_reload(name)
        return {"snapshot": name, "version": version, "active": True}

    def snapshots_overview(self) -> dict:
        """The ``/v1/snapshots`` document."""
        snapshots = []
        with self._lock:
            loaded = {
                name: state.cube_version
                for name, state in self._states.items()
            }
        for name in self.store.names():
            current = self.store.current_version(name)
            snapshots.append(
                {
                    "name": name,
                    "current": current,
                    "loaded_version": loaded.get(name),
                    "versions": [
                        {**info.to_dict(), "active": info.version == current}
                        for info in self.store.versions(name)
                    ],
                }
            )
        return {"snapshots": snapshots}

    def preload(self) -> list[str]:
        """Eagerly load every snapshot's active version (optional)."""
        names = []
        for name in self.store.names():
            if self.store.current_version(name) is not None:
                self._state(name)
                names.append(name)
        return names

    def health(self) -> dict:
        """The ``/healthz`` document.

        Each loaded snapshot reports its active ``cube_version`` plus two
        ages: ``staleness_seconds`` since this generation went live (a
        generation that never advances while versions are being published
        means hot reload is stuck) and ``checked_age_seconds`` since the
        store's ``CURRENT`` pointer was last consulted (should stay under
        ``reload_interval`` while traffic flows; ``None`` before the first
        check completes).
        """
        now = time.monotonic()
        with self._lock:
            states = dict(self._states)
            checked = dict(self._checked)
            wals = dict(self._wals)
        snapshots = {}
        for name, state in states.items():
            checked_at = checked.get(name)
            wal_depth = 0
            wal_staleness = None
            writer = wals.get(name)
            if writer is not None and writer.path == wal_path(
                self.store.root, name, state.base_version
            ):
                wal_depth = writer.count
                if writer.first_ts is not None:
                    wal_staleness = round(time.time() - writer.first_ts, 3)
            snapshots[name] = {
                "cube_version": state.cube_version,
                "base_version": state.base_version,
                "mutations": state.mutations,
                "staleness_seconds": round(now - state.activated_at, 3),
                "checked_age_seconds": (
                    round(now - checked_at, 3)
                    if checked_at is not None
                    else None
                ),
                # Pending (uncompacted) WAL records and the age of the
                # oldest one (None while the segment is empty).
                "wal_depth": wal_depth,
                "wal_staleness_seconds": wal_staleness,
            }
        return {
            "status": "ok",
            "snapshots": snapshots,
            "cache": self.cache.stats(),
            "inflight": self.admission.inflight,
            "waiting": self.admission.waiting,
        }

    # -- internal ----------------------------------------------------------

    def _resolve_name(self, snapshot: str | None) -> str:
        if snapshot:
            return snapshot
        if self.default_snapshot:
            return self.default_snapshot
        names = self.store.names()
        if len(names) == 1:
            return names[0]
        if not names:
            raise UnknownSnapshotError("no snapshots published")
        raise ValueError(
            "ambiguous request: pass snapshot=<name> "
            f"(published: {', '.join(names)})"
        )

    def _name_lock(self, name: str) -> threading.RLock:
        with self._lock:
            lock = self._name_locks.get(name)
            if lock is None:
                lock = self._name_locks[name] = threading.RLock()
            return lock

    def _force_reload(self, name: str) -> None:
        with self._lock:
            self._checked.pop(name, None)

    def _state(self, name: str) -> _Serving:
        """Current generation of ``name``, loading/hot-swapping as needed.

        The store's ``CURRENT`` pointer is consulted at most every
        ``reload_interval`` seconds (every request when 0).  A pointer move
        swaps in the new version and drops the old generation's cache
        entries; in-memory maintenance mutations survive reload checks
        because the base version is unchanged.
        """
        now = time.monotonic()
        with self._lock:
            state = self._states.get(name)
            checked = self._checked.get(name)
        if (
            state is not None
            and checked is not None
            and now - checked < self.reload_interval
        ):
            return state
        with self._name_lock(name):
            with self._lock:
                state = self._states.get(name)
                checked = self._checked.get(name)
            if (
                state is not None
                and checked is not None
                and time.monotonic() - checked < self.reload_interval
            ):
                return state
            try:
                current = self.store.current_version(name)
            except ValueError as exc:
                raise UnknownSnapshotError(str(exc)) from None
            if current is None:
                if state is not None:
                    # Keep serving the loaded generation if the pointer
                    # vanished out from under us; degraded beats down.
                    return state
                raise UnknownSnapshotError(
                    f"snapshot {name!r} has no active version"
                )
            if state is None or state.base_version != current:
                activate_t0 = time.perf_counter()
                dataset, cube, info = self.store.load(name, current)
                maintained = None
                mutations = 0
                # Replay this generation's WAL segment: mutations that
                # were acknowledged before a crash/restart come back.
                records = recover_segment(
                    wal_path(self.store.root, name, current)
                )
                if records:
                    maintained = MaintainedCube.adopt(cube)
                    applied, skipped = apply_records(maintained, records)
                    dataset, cube = maintained.dataset, maintained.cube
                    mutations = applied
                    _LOG.info(
                        "serve.wal_replayed",
                        extra={
                            "snapshot": name,
                            "version": current,
                            "applied": applied,
                            "skipped": skipped,
                        },
                    )
                writer = self._wal_for(name, current)
                _WAL_LAG.set(writer.count)
                new_state = _Serving(
                    name=name,
                    base_version=current,
                    mutations=mutations,
                    dataset=dataset,
                    cube=cube,
                    engine=QueryEngine(cube),
                    maintained=maintained,
                    info=info,
                    activated_at=time.monotonic(),
                )
                old_version = state.cube_version if state else None
                with self._lock:
                    self._states[name] = new_state
                _ACTIVATE_SECONDS.observe(time.perf_counter() - activate_t0)
                if old_version is not None:
                    self.cache.invalidate(old_version)
                    _SWAPS.inc()
                _LOG.info(
                    "serve.snapshot_loaded",
                    extra={
                        "snapshot": name,
                        "cube_version": new_state.cube_version,
                        "swapped_from": old_version,
                    },
                )
                state = new_state
            with self._lock:
                self._checked[name] = time.monotonic()
            return state

    # -- HTTP façade -------------------------------------------------------

    #: GET endpoint -> query kind.
    GET_QUERIES = {
        "/v1/skyline": "skyline",
        "/v1/where-wins": "where-wins",
        "/v1/wins-in": "wins-in",
        "/v1/why-not": "why-not",
        "/v1/signature": "signature",
        "/v1/top-frequent": "top-frequent",
        "/v1/explain": "explain",
    }

    def handle_http(
        self,
        method: str,
        path: str,
        query: dict,
        body: dict,
        headers: dict | None = None,
    ) -> tuple[int, dict, dict]:
        """Route one request; returns ``(status, json_payload, headers)``.

        Socket-free so tests can exercise routing and error mapping
        directly; the HTTP handler is a thin wrapper over this.

        ``headers`` are the inbound request headers (any mapping with
        case-insensitive-ish keys; only ``traceparent`` is consulted).  A
        valid ``traceparent`` continues the caller's trace; anything else
        mints a fresh context.  The resolved trace id is echoed back as
        ``x-repro-trace-id`` on *every* response -- 503 sheds and 504
        deadline failures included, since those are exactly the requests
        worth looking up afterwards.  The request's ``serve.request`` root
        span carries the ``status`` a span listener (the trace sink) reads.
        """
        ctx = parse_traceparent(_header_get(headers, TRACEPARENT_HEADER))
        if ctx is None:
            ctx = TraceContext.new()
        ctx = replace(ctx, endpoint=path)
        tracer = Tracer()
        with use_trace_context(ctx):
            with tracer.span(
                "serve.request", endpoint=path, method=method
            ) as root:
                status, payload, out_headers = self._dispatch(
                    method, path, query, body
                )
                root.annotate(status=status)
        out_headers = dict(out_headers)
        out_headers[TRACE_ID_HEADER] = ctx.trace_id
        return status, payload, out_headers

    def _dispatch(
        self, method: str, path: str, query: dict, body: dict
    ) -> tuple[int, dict, dict]:
        """Route + map typed failures to HTTP statuses (no trace handling)."""
        try:
            return 200, self._route(method, path, query, body), {}
        except OverloadedError as exc:
            shed = exc.overloaded
            return (
                503,
                shed.to_dict(),
                {"Retry-After": f"{shed.retry_after_seconds:g}"},
            )
        except DeadlineExceededError as exc:
            return 504, {"error": "deadline_exceeded", "detail": str(exc)}, {}
        except UnknownSnapshotError as exc:
            return 404, {"error": "unknown_snapshot", "detail": str(exc)}, {}
        except ValueError as exc:
            return 400, {"error": "bad_request", "detail": str(exc)}, {}
        except Exception:
            _LOG.exception("serve.internal_error")
            return 500, {"error": "internal"}, {}

    def _route(self, method: str, path: str, query: dict, body: dict) -> dict:
        if method == "GET":
            if path == "/healthz":
                return self.health()
            if path == "/v1/snapshots":
                return self.snapshots_overview()
            if path == "/v1/diff":
                params = {
                    key: values[0] for key, values in query.items()
                }
                deadline_ms = None
                if "deadline_ms" in params:
                    try:
                        deadline_ms = float(params.pop("deadline_ms"))
                    except ValueError:
                        raise ValueError(
                            "deadline_ms must be a number"
                        ) from None
                top = 10
                if "top" in params:
                    try:
                        top = int(params.pop("top"))
                    except ValueError:
                        raise ValueError("top must be an integer") from None
                return self.diff(
                    _require(params, "from"),
                    _require(params, "to"),
                    snapshot=params.get("snapshot"),
                    top=top,
                    deadline_ms=deadline_ms,
                )
            kind = self.GET_QUERIES.get(path)
            if kind is None:
                raise UnknownSnapshotError(f"no such endpoint: {path}")
            params = {
                key: values[0]
                for key, values in query.items()
                if key != "arg"
            }
            if "arg" in query:
                params["args"] = query["arg"]
            deadline_ms = None
            if "deadline_ms" in params:
                try:
                    deadline_ms = float(params.pop("deadline_ms"))
                except ValueError:
                    raise ValueError("deadline_ms must be a number") from None
            return self.query(
                kind,
                params,
                snapshot=params.pop("snapshot", None),
                deadline_ms=deadline_ms,
            )
        if method == "POST":
            if path == "/v1/snapshots/publish":
                return self.publish_csv(
                    _require_str(body, "name"),
                    _require_str(body, "csv"),
                    activate=_optional_bool(body, "activate", True),
                )
            if path == "/v1/snapshots/activate":
                return self.activate(
                    _require_str(body, "name"), _require_str(body, "version")
                )
            if path == "/v1/maintenance/insert":
                row = body.get("row")
                if not isinstance(row, list) or not row:
                    raise ValueError("insert needs a non-empty 'row' list")
                return self.maintenance_insert(
                    row,
                    label=_optional_str(body, "label"),
                    snapshot=_optional_str(body, "snapshot"),
                )
            if path == "/v1/maintenance/delete":
                return self.maintenance_delete(
                    _require_str(body, "label"),
                    snapshot=_optional_str(body, "snapshot"),
                )
            if path == "/v1/maintenance/compact":
                return self.compact(snapshot=_optional_str(body, "snapshot"))
        raise UnknownSnapshotError(f"no such endpoint: {method} {path}")


#: Largest POST body the server reads.  The biggest bodies are CSV
#: publishes; the CI smokes send ~12 KB (300 x 5), and 16 MiB still fits
#: ~400k such rows.
MAX_BODY_BYTES = 16 * 1024 * 1024
#: Socket read timeout per request, so a client that stalls mid-body
#: cannot pin a handler thread.
READ_TIMEOUT_S = 30.0


class _ServeHTTPServer(ThreadingHTTPServer):
    #: The stdlib backlog of 5 overflows under bursts of new connections; the
    #: kernel then drops the SYN and the client retries only after 1 s.
    request_queue_size = 128
    daemon_threads = True


class _ServeHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP façade; one instance per request (stdlib behavior)."""

    service: CubeService  # injected via type() in start_server
    server_version = "repro-serve/1"
    #: Applied to the connection by ``StreamRequestHandler.setup``; a read
    #: that times out drops the connection without a response.
    timeout = READ_TIMEOUT_S

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        if parts.path == "/metrics":
            content_type, render = negotiate_exposition(
                self.headers.get("Accept")
            )
            self._reply_raw(200, content_type, render().encode())
            return
        status, payload, headers = self.service.handle_http(
            "GET", parts.path, parse_qs(parts.query), {}, self.headers
        )
        self._reply_json(status, payload, headers)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path)
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(f"negative Content-Length: {length}")
            if length > MAX_BODY_BYTES:
                # The body stays unread, so the connection cannot be reused.
                self.close_connection = True
                self._reply_json(
                    413,
                    {
                        "error": "payload_too_large",
                        "detail": f"Content-Length {length} exceeds "
                        f"{MAX_BODY_BYTES} bytes",
                    },
                    {},
                )
                return
            body = json.loads(self.rfile.read(length) or b"{}")
            if not isinstance(body, dict):
                raise ValueError("request body must be a JSON object")
        except (ValueError, json.JSONDecodeError) as exc:
            self.close_connection = True
            self._reply_json(
                400, {"error": "bad_request", "detail": str(exc)}, {}
            )
            return
        status, payload, headers = self.service.handle_http(
            "POST", parts.path, parse_qs(parts.query), body, self.headers
        )
        self._reply_json(status, payload, headers)

    def _reply_json(self, status: int, payload: dict, headers: dict) -> None:
        self._reply_raw(
            status,
            "application/json",
            (json.dumps(payload) + "\n").encode(),
            headers,
        )

    def _reply_raw(
        self,
        status: int,
        content_type: str,
        body: bytes,
        headers: dict | None = None,
    ) -> None:
        registry().counter(f"serve.http.{status}").inc()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:
        """Route access logs through the structured logger, not stderr."""
        get_logger("serve.http").debug(format % args)


def start_server(
    service: CubeService, host: str = "127.0.0.1", port: int = 0
) -> MetricsServer:
    """Serve the full API in the background; returns a closeable handle.

    The handle is a :class:`~repro.obs.promexport.MetricsServer`
    (``.url``, ``.port``, context-manager ``close``); ``port=0`` binds an
    ephemeral port.
    """
    handler = type("BoundServeHandler", (_ServeHandler,), {"service": service})
    server = _ServeHTTPServer((host, port), handler)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    _LOG.info(
        "serve.listening",
        extra={"host": server.server_address[0], "port": server.server_address[1]},
    )
    return MetricsServer(server, thread)
