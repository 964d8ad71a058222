"""The four benchmark workloads; each run happens in one fresh child process.

Every workload starts from a pinned base dataset (base seed 20070415, sizes
in :data:`WORKLOADS`).  The run seed permutes its rows and drives the
request and churn streams.  Every seed therefore yields the same cube up to
object order: cost stays steady from seed to seed, and the definitional
answer is pinned once per base dataset in ``oracle.json``.

A run has three phases.  Set-up (timed from before ``import repro`` to the
first timed operation) builds the inputs and, for the serve workloads,
publishes the snapshot and activates it.  The measured phase drives the
program from one client thread in a closed loop until the time is up.
Verification checks every answer against the oracle; it is not timed.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import random
import resource
import shutil
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from layers import (
    Instrumentation,
    SpanLog,
    TimedAdmissionController,
    TimedResultCache,
    TimedSnapshotStore,
    layer_metrics,
    percentile,
)
from repro.baselines.naive_cube import naive_compressed_cube
from repro.core.types import Dataset
from repro.cube import CompressedSkylineCube
from repro.cube.io import cube_fingerprint, dataset_fingerprint
from repro.data import make_dataset, save_csv
from repro.loadtest import ConsistencyOracle, WorkloadMix
from repro.serve import CubeService, SnapshotStore
from repro.skyline import compute_skyline

BASE_SEED = 20070415
ORACLE_PATH = Path(__file__).with_name("oracle.json")
#: Per-run scratch (snapshot stores, WAL segments), removed when a run ends.
WORK_ROOT = Path(__file__).with_name(".work")
SNAPSHOT = "bench"
#: serve-churn: every CHURN_EVERY-th operation is a mutation, and every
#: CHURN_EVERY-th cube generation has its skyline answers spot-checked.
CHURN_EVERY = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: "build", "read" or "churn".
    kind: str
    distribution: str
    shape: tuple[int, int]
    smoke_shape: tuple[int, int]

    def base(self, smoke: bool) -> Dataset:
        """The pinned base dataset (before the run seed permutes it)."""
        n, d = self.smoke_shape if smoke else self.shape
        return make_dataset(self.distribution, n, d, seed=BASE_SEED)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("build-equal", "build", "independent", (50_000, 4), (2_000, 4)),
        Workload("build-anti", "build", "anticorrelated", (2_000, 6), (150, 5)),
        Workload("serve-read", "read", "independent", (10_000, 6), (500, 5)),
        Workload("serve-churn", "churn", "independent", (2_000, 5), (300, 4)),
    )
}

#: The operation whose latency is a workload's end-to-end op_* metrics.
PRIMARY_OP = {"build": "build", "read": "query", "churn": "mutation"}


def naive_fingerprint(dataset: Dataset) -> str:
    """Cube fingerprint of the brute-force definitional cube."""
    groups = naive_compressed_cube(dataset)
    return cube_fingerprint(CompressedSkylineCube(dataset, groups))


class Oracle:
    """Definitional answers: dataset fingerprint -> cube fingerprint.

    Pinned entries come from ``oracle.json``; a dataset without one is
    solved by :func:`naive_compressed_cube` on the spot.
    """

    def __init__(self, path: Path = ORACLE_PATH):
        self.entries = json.loads(path.read_text()) if path.exists() else {}

    def cube_fingerprint(self, dataset: Dataset) -> str:
        key = dataset_fingerprint(dataset)
        if key not in self.entries:
            self.entries[key] = {"cube": naive_fingerprint(dataset)}
        return self.entries[key]["cube"]


def refresh_oracle(path: Path = ORACLE_PATH) -> None:
    """Recompute every pinned entry (full and smoke sizes) from scratch."""
    entries = {}
    for w in WORKLOADS.values():
        for smoke in (False, True):
            base = w.base(smoke)
            label = f"{w.name} smoke" if smoke else w.name
            entries[dataset_fingerprint(base)] = {
                "dataset": f"{label}: {w.distribution} "
                f"{base.n_objects}x{base.n_dims}, seed {BASE_SEED}",
                "cube": naive_fingerprint(base),
            }
            print(f"{label}: {entries[dataset_fingerprint(base)]['cube']}")
    path.write_text(json.dumps(entries, indent=1, sort_keys=True) + "\n")


def base_order_fingerprint(
    cube: CompressedSkylineCube, base: Dataset, perm: list[int]
) -> str:
    """Fingerprint of a cube over ``base.take(perm)``, in ``base``'s order."""
    groups = [
        replace(g, members=frozenset(perm[m] for m in g.members))
        for g in cube.groups
    ]
    return cube_fingerprint(CompressedSkylineCube(base, groups))


class Run:
    """State of one child run: timings, failures, checks and tracing."""

    def __init__(self, workload: Workload, args, work: Path):
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.smoke = args.smoke
        self.work = work
        self.out = Path(args.out)
        self.oracle = Oracle()
        self.log = SpanLog() if args.trace else None
        self.layers = Instrumentation(self.log) if self.log else None
        self.missing_layers = self.layers.missing if self.layers else []
        self.per_layer: dict | None = None
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.detail: dict = {}
        self.deadline = 0.0
        base = workload.base(args.smoke)
        order = np.random.default_rng(args.seed).permutation(base.n_objects)
        self.base = base
        self.perm = [int(i) for i in order]
        self.data = base.take(self.perm)

    def start_clock(self) -> None:
        self.deadline = time.perf_counter() + self.seconds

    def expired(self) -> bool:
        return time.perf_counter() >= self.deadline

    def timed(self, fn):
        """``fn`` as the run's timed operation (a span when traced)."""
        return self.log.wrap_op(fn) if self.log else fn

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        self.latencies[kind].append(seconds)
        self.attempted += 1
        self.failed += not ok

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)
        self.attempted += 1
        self.failed += not ok

    def stop_tracing(self) -> None:
        """Restore the wrappers; keep the spans and their metrics."""
        if self.layers is None:
            return
        self.layers.restore()
        self.layers = None
        self.per_layer = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_metrics(self.log.rows).items()
        }
        self.log.write(
            self.out / f"spans-{self.workload.name}.json",
            {"workload": self.workload.name, "seed": self.seed},
        )


class BuildBench:
    """Closed loop of ``stellar()`` builds; every build is oracle-checked."""

    def __init__(self, run: Run):
        self.run = run

    def measure(self) -> None:
        run = self.run
        module = importlib.import_module("repro.core.stellar")
        expected = run.oracle.cube_fingerprint(run.base)
        build = run.timed(lambda: module.stellar(run.data))
        run.start_clock()
        while True:
            t0 = time.perf_counter()
            result = build()
            elapsed = time.perf_counter() - t0
            cube = CompressedSkylineCube(run.data, result.groups)
            ok = base_order_fingerprint(cube, run.base, run.perm) == expected
            run.record("build", elapsed, ok)
            if run.expired():
                break
        run.detail.update(
            seeds=result.stats.n_seeds,
            groups=result.stats.n_groups,
            objects=run.data.n_objects,
        )

    def verify(self) -> None:
        """Every build was checked as it finished."""

    def close(self) -> None:
        pass


class ServeBench:
    """Closed loop of in-process requests against one ``CubeService``.

    A request is ``CubeService.handle_http`` (the socket-free path the HTTP
    handler wraps) plus ``json.dumps`` of its payload.
    """

    def __init__(self, run: Run):
        self.run = run
        self.churn = run.workload.kind == "churn"
        csv_path = run.work / "dataset.csv"
        save_csv(run.data, csv_path)
        self.service = self._open(run.log)
        info = self.service.publish_csv(SNAPSHOT, csv_path.read_text())
        self.service.preload()
        #: Client-side replay of the acknowledged mutations (serve-churn).
        self.oracle = ConsistencyOracle(run.data)
        self.oracle.register_base(f"{SNAPSHOT}@{info['version']}")
        #: (subspace, answer) -> times served (serve-read).
        self.skylines: Counter = Counter()
        #: cube_version -> (subspace, answer), one per checked generation.
        self.spots: dict[str, tuple[str, tuple]] = {}

    def _open(self, log: SpanLog | None) -> CubeService:
        root = self.run.work / "snapshots"
        if log is None:
            return CubeService(SnapshotStore(root), default_snapshot=SNAPSHOT)
        return CubeService(
            TimedSnapshotStore(log, root),
            cache=TimedResultCache(log),
            admission=TimedAdmissionController(log),
            default_snapshot=SNAPSHOT,
        )

    def measure(self) -> None:
        run = self.run
        handle, encode = self.service.handle_http, json.dumps
        if run.log is not None:
            handle = run.log.wrap("serve.request", handle)
            encode = run.log.wrap(
                "serve.encode", encode, lambda args, text: {"bytes": len(text)}
            )

        def request(method, path, query, body):
            status, payload, _ = handle(method, path, query, body)
            encode(payload)
            return status, payload

        request = run.timed(request)
        mix = WorkloadMix(run.data)
        rng = random.Random(run.seed)
        inserted: list[str] = []
        fast = 0
        i = 0
        run.start_clock()
        while True:
            i += 1
            mutation = op = None
            if self.churn and i % CHURN_EVERY == 0:
                if inserted and rng.random() < 0.5:
                    label = inserted.pop(rng.randrange(len(inserted)))
                    mutation = ("delete", label)
                    call = ("POST", "/v1/maintenance/delete", {}, {"label": label})
                else:
                    row, label = mix.churn_row(rng, i)
                    mutation = ("insert", row, label)
                    body = {"row": row, "label": label}
                    call = ("POST", "/v1/maintenance/insert", {}, body)
            else:
                op = mix.generate(rng)
                query = {key: [value] for key, value in op.params.items()}
                call = ("GET", op.path, query, {})
            t0 = time.perf_counter()
            try:
                status, payload = request(*call)
            except Exception:  # a crashed request is a failed operation
                run.detail.setdefault("first_exception", traceback.format_exc())
                status, payload = None, {}
            elapsed = time.perf_counter() - t0
            ok = status == 200
            run.record("mutation" if mutation else "query", elapsed, ok)
            if ok and mutation:
                self.oracle.record_mutation(payload["cube_version"], mutation)
                fast += payload["fast_path"]
                if mutation[0] == "insert":
                    inserted.append(mutation[2])
            elif ok and op.kind == "skyline":
                self._remember(op.params["subspace"], payload)
            if run.expired():
                break
        stats = self.service.cache.stats()
        lookups = stats["hits"] + stats["misses"]
        run.detail.update(
            cache_hit_ratio=stats["hits"] / lookups if lookups else 0.0,
            cache_evictions=stats["evictions"],
            cache_invalidated=stats["invalidated"],
            mutations_fast=fast,
            objects=run.data.n_objects,
        )

    def _remember(self, subspace: str, payload: dict) -> None:
        answer = tuple(payload["result"])
        if not self.churn:
            self.skylines[subspace, answer] += 1
            return
        version = payload["cube_version"]
        generation = int(version.partition("+")[2] or 0)
        if generation % CHURN_EVERY == 0 and version not in self.spots:
            self.spots[version] = (subspace, answer)

    def verify(self) -> None:
        if self.churn:
            self._verify_churn()
        else:
            self._verify_read()

    def _verify_read(self) -> None:
        """Each skyline answer against ``compute_skyline`` on the data."""
        run, data = self.run, self.run.data
        expected: dict[str, list[str]] = {}
        wrong = 0
        for (subspace, answer), count in self.skylines.items():
            if subspace not in expected:
                mask = data.parse_subspace(subspace)
                members = compute_skyline(data, mask)
                expected[subspace] = sorted(data.labels[i] for i in members)
            if sorted(answer) != expected[subspace]:
                wrong += count
        run.failed += wrong
        run.detail["skyline_answers_wrong"] = wrong
        served = self.service._state(SNAPSHOT).cube
        run.check(
            "served_cube_matches_oracle",
            base_order_fingerprint(served, run.base, run.perm)
            == run.oracle.cube_fingerprint(run.base),
        )

    def _verify_churn(self) -> None:
        """Spot checks, WAL replay, and the final cube against the oracle."""
        run = self.run
        live = self.service._state(SNAPSHOT)
        # The oracle drops a base whose acknowledgements skip a generation.
        run.check("mutation_acks_in_order", self.oracle.knows(live.cube_version))
        if not run.checks["mutation_acks_in_order"]:
            return
        wrong = sum(
            sorted(answer) != self.oracle.expected_skyline(version, subspace)
            for version, (subspace, answer) in self.spots.items()
        )
        run.failed += wrong
        run.detail.update(spot_checks=len(self.spots), spot_checks_wrong=wrong)
        live_fingerprint = cube_fingerprint(live.cube)
        self.service.close()
        reopened = self._open(None)
        try:
            reopened.preload()
            replayed = cube_fingerprint(reopened._state(SNAPSHOT).cube)
        finally:
            reopened.close()
        run.check("wal_replay_matches_live", replayed == live_fingerprint)
        final = self.oracle.dataset_at(live.cube_version)
        run.check(
            "live_cube_matches_oracle", naive_fingerprint(final) == live_fingerprint
        )

    def close(self) -> None:
        self.service.close()


BENCHES = {"build": BuildBench, "read": ServeBench, "churn": ServeBench}


def _summary(latencies: list[float]) -> dict:
    return {
        "count": len(latencies),
        "p50_ms": percentile(latencies, 50) * 1e3,
        "p99_ms": percentile(latencies, 99) * 1e3,
        "per_s": len(latencies) / sum(latencies) if latencies else 0.0,
    }


def child_main(args, started: float) -> dict:
    """One workload run in this process; ``started`` precedes ``import repro``."""
    (name,) = args.workload
    workload = WORKLOADS[name]
    work = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(workload, args, work)
    bench = None
    try:
        bench = BENCHES[workload.kind](run)
        setup_s = time.perf_counter() - started
        result = {"workload": workload.name, "seed": run.seed, "setup_s": setup_s}
        if args.setup_only:
            return result
        bench.measure()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run.stop_tracing()
        bench.verify()
    finally:
        run.stop_tracing()
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
    ops = {kind: _summary(values) for kind, values in run.latencies.items()}
    primary = ops[PRIMARY_OP[workload.kind]]
    result.update(
        traced=bool(args.trace),
        op_kind=PRIMARY_OP[workload.kind],
        metrics={
            "op_p50_ms": {"value": primary["p50_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        },
        per_layer=run.per_layer,
        missing_layers=run.missing_layers,
        ops=ops,
        attempted=run.attempted,
        failed=run.failed,
        checks=run.checks,
        detail=run.detail,
        env={
            "host_cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    )
    return result
