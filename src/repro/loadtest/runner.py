"""The open-loop load generator and soak-mode consistency oracle.

:func:`run_loadtest` drives one zipfian request stream against a serving
endpoint.  Arrivals follow a Poisson process at the configured rate and
are *scheduled*, never gated on completions (open loop): each request's
latency is measured from its scheduled arrival to its completion, so
server-side queueing shows up in the percentiles instead of silently
thinning the arrival stream (coordinated omission).

Soak mode adds maintenance churn from a dedicated thread -- inserts,
deletes, and optional snapshot re-publishes -- while the query stream
keeps running.  Because the harness performs every mutation itself and
each acknowledgement echoes the resulting ``cube_version``, the client
can rebuild any generation's dataset after the run and recompute subspace
skylines with :func:`repro.skyline.compute_skyline` (an independent code
path from the cube the server answered with).  Every distinct
``(cube_version, subspace, result)`` observation is audited; a mismatch
is the version-consistency violation the serving layer promises never to
produce.
"""

from __future__ import annotations

import json
import random
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable
from urllib.error import HTTPError, URLError
from urllib.parse import urlencode

from ..core.types import Dataset
from ..obs.context import TRACEPARENT_HEADER, TraceContext, use_trace_context
from ..obs.logging import get_logger
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SLOEngine, SLOReport, default_serving_slos
from ..obs.tracesink import TraceSink
from ..obs.tracing import Tracer
from ..skyline import compute_skyline
from .workload import WorkloadMix

__all__ = [
    "ConsistencyOracle",
    "LoadtestConfig",
    "RequestRecord",
    "LoadtestResult",
    "run_loadtest",
]

_LOG = get_logger("loadtest")


@dataclass(frozen=True)
class LoadtestConfig:
    """Knobs of one load run (all durations in seconds)."""

    duration_seconds: float = 10.0
    rate_rps: float = 50.0
    workers: int = 16
    seed: int = 0
    deadline_ms: float | None = None
    #: 0 disables churn; otherwise one insert/delete mutation per interval.
    churn_interval: float = 0.0
    #: 0 disables re-publishes; otherwise one hot reload per interval
    #: (requires the harness to own the dataset CSV).
    publish_interval: float = 0.0
    snapshot: str | None = None
    zipf_s: float = 1.1
    #: Latency-SLO threshold/target applied to the client-side report.
    slo_threshold_seconds: float = 0.25
    slo_target: float = 0.99
    availability_target: float = 0.999
    http_timeout: float = 30.0
    #: Directory for the client half of each sampled trace (None disables
    #: client-side trace capture).  Point it at the *same* directory the
    #: server's ``--trace-dir`` uses and the deterministic tail-sampling
    #: policy keeps the two halves of the same traces, so ``repro trace
    #: critical-path`` sees client and server spans together.
    trace_dir: str | None = None
    #: Client-side tail-sampling slow threshold; keep it equal to the
    #: server's so both halves of a slow trace survive sampling.
    trace_slow_ms: float = 100.0
    #: 0 disables restarts; otherwise the ``restart`` callable passed to
    #: :func:`run_loadtest` is invoked once per interval -- the
    #: kill-and-restart durability check of soak mode (the restarted
    #: server must replay its WAL back to at least the last acknowledged
    #: mutation count).
    restart_interval: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0:
            raise ValueError(
                f"duration must be positive, got {self.duration_seconds}"
            )
        if self.rate_rps <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_rps}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.churn_interval < 0 or self.publish_interval < 0:
            raise ValueError("churn/publish intervals must be >= 0")
        if self.restart_interval < 0:
            raise ValueError(
                f"restart interval must be >= 0, got {self.restart_interval}"
            )


@dataclass(frozen=True)
class RequestRecord:
    """One completed (or failed) request, as the client saw it."""

    kind: str
    status: int  # 0 on transport error
    seconds: float  # scheduled arrival -> completion (open loop)
    service_seconds: float  # send -> completion
    cached: bool = False
    cube_version: str = ""
    shed_reason: str = ""  # queue_full | timeout ('' when not shed)
    error: str = ""  # transport-level failure, if any
    #: The trace id the client generated and sent via ``traceparent`` --
    #: also the server-side trace's id, lookup-able with ``repro trace``.
    trace_id: str = ""

    @property
    def ok(self) -> bool:
        """The request was answered successfully."""
        return self.status == 200

    @property
    def shed(self) -> bool:
        """The request was shed by admission control (503)."""
        return self.status == 503

    @property
    def deadline_exceeded(self) -> bool:
        """The request was admitted but its deadline expired (504)."""
        return self.status == 504


@dataclass
class LoadtestResult:
    """Everything one run produced (the report layer aggregates this)."""

    config: LoadtestConfig
    records: list[RequestRecord]
    slo_report: SLOReport
    wall_seconds: float
    scheduled: int  # arrivals the open-loop schedule produced
    max_lag_seconds: float  # worst dispatcher lag behind the schedule
    churn: dict = field(default_factory=dict)
    consistency: dict = field(default_factory=dict)
    n_groups: int | None = None
    registry: MetricsRegistry | None = None
    #: Server-side snapshot-activation latency, scraped from ``/metrics``
    #: after the run (``{"count", "sum_s", "p50_s", "p99_s"}``; None when
    #: the scrape failed or the server never activated a snapshot).
    snapshot_activation: dict | None = None


class ConsistencyOracle:
    """Client-side ground truth for soak-mode consistency auditing.

    Tracks, per base version the harness published, the ordered mutation
    list applied to it; rebuilds any ``name@vN+k`` generation on demand
    and recomputes subspace skylines independently of the server's cube.
    The crash-recovery tests reuse it as the offline rebuild of
    "dataset + WAL": a replayed server generation must answer exactly
    what :meth:`expected_skyline` computes for its ``cube_version``.
    """

    def __init__(self, base: Dataset):
        self.base = base
        self._lock = threading.Lock()
        #: "name@vNNNNNN" -> ordered [("insert", row, label) | ("delete", label)]
        self._ops: dict[str, list[tuple]] = {}

    def register_base(self, cube_version: str) -> None:
        """Start tracking mutations applied on top of ``cube_version``."""
        with self._lock:
            self._ops.setdefault(cube_version, [])

    def record_mutation(self, cube_version: str, op: tuple) -> None:
        """Record ``op`` as producing ``cube_version`` (``base+k``).

        Ignored for bases the harness did not publish itself; if the ack
        sequence ever disagrees with the recorded op count (an external
        mutator raced ours), the base is evicted so its generations audit
        as *unverified* rather than producing false violations.
        """
        base, _, k = cube_version.partition("+")
        with self._lock:
            ops = self._ops.get(base)
            if ops is None:
                return
            ops.append(op)
            if int(k or 0) != len(ops):
                del self._ops[base]

    def knows(self, cube_version: str) -> bool:
        """Whether this generation's base was published by the harness."""
        base = cube_version.partition("+")[0]
        with self._lock:
            return base in self._ops

    def dataset_at(self, cube_version: str) -> Dataset:
        """The dataset of one generation: base rows + its mutation prefix."""
        base, _, k = cube_version.partition("+")
        with self._lock:
            ops = list(self._ops[base])[: int(k or 0)]
        rows = [list(map(float, row)) for row in self.base.values]
        labels = list(self.base.labels)
        for op in ops:
            if op[0] == "insert":
                rows.append(list(op[1]))
                labels.append(op[2])
            else:
                i = labels.index(op[1])
                del rows[i], labels[i]
        return Dataset.from_rows(
            rows,
            names=self.base.names,
            directions=self.base.directions,
            labels=labels,
        )

    def expected_skyline(self, cube_version: str, subspace: str) -> list[str]:
        """Sorted skyline labels recomputed independently of the server."""
        dataset = self.dataset_at(cube_version)
        mask = dataset.parse_subspace(subspace)
        return sorted(dataset.labels[i] for i in compute_skyline(dataset, mask))


def _http_json(
    url: str,
    body: dict | None = None,
    timeout: float = 30.0,
    headers: dict | None = None,
) -> tuple[int, dict, dict]:
    """One JSON request; HTTP errors come back as (status, payload, headers)."""
    request_headers = dict(headers or {})
    if body is None:
        request = urllib.request.Request(url, headers=request_headers)
    else:
        request_headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            url,
            data=json.dumps(body).encode(),
            headers=request_headers,
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return (
                response.status,
                json.loads(response.read()),
                dict(response.headers),
            )
    except HTTPError as exc:
        try:
            return exc.code, json.loads(exc.read()), dict(exc.headers or {})
        except (ValueError, json.JSONDecodeError):
            return exc.code, {}, dict(exc.headers or {})


class _Runner:
    def __init__(
        self,
        base_url: str,
        dataset: Dataset,
        config: LoadtestConfig,
        csv_text: str | None,
        restart: Callable[[], None] | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.dataset = dataset
        self.config = config
        self.csv_text = csv_text
        #: Kills and restarts the server behind ``base_url`` (durability
        #: drill); invoked every ``restart_interval`` seconds when set.
        self.restart = restart
        self.mix = WorkloadMix(dataset, zipf_s=config.zipf_s)
        self.records: list[RequestRecord] = []
        self._records_lock = threading.Lock()
        self.oracle = ConsistencyOracle(dataset)
        #: (cube_version, subspace) -> first observed skyline result; a
        #: later different observation is a read inconsistency even
        #: without the full oracle.
        self._seen: dict[tuple[str, str], tuple] = {}
        self.read_inconsistencies: list[dict] = []
        self.churn_stats = {
            "inserts": 0,
            "deletes": 0,
            "publishes": 0,
            "restarts": 0,
        }
        self.churn_errors: list[str] = []
        #: Post-restart probes whose replayed mutation count regressed
        #: below the last acknowledged one (lost durable writes).
        self.durability_violations: list[dict] = []
        #: Last cube_version an acknowledged mutation produced (written by
        #: the single churn thread, read by the restart thread).
        self._last_acked_version = ""
        #: Client half of the request-correlation layer (None when the run
        #: is untraced).  Default thresholds match the server's sink so the
        #: deterministic hash keeps the same baseline traces on both sides.
        self.trace_sink = (
            TraceSink(
                config.trace_dir,
                slow_threshold_s=config.trace_slow_ms / 1e3,
            )
            if config.trace_dir
            else None
        )
        # Client-side SLO accounting over open-loop latencies.
        self.registry = MetricsRegistry()
        self.engine = SLOEngine(
            default_serving_slos(
                kinds=tuple(self.mix.kinds),
                latency_threshold_seconds=config.slo_threshold_seconds,
                latency_target=config.slo_target,
                availability_target=config.availability_target,
            ),
            reg=self.registry,
        )

    # -- request issuing ---------------------------------------------------

    def _offer_client_span(self, root, status: int, error: str = "") -> None:
        """Offer the client half of a request's trace to the sink."""
        if self.trace_sink is None:
            return
        self.trace_sink.offer_span(
            root,
            source="client",
            error=status >= 500 or status == 0 or bool(error),
            shed=status == 503,
        )

    def _traced_http(
        self, endpoint: str, url: str, body: dict | None = None
    ) -> tuple[int, dict]:
        """One control-plane call under a fresh per-request trace context.

        Publishes and maintenance mutations go through here so even the
        churn thread's requests are correlated end to end.
        """
        ctx = TraceContext.new(endpoint=endpoint)
        tracer = Tracer()
        with use_trace_context(ctx):
            with tracer.span("client.request", endpoint=endpoint) as root:
                status, payload, _ = _http_json(
                    url,
                    body,
                    timeout=self.config.http_timeout,
                    headers={
                        TRACEPARENT_HEADER: ctx.child(
                            root.span_id
                        ).to_traceparent()
                    },
                )
        self._offer_client_span(root, status)
        return status, payload

    def _issue(self, request, arrival: float) -> None:
        params = dict(request.params)
        if self.config.snapshot:
            params["snapshot"] = self.config.snapshot
        if self.config.deadline_ms is not None:
            params["deadline_ms"] = f"{self.config.deadline_ms:g}"
        url = f"{self.base_url}{request.path}?{urlencode(params)}"
        # Fresh context per request: the span covers send -> completion, so
        # the reassembled trace's root duration is the client-measured
        # service time (the open-loop ``seconds`` additionally counts
        # scheduling lag, which no server span can account for).
        ctx = TraceContext.new(endpoint=request.path)
        tracer = Tracer()
        status, payload, error = 0, {}, ""
        with use_trace_context(ctx):
            with tracer.span(
                "client.request", endpoint=request.path, kind=request.kind
            ) as client_span:
                sent = time.perf_counter()
                try:
                    status, payload, _ = _http_json(
                        url,
                        timeout=self.config.http_timeout,
                        headers={
                            TRACEPARENT_HEADER: ctx.child(
                                client_span.span_id
                            ).to_traceparent()
                        },
                    )
                except (URLError, OSError, ValueError) as exc:
                    error = repr(exc)
                done = time.perf_counter()
        record = RequestRecord(
            kind=request.kind,
            status=status,
            seconds=done - arrival,
            service_seconds=done - sent,
            cached=bool(payload.get("cached", False)),
            cube_version=str(payload.get("cube_version", "")),
            shed_reason=str(payload.get("reason", "")) if status == 503 else "",
            error=error,
            trace_id=ctx.trace_id,
        )
        self._offer_client_span(client_span, status, error)
        self._observe(record)
        if (
            record.ok
            and request.kind == "skyline"
            and "subspace" in request.params
        ):
            self._note_skyline(
                record.cube_version,
                request.params["subspace"],
                tuple(payload.get("result", ())),
            )

    def _observe(self, record: RequestRecord) -> None:
        with self._records_lock:
            self.records.append(record)
        self.registry.histogram(
            f"serve.request.{record.kind}.seconds"
        ).observe(record.seconds)
        if record.shed:
            self.registry.counter("serve.shed").inc()
        else:
            self.registry.counter("serve.admitted").inc()

    def _note_skyline(
        self, cube_version: str, subspace: str, result: tuple
    ) -> None:
        key = (cube_version, subspace)
        with self._records_lock:
            first = self._seen.setdefault(key, result)
            if first != result:
                self.read_inconsistencies.append(
                    {
                        "cube_version": cube_version,
                        "subspace": subspace,
                        "first": list(first),
                        "later": list(result),
                    }
                )

    # -- soak churn --------------------------------------------------------

    def _register_serving_version(self) -> None:
        """Pin the currently-active generation into the oracle.

        Soak verification needs a known base dataset per version; the
        harness publishes its own CSV so the active version *is* the base
        dataset, and any mutations from here on are its own.
        """
        if self.csv_text is None:
            return
        name = self.config.snapshot or "loadtest"
        status, ack = self._traced_http(
            "/v1/snapshots/publish",
            f"{self.base_url}/v1/snapshots/publish",
            {"name": name, "csv": self.csv_text},
        )
        if status != 200:
            raise RuntimeError(f"publish failed ({status}): {ack}")
        self.oracle.register_base(f"{name}@{ack['version']}")
        self.churn_stats["publishes"] += 1

    def _churn_loop(self, stop: threading.Event) -> None:
        """Serial mutation stream: insert/delete pairs, periodic publishes.

        Runs in one thread so mutation acknowledgements arrive in a known
        order and the oracle's per-version op lists stay exact.
        """
        rng = random.Random(self.config.seed + 1)
        name = self.config.snapshot or "loadtest"
        index = 0
        pending_delete: str | None = None
        last_publish = time.perf_counter()
        while not stop.wait(self.config.churn_interval or 1.0):
            if self.config.churn_interval:
                try:
                    if pending_delete is None:
                        row, label = self.mix.churn_row(rng, index)
                        index += 1
                        status, ack = self._traced_http(
                            "/v1/maintenance/insert",
                            f"{self.base_url}/v1/maintenance/insert",
                            {"row": row, "label": label, "snapshot": name},
                        )
                        if status == 200:
                            self.oracle.record_mutation(
                                ack["cube_version"], ("insert", row, label)
                            )
                            self._last_acked_version = ack["cube_version"]
                            self.churn_stats["inserts"] += 1
                            pending_delete = label
                        else:
                            self.churn_errors.append(f"insert {status}: {ack}")
                    else:
                        status, ack = self._traced_http(
                            "/v1/maintenance/delete",
                            f"{self.base_url}/v1/maintenance/delete",
                            {"label": pending_delete, "snapshot": name},
                        )
                        if status == 200:
                            self.oracle.record_mutation(
                                ack["cube_version"],
                                ("delete", pending_delete),
                            )
                            self._last_acked_version = ack["cube_version"]
                            self.churn_stats["deletes"] += 1
                        else:
                            self.churn_errors.append(f"delete {status}: {ack}")
                        pending_delete = None
                except (URLError, OSError) as exc:
                    self.churn_errors.append(repr(exc))
            if (
                self.config.publish_interval
                and self.csv_text is not None
                and time.perf_counter() - last_publish
                >= self.config.publish_interval
            ):
                try:
                    self._register_serving_version()
                    # A re-publish resets the served generation; the next
                    # churn cycle starts a fresh insert/delete pair.
                    pending_delete = None
                    last_publish = time.perf_counter()
                except (RuntimeError, URLError, OSError) as exc:
                    self.churn_errors.append(repr(exc))

    # -- kill-and-restart durability drill ---------------------------------

    def _restart_loop(self, stop: threading.Event) -> None:
        """Periodically kill + restart the server, then probe durability."""
        assert self.restart is not None
        while not stop.wait(self.config.restart_interval):
            try:
                self.restart()
            except Exception as exc:  # restart hook is caller-supplied
                self.churn_errors.append(f"restart: {exc!r}")
                continue
            self.churn_stats["restarts"] += 1
            self._durability_probe()

    def _durability_probe(self) -> None:
        """The replayed generation must not lose acknowledged mutations.

        Compares the ``cube_version`` a fresh query reports against the
        last mutation acknowledgement: same base version with a *smaller*
        mutation count means durable (fsync-acknowledged) writes vanished
        in the restart.  A different base (concurrent publish/compaction)
        is not comparable and is skipped; the post-run skyline audit still
        verifies those generations' contents.
        """
        expected = self._last_acked_version
        if not expected:
            return
        params = {"subspace": self.dataset.names[0]}
        if self.config.snapshot:
            params["snapshot"] = self.config.snapshot
        url = f"{self.base_url}/v1/skyline?{urlencode(params)}"
        try:
            status, payload = self._traced_http("/v1/skyline", url)
        except (URLError, OSError) as exc:
            self.churn_errors.append(f"durability probe: {exc!r}")
            return
        if status != 200:
            self.churn_errors.append(f"durability probe {status}: {payload}")
            return
        replayed = str(payload.get("cube_version", ""))
        exp_base, _, exp_k = expected.partition("+")
        got_base, _, got_k = replayed.partition("+")
        if got_base == exp_base and int(got_k or 0) < int(exp_k or 0):
            self.durability_violations.append(
                {"acknowledged": expected, "replayed": replayed}
            )

    # -- verification ------------------------------------------------------

    def _audit(self) -> dict:
        """Post-run consistency audit of every distinct skyline observation."""
        with self._records_lock:
            seen = dict(self._seen)
        violations: list[dict] = []
        verified = 0
        unverified = set()
        for (cube_version, subspace), result in sorted(seen.items()):
            if not cube_version or not self.oracle.knows(cube_version):
                unverified.add(cube_version)
                continue
            expected = self.oracle.expected_skyline(cube_version, subspace)
            if sorted(result) != expected:
                violations.append(
                    {
                        "cube_version": cube_version,
                        "subspace": subspace,
                        "served": sorted(result),
                        "expected": expected,
                    }
                )
            else:
                verified += 1
        return {
            "observations": len(seen),
            "verified": verified,
            "unverified_versions": sorted(unverified),
            "violations": violations,
            "read_inconsistencies": list(self.read_inconsistencies),
            "durability_violations": list(self.durability_violations),
            "churn_errors": list(self.churn_errors),
        }

    def _activation_stats(self) -> dict | None:
        """Snapshot-activation latency, scraped from the server's /metrics.

        Parses the cumulative ``repro_serve_snapshot_activate_seconds``
        histogram and reconstructs percentiles with the bucket-upper-bound
        convention (the value reported is the ``le`` bound of the first
        bucket whose cumulative count reaches the rank; ``+Inf`` falls back
        to the largest finite bound).  This is the server's own measurement
        of snapshot activation cost (mapping ``cube.bin`` and replaying the
        WAL), which is why it is scraped rather than measured from the
        client side.
        """
        try:
            request = urllib.request.Request(f"{self.base_url}/metrics")
            with urllib.request.urlopen(
                request, timeout=self.config.http_timeout
            ) as response:
                scrape = response.read().decode()
        except (URLError, OSError, ValueError):
            return None
        prefix = "repro_serve_snapshot_activate_seconds"
        buckets: list[tuple[float, int]] = []
        count = 0
        total = 0.0
        for line in scrape.splitlines():
            if not line.startswith(prefix) or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            if name == f"{prefix}_count":
                count = int(float(value))
            elif name == f"{prefix}_sum":
                total = float(value)
            elif name.startswith(f'{prefix}_bucket{{le="'):
                bound = name[len(f'{prefix}_bucket{{le="') : -2]
                buckets.append(
                    (float("inf") if bound == "+Inf" else float(bound),
                     int(float(value)))
                )
        if count == 0 or not buckets:
            return None
        buckets.sort()
        largest_finite = max(
            (b for b, _ in buckets if b != float("inf")), default=0.0
        )

        def quantile(q: float) -> float:
            rank = q * count
            for bound, cumulative in buckets:
                if cumulative >= rank:
                    return bound if bound != float("inf") else largest_finite
            return largest_finite

        return {
            "count": count,
            "sum_s": total,
            "p50_s": quantile(0.50),
            "p99_s": quantile(0.99),
        }

    def _server_groups(self) -> int | None:
        """The served cube's group count (feeds the capacity model)."""
        try:
            status, payload, _ = _http_json(
                f"{self.base_url}/v1/snapshots", timeout=self.config.http_timeout
            )
        except (URLError, OSError):
            return None
        if status != 200:
            return None
        for snap in payload.get("snapshots", ()):
            for version in snap.get("versions", ()):
                if version.get("active"):
                    return version.get("n_groups")
        return None

    # -- the run -----------------------------------------------------------

    def run(self) -> LoadtestResult:
        config = self.config
        rng = random.Random(config.seed)
        if self.csv_text is not None:
            self._register_serving_version()
        stop = threading.Event()
        churn_thread = None
        if config.churn_interval or config.publish_interval:
            churn_thread = threading.Thread(
                target=self._churn_loop,
                args=(stop,),
                name="repro-loadtest-churn",
                daemon=True,
            )
            churn_thread.start()
        restart_thread = None
        if config.restart_interval and self.restart is not None:
            restart_thread = threading.Thread(
                target=self._restart_loop,
                args=(stop,),
                name="repro-loadtest-restart",
                daemon=True,
            )
            restart_thread.start()
        # Sample the SLO engine a few times during the run so windowed
        # burn rates have history even for short runs.
        sampler_stop = threading.Event()
        sample_every = max(min(2.0, config.duration_seconds / 5.0), 0.05)

        def sample_loop() -> None:
            while not sampler_stop.wait(sample_every):
                self.engine.sample()

        sampler = threading.Thread(
            target=sample_loop, name="repro-loadtest-slo", daemon=True
        )
        self.engine.sample()
        sampler.start()

        scheduled = 0
        max_lag = 0.0
        start = time.perf_counter()
        deadline = start + config.duration_seconds
        next_at = start
        with ThreadPoolExecutor(
            max_workers=config.workers,
            thread_name_prefix="repro-loadtest",
        ) as pool:
            while next_at < deadline:
                now = time.perf_counter()
                if next_at > now:
                    time.sleep(next_at - now)
                else:
                    max_lag = max(max_lag, now - next_at)
                request = self.mix.generate(rng)
                pool.submit(self._issue, request, next_at)
                scheduled += 1
                next_at += rng.expovariate(config.rate_rps)
        stop.set()
        sampler_stop.set()
        if churn_thread is not None:
            churn_thread.join(timeout=30)
        if restart_thread is not None:
            restart_thread.join(timeout=30)
        sampler.join(timeout=10)
        wall = time.perf_counter() - start
        report = self.engine.sample()
        _LOG.info(
            "loadtest.done",
            extra={
                "scheduled": scheduled,
                "completed": len(self.records),
                "wall_seconds": round(wall, 3),
            },
        )
        return LoadtestResult(
            config=config,
            records=list(self.records),
            slo_report=report,
            wall_seconds=wall,
            scheduled=scheduled,
            max_lag_seconds=max_lag,
            churn=dict(self.churn_stats),
            consistency=self._audit(),
            n_groups=self._server_groups(),
            registry=self.registry,
            snapshot_activation=self._activation_stats(),
        )


def run_loadtest(
    base_url: str,
    dataset: Dataset,
    config: LoadtestConfig | None = None,
    csv_text: str | None = None,
    restart: Callable[[], None] | None = None,
) -> LoadtestResult:
    """Run one open-loop load test against a live serving endpoint.

    ``dataset`` shapes the workload (subspaces, labels, value ranges) and
    must describe the data actually served.  Passing ``csv_text`` puts the
    harness in *soak* mode: it publishes that CSV itself (so it owns the
    active generation), drives the configured maintenance churn, and
    audits every observed ``(cube_version, subspace)`` skyline against an
    independently recomputed oracle after the run.

    ``restart`` (with ``config.restart_interval > 0``) adds the
    kill-and-restart durability drill: the callable must tear down the
    server behind ``base_url`` -- discarding all in-memory state -- and
    bring a fresh one up on the same address and snapshot store.  After
    each restart the harness probes that WAL replay restored at least the
    last acknowledged mutation count; a regression is reported as a
    ``durability_violation`` and fails the run like any other
    consistency violation.
    """
    runner = _Runner(
        base_url, dataset, config or LoadtestConfig(), csv_text, restart=restart
    )
    return runner.run()
