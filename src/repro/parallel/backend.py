"""Execution backends and the shard fan-out primitive.

Three backends run a list of independent shard computations:

* ``serial`` -- a plain loop in the calling thread (the reference path);
* ``thread`` -- a :class:`~concurrent.futures.ThreadPoolExecutor`; no
  pickling, shares memory, and wins exactly where numpy releases the GIL
  inside large broadcasts;
* ``process`` -- a :class:`~concurrent.futures.ProcessPoolExecutor`
  (``fork`` start method where available, ``spawn`` otherwise); sidesteps
  the GIL entirely at the price of shipping shard inputs across processes.

``auto`` is not a fourth backend but a policy: it resolves to ``serial``
below :data:`AUTO_MIN_OBJECTS` work units or on a single-CPU host, and to
``process`` (``thread`` where ``fork`` is unavailable) above it.

Configuration is resolved in precedence order: an explicit argument
(``stellar(..., parallel=...)``), else the process default, which is
:data:`SERIAL` unless the CLI ``--parallel`` flag installed another one for
the duration of its command (:func:`default_parallel`).  The default is a
plain module global, so every thread of the process -- HTTP handler threads
included -- resolves the same configuration.

The spec grammar, shared by the CLI flag and the ``parallel=`` keyword
arguments::

    serial                 force the serial path
    auto | auto:N          size-based selection, optionally capping workers
    thread | thread:N      force the thread backend
    process | process:N    force the process backend
    N (an integer)         shorthand for process:N (N <= 1 means serial)

Worker counts, per-shard wall-clock, and dominance-comparison counts all
flow back into the ambient :mod:`repro.obs` span tree and metrics registry:
every fan-out records a ``parallel.map`` span with one ``shard`` child per
work item, increments the ``parallel.maps`` / ``parallel.shards`` counters,
and feeds the ``parallel.shard_seconds`` histogram.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Sequence
from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from contextlib import contextmanager
from dataclasses import dataclass

from ..core.dominance import COMPARISONS
from ..obs.context import TraceContext, current_trace_context, use_trace_context
from ..obs.metrics import registry
from ..obs.tracing import Span, Tracer, current_tracer

__all__ = [
    "AUTO_MIN_OBJECTS",
    "SERIAL",
    "ParallelConfig",
    "chunk_ranges",
    "default_parallel",
    "default_workers",
    "get_shared",
    "map_shards",
    "parse_parallel_spec",
    "resolve_parallel",
]

#: Work-unit count below which ``auto`` stays serial: pool start-up and
#: shard pickling dominate any win on small inputs.
AUTO_MIN_OBJECTS = 8192

_BACKENDS = ("serial", "thread", "process", "auto")


def default_workers() -> int:
    """Worker count when none is given: the CPUs usable by this process."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux hosts
        return max(1, os.cpu_count() or 1)


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


@dataclass(frozen=True)
class ParallelConfig:
    """One resolved parallel-execution policy.

    Attributes
    ----------
    backend:
        ``serial`` / ``thread`` / ``process``, or ``auto`` for size-based
        selection (see :meth:`plan`).
    workers:
        Worker cap; ``None`` means :func:`default_workers`.
    """

    backend: str = "auto"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            known = ", ".join(_BACKENDS)
            raise ValueError(
                f"unknown parallel backend {self.backend!r}; known: {known}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def effective_workers(self) -> int:
        """The worker cap with ``None`` resolved to the host CPU count."""
        return self.workers if self.workers is not None else default_workers()

    @property
    def kind(self) -> str:
        """The pool type ``auto`` resolves to on this host."""
        if self.backend == "auto":
            return "process" if _fork_available() else "thread"
        return self.backend

    def plan(self, size: int, floor: int = AUTO_MIN_OBJECTS) -> int:
        """Workers to use for a stage over ``size`` work units (0 = serial).

        A forced ``thread``/``process`` backend always engages (the caller
        asked for it explicitly, e.g. in an equality test); ``auto`` engages
        only above ``floor``, which is how small inputs dodge the pool
        overhead entirely.
        """
        workers = self.effective_workers
        if workers <= 1 or self.backend == "serial":
            return 0
        if self.backend == "auto" and size < floor:
            return 0
        return workers

    def describe(self) -> str:
        """Round-trippable spec string (``process:4``, ``serial``, ...)."""
        if self.backend == "serial":
            return "serial"
        if self.workers is None:
            return self.backend
        return f"{self.backend}:{self.workers}"


#: The do-nothing configuration every resolution chain falls back to.
SERIAL = ParallelConfig(backend="serial", workers=1)


def parse_parallel_spec(
    spec: "ParallelConfig | str | int | None",
) -> ParallelConfig:
    """Parse a spec (see the module docstring grammar) into a config.

    ``None`` parses to :data:`SERIAL` so call sites can pass optional
    values straight through.
    """
    if spec is None:
        return SERIAL
    if isinstance(spec, ParallelConfig):
        return spec
    if isinstance(spec, bool):  # bool is an int subclass; reject explicitly
        raise ValueError("parallel spec must be a string, int, or config")
    if isinstance(spec, int):
        if spec <= 1:
            return SERIAL
        return ParallelConfig(backend="process", workers=spec)
    text = str(spec).strip().lower()
    if not text:
        return SERIAL
    if text.lstrip("+-").isdigit():
        return parse_parallel_spec(int(text))
    name, _, count = text.partition(":")
    if name not in _BACKENDS:
        known = ", ".join(_BACKENDS)
        raise ValueError(
            f"unknown parallel spec {spec!r}; expected one of {known}, "
            f"optionally with ':N' workers, or a plain worker count"
        )
    workers: int | None = None
    if count:
        try:
            workers = int(count)
        except ValueError:
            raise ValueError(
                f"invalid worker count in parallel spec {spec!r}"
            ) from None
        if workers < 1:
            raise ValueError(f"worker count must be >= 1 in spec {spec!r}")
    if name == "serial":
        return SERIAL
    return ParallelConfig(backend=name, workers=workers)


#: Process default for calls without an explicit spec; only
#: :func:`default_parallel` (the CLI ``--parallel`` flag) changes it.
_DEFAULT: ParallelConfig = SERIAL


@contextmanager
def default_parallel(spec: "ParallelConfig | str | int | None"):
    """Install the process default configuration for the enclosed block.

    The previous default is restored on exit, whether the block returns or
    raises.
    """
    global _DEFAULT
    previous, _DEFAULT = _DEFAULT, parse_parallel_spec(spec)
    try:
        yield _DEFAULT
    finally:
        _DEFAULT = previous


def resolve_parallel(
    explicit: "ParallelConfig | str | int | None" = None,
) -> ParallelConfig:
    """Resolve the active configuration: explicit, else the process default."""
    if explicit is not None:
        return parse_parallel_spec(explicit)
    return _DEFAULT


def chunk_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into at most ``parts`` contiguous balanced ranges.

    Deterministic and order-preserving: concatenating the ranges yields
    ``range(n)``, which is what lets every call site merge shard results
    back into the exact serial order.
    """
    if n <= 0 or parts <= 0:
        return []
    parts = min(parts, n)
    base, extra = divmod(n, parts)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# -- worker-side state ------------------------------------------------------

#: Read-only payload visible to shard functions via :func:`get_shared`.
_SHARED: object = None
#: True inside a process-pool worker; gates comparison-count reconciliation.
_IN_WORKER_PROCESS = False


def _init_worker(shared: object, log_config: dict | None = None) -> None:
    """Process-pool initializer: install the shared payload once per worker.

    Also re-applies the parent's structured-logging configuration so worker
    log records carry the same JSON shape (spawned workers start from a
    clean interpreter and would otherwise log unconfigured).
    """
    global _SHARED, _IN_WORKER_PROCESS
    _SHARED = shared
    _IN_WORKER_PROCESS = True
    if log_config is not None:
        from ..obs.logging import configure_logging

        configure_logging(**log_config)


def get_shared() -> object:
    """The shared payload of the enclosing :func:`map_shards` call."""
    return _SHARED


def _run_shard(
    fn: Callable, item: object, ctx_dict: dict | None = None
) -> tuple[object, int, int, int, int, int]:
    """Execute one shard, measuring wall-clock and comparison counts.

    Returns ``(result, start_ns, end_ns, comparisons, span_id, pid)`` where
    ``comparisons`` is non-zero only in process-pool workers (thread and
    serial shards already update the parent's global counter directly).
    ``perf_counter_ns`` is ``CLOCK_MONOTONIC`` on Linux and therefore
    comparable across the processes of one host, which is what makes the
    reconstructed shard spans line up on a single timeline.

    When the calling request had a :class:`~repro.obs.context.TraceContext`,
    ``ctx_dict`` carries it across the pool boundary (the same mechanism
    for thread and process backends, since executor tasks do not inherit
    the submitter's context variables).  The context is installed for the
    shard's duration -- worker-side log, slowlog, and flight records pick
    up the request's ``trace_id`` -- and the shard runs under a real span
    whose worker-allocated ``span_id`` is reported back so the parent's
    reconstructed shard span keeps the same identity the worker's own
    telemetry referenced.
    """
    before = COMPARISONS.value
    if ctx_dict is None:
        start = time.perf_counter_ns()
        result = fn(item)
        end = time.perf_counter_ns()
        delta = COMPARISONS.value - before if _IN_WORKER_PROCESS else 0
        return result, start, end, delta, 0, os.getpid()
    ctx = TraceContext.from_dict(ctx_dict)
    tracer = Tracer()
    with use_trace_context(ctx):
        with tracer.span("shard") as sp:
            result = fn(item)
    delta = COMPARISONS.value - before if _IN_WORKER_PROCESS else 0
    return result, sp.start_ns, sp.end_ns, delta, sp.span_id, os.getpid()


@contextmanager
def _shared_inline(shared: object):
    """Expose the shared payload to shards running in this process."""
    global _SHARED
    previous = _SHARED
    _SHARED = shared
    try:
        yield
    finally:
        _SHARED = previous


def _make_executor(kind: str, workers: int, shared: object) -> Executor:
    if kind == "thread":
        return ThreadPoolExecutor(max_workers=workers)
    from ..obs.logging import logging_config

    method = "fork" if _fork_available() else "spawn"
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(method),
        initializer=_init_worker,
        initargs=(shared, logging_config()),
    )


def map_shards(
    op: str,
    fn: Callable,
    items: Sequence[object],
    *,
    config: ParallelConfig,
    workers: int,
    shared: object = None,
    progress: Callable[[int, object], None] | None = None,
) -> list[object]:
    """Run ``fn`` over ``items`` on the configured backend, preserving order.

    Parameters
    ----------
    op:
        Name of the stage, recorded on the ``parallel.map`` span.
    fn:
        Module-level shard function (must be picklable for the process
        backend).  It may read the ``shared`` payload via
        :func:`get_shared`.
    items:
        Shard inputs; results come back in the same order regardless of
        completion order, which is the backbone of the determinism
        guarantee.
    config / workers:
        The resolved configuration and the worker count its
        :meth:`ParallelConfig.plan` returned for this stage.
    shared:
        Read-only payload distributed to workers once per pool (process
        backend: pickled into each worker by the pool initializer; thread
        and serial backends: shared by reference).
    progress:
        Optional ``progress(index, result)`` callback fired *in the calling
        process* as each shard completes, in completion order (serial
        backend: after each item).  This is how live build progress crosses
        the pool boundary -- workers cannot tick the parent's progress task,
        but the parent sees every completion.  The callback must be cheap
        and must not raise; an exception from it aborts the fan-out like a
        shard failure.

    Crash safety: the first shard exception cancels all not-yet-started
    shards, shuts the pool down, and re-raises in the caller; the backend
    object holds no state across calls, so subsequent fan-outs are
    unaffected.
    """
    items = list(items)
    if not items:
        return []
    kind = config.kind
    workers = min(workers, len(items))
    if kind == "serial" or workers <= 1 or len(items) == 1:
        with _shared_inline(shared):
            if progress is None:
                return [fn(item) for item in items]
            results_inline: list[object] = []
            for i, item in enumerate(items):
                result = fn(item)
                results_inline.append(result)
                progress(i, result)
            return results_inline

    tracer = current_tracer()
    handle = (
        tracer.span(
            "parallel.map",
            op=op,
            backend=kind,
            workers=workers,
            shards=len(items),
        )
        if tracer is not None
        else None
    )
    parent_span: Span | None = handle.__enter__() if handle else None
    # Ship the ambient request context (if any) to the pool workers,
    # re-parented under the parallel.map span so worker shard spans stitch
    # into the calling request's trace.
    ctx = current_trace_context()
    ship_ctx: dict | None = None
    if ctx is not None:
        parent_id = (
            parent_span.span_id if parent_span is not None else ctx.parent_span_id
        )
        ship_ctx = ctx.child(parent_id).to_dict()
    try:
        outcomes = _execute(kind, fn, items, workers, shared, progress, ship_ctx)
    finally:
        if handle is not None:
            handle.__exit__(None, None, None)

    results: list[object] = []
    reg = registry()
    reg.counter("parallel.maps").inc()
    reg.counter("parallel.shards").inc(len(outcomes))
    reg.gauge("parallel.workers").set(workers)
    shard_hist = reg.histogram("parallel.shard_seconds")
    foreign_comparisons = 0
    for i, (result, start_ns, end_ns, comparisons, shard_id, pid) in enumerate(
        outcomes
    ):
        results.append(result)
        foreign_comparisons += comparisons
        shard_hist.observe((end_ns - start_ns) / 1e9)
        if parent_span is not None:
            child = Span(name="shard", start_ns=start_ns, end_ns=end_ns)
            child.annotate(index=i)
            if shard_id:
                # Keep the worker-allocated identity so the shard span joins
                # against the worker's own log/flight records.
                child.span_id = shard_id
                child.parent_span_id = parent_span.span_id
                child.trace_id = ship_ctx["trace_id"] if ship_ctx else ""
                child.annotate(pid=pid)
            if comparisons:
                child.count("dominance_comparisons", comparisons)
            parent_span.children.append(child)
    if foreign_comparisons:
        # Process-pool workers mutate their own copy of the global counter;
        # fold their deltas back so cost accounting matches the work done.
        COMPARISONS.add(foreign_comparisons)
    return results


def _execute(
    kind: str,
    fn: Callable,
    items: list[object],
    workers: int,
    shared: object,
    progress: Callable[[int, object], None] | None = None,
    ctx_dict: dict | None = None,
) -> list[tuple[object, int, int, int, int, int]]:
    if kind == "thread":
        with _shared_inline(shared):
            executor = _make_executor(kind, workers, shared)
            return _drain(executor, fn, items, progress, ctx_dict)
    executor = _make_executor(kind, workers, shared)
    return _drain(executor, fn, items, progress, ctx_dict)


def _drain(
    executor: Executor,
    fn: Callable,
    items: list[object],
    progress: Callable[[int, object], None] | None = None,
    ctx_dict: dict | None = None,
) -> list[tuple[object, int, int, int, int, int]]:
    try:
        futures = [
            executor.submit(_run_shard, fn, item, ctx_dict) for item in items
        ]
        try:
            if progress is not None:
                # Fire the callback in completion order, then gather the
                # (already-resolved) results in submission order below.
                index_of = {f: i for i, f in enumerate(futures)}
                for f in as_completed(futures):
                    progress(index_of[f], f.result()[0])
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
