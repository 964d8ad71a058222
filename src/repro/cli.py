"""Command-line interface: ``python -m repro`` / ``repro-skycube``.

Subcommands
-----------
``generate``
    Write a synthetic dataset (correlated / equal / anti-correlated /
    NBA-like) to CSV.
``run``
    Compute the compressed skyline cube of a CSV dataset with Stellar or
    Skyey; print signatures and statistics.
``skyline``
    One skyline query (full space or a named subspace) over a CSV dataset.
``cube``
    Precompute the compressed cube and persist it to a cube file.
``query``
    Answer the paper's Q1/Q2 queries (plus top-k frequency) from the
    compressed cube, optionally loading a persisted one.
``analyze``
    Multidimensional skyline analytics: compression summary, decisive-size
    histogram, dimension influence, hidden gems, robust winners.
``bench``
    Regenerate one evaluation figure (or ``all``) at a chosen scale; every
    run appends a normalized entry to the ``BENCH_<figure>.json`` ledger,
    and ``bench diff`` compares two ledger entries (non-zero exit on
    regression).
``flight``
    Flight-recorder utilities: ``flight dump`` writes the current ring as
    NDJSON, ``flight show FILE`` summarizes a previously written dump.
``serve``
    Serve published cube snapshots over HTTP/JSON: versioned snapshot
    store, result cache, admission control with load shedding, plus the
    ``/metrics`` and ``/healthz`` endpoints (see docs/SERVING.md).  A
    background sampler keeps the ``slo.*`` gauges (compliance, error
    budget, burn rates) fresh on ``/metrics``.
``loadtest``
    Open-loop zipfian load harness against a serving endpoint (or a
    self-hosted one): per-endpoint latency percentiles, shed rate,
    cache-hit ratio, SLO/error-budget report, fitted capacity model,
    soak-mode consistency audit; appends to the ``BENCH_serve.json``
    ledger for ``bench diff`` regression gating.

Every subcommand additionally accepts the observability flags
``--trace[=FILE]``, ``--metrics``, ``--profile``, ``--log-json[=LEVEL]``,
``--slowlog[=N]``, ``--flight``, and ``--progress[=MODE]`` (see
docs/OBSERVABILITY.md).

The flight recorder is always on (ring buffer only; dumped on crash or
``SIGUSR1``), and a resource heartbeat samples RSS/CPU once per second;
set ``REPRO_HEARTBEAT`` to a number of seconds or ``off`` to tune it.
``--progress`` writes a line when a build phase span opens and closes,
and each heartbeat refreshes it in between.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]

_EPILOG = """\
observability (accepted by every subcommand; see docs/OBSERVABILITY.md):
  --trace[=FILE]   record tracing spans; Chrome trace JSON to FILE
                   (.ndjson for NDJSON), console tree when FILE is omitted
  --metrics        print the metrics registry on exit (counters, Q1/Q2
                   latency percentiles, dominance comparisons)
  --profile        cProfile + tracemalloc around the command; print the
                   top hotspots on exit
  --log-json[=LEVEL]  emit structured JSON log records (span-correlated)
                   to stderr; LEVEL is debug|info|warning|error (default
                   info)
  --slowlog[=N]    capture the N slowest queries (default 10) and print
                   them, with their explain plans, on exit
  --flight         dump the always-on flight-recorder ring on exit as
                   well as on crash/SIGUSR1
  --progress[=MODE]  live progress on stderr, refreshed once per
                   heartbeat; MODE is tty | json | off | auto (default
                   auto: tty when stderr is a terminal)
"""


def _obs_parent() -> argparse.ArgumentParser:
    """Shared observability flags, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--trace",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="record tracing spans; write Chrome trace JSON to FILE "
        "(NDJSON when FILE ends in .ndjson), or print a console tree "
        "when FILE is omitted",
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry (counters and latency percentiles) "
        "on exit",
    )
    group.add_argument(
        "--profile",
        action="store_true",
        help="profile the command (cProfile + tracemalloc) and print the "
        "top hotspots on exit",
    )
    group.add_argument(
        "--log-json",
        nargs="?",
        const="info",
        default=None,
        metavar="LEVEL",
        help="emit structured JSON log records to stderr at LEVEL "
        "(debug | info | warning | error; default info)",
    )
    group.add_argument(
        "--slowlog",
        nargs="?",
        const=10,
        default=None,
        type=int,
        metavar="N",
        help="retain the N slowest queries (default 10) and print them, "
        "with their explain plans, on exit",
    )
    group.add_argument(
        "--flight",
        action="store_true",
        help="dump the always-on flight-recorder ring on exit in addition "
        "to crash/SIGUSR1 dumps",
    )
    group.add_argument(
        "--progress",
        nargs="?",
        const="auto",
        default=None,
        metavar="MODE",
        help="live progress (phase, items done/total, rate, ETA) on "
        "stderr; MODE is tty | json | off | auto (default auto)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro-skycube",
        description="Compressed multidimensional skyline cubes (Stellar, ICDE 2007)",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    obs = _obs_parent()
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser(
        "generate", help="generate a synthetic dataset CSV", parents=[obs]
    )
    p_gen.add_argument(
        "--distribution",
        default="independent",
        help="correlated | independent/equal | anticorrelated/anti | nba",
    )
    p_gen.add_argument("--n", type=int, default=1000, help="number of objects")
    p_gen.add_argument("--d", type=int, default=5, help="number of dimensions")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_gen.add_argument("--out", required=True, help="output CSV path")

    p_run = sub.add_parser(
        "run", help="compute the compressed skyline cube", parents=[obs]
    )
    p_run.add_argument("--input", required=True, help="dataset CSV")
    p_run.add_argument(
        "--algorithm", default="stellar", choices=["stellar", "skyey"]
    )
    p_run.add_argument(
        "--max-groups", type=int, default=50, help="signatures to print (0 = all)"
    )

    p_sky = sub.add_parser("skyline", help="one skyline query", parents=[obs])
    p_sky.add_argument("--input", required=True, help="dataset CSV")
    p_sky.add_argument(
        "--subspace", default=None, help="subspace, e.g. 'AC' or 'price,stops'"
    )
    p_sky.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "brute", "sfs", "numpy"],
        help="skyline algorithm (default auto: sfs below 128 rows, else numpy)",
    )

    p_cube = sub.add_parser(
        "cube",
        help="precompute the compressed cube (Stellar) and save it to a file",
        parents=[obs],
    )
    p_cube.add_argument("--input", required=True, help="dataset CSV")
    p_cube.add_argument("--out", required=True, help="output cube file path")

    p_query = sub.add_parser(
        "query", help="query the compressed cube", parents=[obs]
    )
    p_query.add_argument("--input", required=True, help="dataset CSV")
    p_query.add_argument(
        "--cube",
        default=None,
        help="saved cube file (from the `cube` subcommand); "
        "recomputed on the fly when omitted",
    )
    group = p_query.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--skyline-of", metavar="SUBSPACE", help="Q1: skyline of a subspace"
    )
    group.add_argument(
        "--where-wins", metavar="LABEL", help="Q2: subspaces where an object wins"
    )
    group.add_argument(
        "--wins-in",
        nargs=2,
        metavar=("LABEL", "SUBSPACE"),
        help="Q2: is the object in the subspace skyline?",
    )
    group.add_argument(
        "--why-not",
        nargs=2,
        metavar=("LABEL", "SUBSPACE"),
        help="explain the object's status (winners that dominate it) in a "
        "subspace",
    )
    group.add_argument(
        "--signature-of",
        metavar="LABEL",
        help="paper-style (G, B, C) signatures of the object's groups",
    )
    group.add_argument(
        "--top-frequent",
        metavar="K",
        type=int,
        help="top-K objects by number of subspaces won",
    )
    p_query.add_argument(
        "--explain",
        action="store_true",
        help="print the query's resolution plan (strategy, groups touched, "
        "comparisons) instead of the bare result",
    )

    p_analyze = sub.add_parser(
        "analyze",
        help="multidimensional skyline analytics over a dataset",
        parents=[obs],
    )
    p_analyze.add_argument("--input", required=True, help="dataset CSV")
    p_analyze.add_argument(
        "--cube", default=None, help="saved cube file (recomputed if omitted)"
    )

    p_bench = sub.add_parser(
        "bench", help="regenerate evaluation figures", parents=[obs]
    )
    p_bench.add_argument(
        "figure",
        choices=["fig8", "fig9", "fig10", "fig11", "fig12", "all", "diff"],
    )
    p_bench.add_argument(
        "--scale", default="default", choices=["smoke", "default", "paper"]
    )
    p_bench.add_argument(
        "--out", default=None, help="directory to save the rendered tables"
    )
    p_bench.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip appending this run to the BENCH_<figure>.json ledger",
    )
    ledger = p_bench.add_argument_group("ledger diff (figure = diff)")
    ledger.add_argument(
        "--ledger", default=None, metavar="FILE", help="ledger file to diff"
    )
    ledger.add_argument(
        "--baseline",
        type=int,
        default=0,
        metavar="IDX",
        help="baseline entry index (default 0; negative indexes from the end)",
    )
    ledger.add_argument(
        "--candidate",
        type=int,
        default=-1,
        metavar="IDX",
        help="candidate entry index (default -1, the latest entry)",
    )
    ledger.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="flag metrics that grew by more than FRAC (default 0.25 = +25%%)",
    )
    ledger.add_argument(
        "--only",
        action="append",
        default=None,
        metavar="GLOB",
        help="compare only metrics matching this glob (repeatable), e.g. "
        "--only '*_p99_s' for the serving-latency gate",
    )

    p_serve = sub.add_parser(
        "serve",
        help="serve published cube snapshots over HTTP/JSON",
        parents=[obs],
    )
    p_serve.add_argument(
        "--snapshot-dir",
        required=True,
        metavar="DIR",
        help="root directory of the snapshot store",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port (0 picks a free one; default 8080)",
    )
    p_serve.add_argument(
        "--snapshot",
        default=None,
        metavar="NAME",
        help="default snapshot for requests that do not name one",
    )
    p_serve.add_argument(
        "--publish",
        default=None,
        metavar="CSV",
        help="publish this dataset CSV as a new active snapshot version "
        "before serving (name from --snapshot or the file stem)",
    )
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="result-cache entries (0 disables caching; default 1024)",
    )
    p_serve.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        metavar="N",
        help="queries executing at once (default 8)",
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=1000.0,
        metavar="MS",
        help="default per-request deadline (default 1000)",
    )
    p_serve.add_argument(
        "--slo-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how often the SLO sampler refreshes the slo.* gauges on "
        "/metrics (0 disables; default 5)",
    )
    p_serve.add_argument(
        "--slo-threshold-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="per-endpoint latency-SLO threshold (default 250)",
    )
    p_serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="tail-sample request traces into this sink directory "
        "(browse with `repro trace`; default: tracing off)",
    )
    p_serve.add_argument(
        "--trace-slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="requests at least this slow are always kept by the trace "
        "sink (default 100)",
    )
    p_serve.add_argument(
        "--compact-threshold",
        type=int,
        default=0,
        metavar="N",
        help="auto-compact the WAL into a freshly published snapshot "
        "version once it holds N records (0 disables; default 0)",
    )

    p_compact = sub.add_parser(
        "compact",
        help="fold a snapshot's WAL segment into a new published version",
        parents=[obs],
    )
    p_compact.add_argument(
        "--snapshot-dir",
        required=True,
        metavar="DIR",
        help="root directory of the snapshot store",
    )
    p_compact.add_argument(
        "--snapshot",
        default=None,
        metavar="NAME",
        help="snapshot name (default: the only published name)",
    )
    p_compact.add_argument(
        "--version",
        default=None,
        metavar="vNNNNNN",
        help="base version whose WAL to compact (default: the active one)",
    )
    p_compact.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the summary line",
    )

    p_diff = sub.add_parser(
        "diff",
        help="temporal diff of two published snapshot versions "
        "(entered/exited groups, decisive deltas, subspace churn)",
        parents=[obs],
    )
    p_diff.add_argument(
        "--snapshot-dir",
        required=True,
        metavar="DIR",
        help="root directory of the snapshot store",
    )
    p_diff.add_argument(
        "--snapshot",
        default=None,
        metavar="NAME",
        help="snapshot name (default: the only published name)",
    )
    p_diff.add_argument(
        "--from",
        dest="from_version",
        default=None,
        metavar="vNNNNNN",
        help="older version (default: the version just before --to)",
    )
    p_diff.add_argument(
        "--to",
        dest="to_version",
        default=None,
        metavar="vNNNNNN",
        help="newer version (default: the active version)",
    )
    p_diff.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="churn subspaces listed (default 10)",
    )
    p_diff.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table",
    )
    p_diff.add_argument(
        "--explain",
        action="store_true",
        help="also print the EXPLAIN-style diff plan",
    )

    p_load = sub.add_parser(
        "loadtest",
        help="open-loop load harness against a serving endpoint",
        parents=[obs],
    )
    p_load.add_argument(
        "--dataset",
        required=True,
        metavar="CSV",
        help="dataset CSV shaping the workload (and served by the "
        "self-hosted server when --url is omitted)",
    )
    p_load.add_argument(
        "--url",
        default=None,
        help="target server base URL; omitted = self-host an in-process "
        "server over the dataset",
    )
    p_load.add_argument(
        "--duration",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="run length (default 10)",
    )
    p_load.add_argument(
        "--rate",
        type=float,
        default=50.0,
        metavar="RPS",
        help="open-loop arrival rate (default 50 req/s)",
    )
    p_load.add_argument(
        "--seed", type=int, default=0, help="workload RNG seed (default 0)"
    )
    p_load.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request deadline sent with every query (server default "
        "when omitted)",
    )
    p_load.add_argument(
        "--churn-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="soak mode: one maintenance insert/delete per interval "
        "(0 = no churn; default 0)",
    )
    p_load.add_argument(
        "--publish-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="soak mode: hot-reload a fresh snapshot version per interval "
        "(0 = never; default 0)",
    )
    p_load.add_argument(
        "--restart-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="durability drill: hard-restart the self-hosted server per "
        "interval and probe WAL replay (0 = never; default 0; "
        "incompatible with --url)",
    )
    p_load.add_argument(
        "--snapshot",
        default="loadtest",
        metavar="NAME",
        help="snapshot name to target/publish (default 'loadtest')",
    )
    p_load.add_argument(
        "--slo-threshold-ms",
        type=float,
        default=250.0,
        metavar="MS",
        help="client-side latency-SLO threshold (default 250)",
    )
    p_load.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        metavar="N",
        help="self-hosted server concurrency bound (default 8)",
    )
    p_load.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        metavar="N",
        help="self-hosted server result-cache entries (default 1024)",
    )
    p_load.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the full JSON report here",
    )
    p_load.add_argument(
        "--scale",
        default="smoke",
        help="ledger scale tag for like-for-like diffs (default smoke)",
    )
    p_load.add_argument(
        "--ledger-dir",
        default=".",
        metavar="DIR",
        help="directory of BENCH_serve.json (default cwd)",
    )
    p_load.add_argument(
        "--no-ledger",
        action="store_true",
        help="skip appending this run to BENCH_serve.json",
    )
    p_load.add_argument(
        "--fail-on-slo",
        action="store_true",
        help="exit non-zero when any SLO with traffic is violated "
        "(consistency violations always fail the run)",
    )
    p_load.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="tail-sample request traces (client side, and the server's "
        "when self-hosted) into this sink directory; point it at a remote "
        "server's --trace-dir to get stitched traces (default: off)",
    )
    p_load.add_argument(
        "--trace-slow-ms",
        type=float,
        default=100.0,
        metavar="MS",
        help="requests at least this slow are always kept by the trace "
        "sink; match the server's setting (default 100)",
    )

    p_flight = sub.add_parser(
        "flight", help="flight-recorder utilities", parents=[obs]
    )
    p_flight.add_argument(
        "action", choices=["dump", "show"], help="dump the live ring | "
        "summarize a previously written NDJSON dump"
    )
    p_flight.add_argument(
        "file", nargs="?", default=None, help="dump file (required for show)"
    )
    p_flight.add_argument(
        "--out", default=None, metavar="FILE", help="dump destination "
        "(default flight-<pid>.ndjson under $REPRO_FLIGHT_DIR or the cwd)"
    )

    p_trace = sub.add_parser(
        "trace",
        help="browse a trace sink: list traces, show one as a span tree, "
        "or attribute a request's latency to phases",
        parents=[obs],
    )
    p_trace.add_argument(
        "action",
        choices=["ls", "show", "critical-path"],
        help="ls = newest-first trace summaries | show = one trace's "
        "cross-process span tree | critical-path = per-phase latency "
        "attribution for one trace",
    )
    p_trace.add_argument(
        "trace_id",
        nargs="?",
        default=None,
        help="32-hex trace id (required for show / critical-path)",
    )
    p_trace.add_argument(
        "--trace-dir",
        required=True,
        metavar="DIR",
        help="the sink directory written by `repro serve --trace-dir` "
        "and/or `repro loadtest --trace-dir`",
    )
    p_trace.add_argument(
        "--limit",
        type=int,
        default=20,
        metavar="N",
        help="traces listed by `trace ls` (default 20)",
    )
    p_trace.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the table/tree",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "skyline": _cmd_skyline,
        "cube": _cmd_cube,
        "query": _cmd_query,
        "analyze": _cmd_analyze,
        "bench": _cmd_bench,
        "flight": _cmd_flight,
        "serve": _cmd_serve,
        "compact": _cmd_compact,
        "diff": _cmd_diff,
        "loadtest": _cmd_loadtest,
        "trace": _cmd_trace,
    }[args.command]
    from .core.hitting import HittingSetOverflow

    try:
        return _with_telemetry(handler, args)
    except (_InputError, HittingSetOverflow) as exc:
        # HittingSetOverflow: a build whose input outgrows the hitting-set
        # cap, from any command that runs Stellar.
        print(f"error: {exc}", file=sys.stderr)
        return 2


class _InputError(Exception):
    """An input file or argument value the CLI cannot use.

    Ends in one ``error:`` line and exit 2.
    """


def _read_input(loader, path, *args):
    """``loader(path, *args)``, or :class:`_InputError` naming ``path``.

    A missing or malformed dataset or cube file then ends in one
    ``error:`` line and exit 2, not a traceback and a crash dump.
    """
    try:
        return loader(path, *args)
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        message = str(exc)
        if not message.startswith(str(path)):
            message = f"{path}: {message}"
        raise _InputError(message) from None


def _with_telemetry(handler, args: argparse.Namespace) -> int:
    """Run a subcommand under the always-on in-flight telemetry.

    The flight recorder is enabled for every command (a bounded ring of
    ``DEFAULT_CAPACITY`` events; no output unless the process crashes,
    receives ``SIGUSR1``, or ``--flight`` was passed, which also dumps at
    exit), and a heartbeat thread samples process vitals (interval from
    ``REPRO_HEARTBEAT``; ``off`` disables).
    ``--progress`` switches the stderr progress stream on.  ``serve`` and
    ``loadtest`` ``--trace-dir`` install the process's one trace sink.
    An unhandled exception propagates *past* this frame to the
    interpreter's top level, where the installed excepthook writes the
    crash dump -- so nothing here may swallow it.
    """
    import os

    from .obs.flight import enable_flight, install_crash_hooks
    from .obs.progress import (
        HEARTBEAT_ENV,
        configure_progress,
        start_heartbeat,
        stop_heartbeat,
    )
    from .obs.tracesink import install_trace_sink, uninstall_trace_sink

    enable_flight()
    install_crash_hooks(dump_at_exit=getattr(args, "flight", False))

    progress_spec: str | None = getattr(args, "progress", None)
    if progress_spec is not None:
        try:
            configure_progress(progress_spec)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    heartbeat_spec = os.environ.get(HEARTBEAT_ENV, "").strip().lower()
    interval = 1.0
    heartbeat_on = heartbeat_spec != "off"
    if heartbeat_on and heartbeat_spec:
        try:
            interval = float(heartbeat_spec)
        except ValueError:
            print(
                f"warning: ignoring invalid {HEARTBEAT_ENV}={heartbeat_spec!r}"
                " (expected seconds or 'off')",
                file=sys.stderr,
            )
        if interval <= 0:
            heartbeat_on = False
    if heartbeat_on:
        start_heartbeat(interval)

    trace_slow_ms: float | None = getattr(args, "trace_slow_ms", None)
    if trace_slow_ms is not None and args.trace_dir:
        install_trace_sink(args.trace_dir, slow_threshold_s=trace_slow_ms / 1e3)
        print(f"tracing into {args.trace_dir} (tail-sampled)", file=sys.stderr)
    try:
        return _run_observed(handler, args)
    finally:
        uninstall_trace_sink()
        stop_heartbeat()
        if progress_spec is not None:
            configure_progress("off")


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from .cube import CompressedSkylineCube
    from .data import load_csv
    from .serve import (
        AdmissionController,
        CubeService,
        ResultCache,
        SnapshotStore,
        start_server,
    )

    try:
        cache = ResultCache(max_entries=args.cache_size)
        admission = AdmissionController(
            max_concurrency=args.max_concurrency,
            default_deadline_ms=args.deadline_ms,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    store = SnapshotStore(args.snapshot_dir)
    if args.publish:
        name = args.snapshot or Path(args.publish).stem
        dataset = _read_input(load_csv, args.publish)
        cube = CompressedSkylineCube.build(dataset)
        info = store.publish(name, dataset, cube)
        print(
            f"published {name}@{info.version} "
            f"({info.n_objects} objects, {info.n_groups} groups)"
        )

    try:
        service = CubeService(
            store,
            cache=cache,
            admission=admission,
            default_snapshot=args.snapshot,
            compact_threshold=args.compact_threshold,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    sampler = None
    if args.slo_interval > 0:
        from .obs.slo import SLOEngine, SLOSampler, default_serving_slos

        engine = SLOEngine(
            default_serving_slos(
                latency_threshold_seconds=args.slo_threshold_ms / 1e3
            )
        )
        sampler = SLOSampler(engine, interval=args.slo_interval).start()

    names = store.names()
    server = start_server(service, host=args.host, port=args.port)
    print(
        f"serving at {server.url} "
        f"(snapshots: {', '.join(names) if names else 'none yet'})",
        flush=True,
    )
    try:
        while True:
            time.sleep(1)
    except KeyboardInterrupt:
        pass
    finally:
        if sampler is not None:
            sampler.stop()
        server.close()
        service.close()
    return 0


def _resolve_snapshot_name(store, name: str | None) -> str:
    """Return ``name`` or the store's sole published snapshot name.

    Raises :class:`ValueError` when the name is ambiguous or absent, so
    CLI handlers can turn it into a friendly exit-2 message.
    """

    names = store.names()
    if name is not None:
        if name not in names:
            raise ValueError(
                f"snapshot {name!r} not found "
                f"(published: {', '.join(names) or 'none'})"
            )
        return name
    if not names:
        raise ValueError("no snapshots published in this store")
    if len(names) > 1:
        raise ValueError(
            f"multiple snapshots published ({', '.join(names)}); "
            "pick one with --snapshot"
        )
    return names[0]


def _cmd_compact(args: argparse.Namespace) -> int:
    import json

    from .serve import SnapshotStore
    from .wal import compact_snapshot

    store = SnapshotStore(args.snapshot_dir)
    try:
        name = _resolve_snapshot_name(store, args.snapshot)
        result = compact_snapshot(store, name, version=args.version)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(result.to_dict(), indent=1))
        return 0
    if result.new_version is None:
        print(
            f"{name}@{result.base_version}: WAL empty, nothing to compact"
        )
    else:
        print(
            f"compacted {name}@{result.base_version}+{result.applied} "
            f"-> {name}@{result.new_version} "
            f"({result.records} WAL record(s), {result.skipped} skipped)"
        )
        print(f"fingerprint {result.fingerprint}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    import json

    from .cube.diff import diff_cubes
    from .serve import SnapshotStore

    store = SnapshotStore(args.snapshot_dir)
    try:
        name = _resolve_snapshot_name(store, args.snapshot)
        versions = [info.version for info in store.versions(name)]
        to_version = args.to_version or store.current_version(name)
        if to_version is None:
            raise ValueError(f"snapshot {name!r} has no active version")
        if to_version not in versions:
            raise ValueError(f"version {to_version!r} not published")
        from_version = args.from_version
        if from_version is None:
            older = [v for v in versions if v < to_version]
            if not older:
                raise ValueError(
                    f"no version older than {to_version} to diff against"
                )
            from_version = older[-1]
        elif from_version not in versions:
            raise ValueError(f"version {from_version!r} not published")
        _, old_cube, _ = store.load(name, version=from_version)
        _, new_cube, _ = store.load(name, version=to_version)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    diff = diff_cubes(old_cube, new_cube)
    if args.json:
        payload = {
            "snapshot": name,
            "from": from_version,
            "to": to_version,
            "diff": diff.to_dict(top=args.top),
        }
        print(json.dumps(payload, indent=1))
        return 0
    print(f"diff {name}@{from_version} -> {name}@{to_version}")
    print(diff.render(top=args.top))
    if args.explain:
        print()
        print(diff.plan.render())
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import json

    from .data import load_csv
    from .loadtest import (
        LoadtestConfig,
        report_entry,
        run_loadtest,
        summarize,
    )

    dataset = _read_input(load_csv, args.dataset)
    csv_text = Path(args.dataset).read_text()
    try:
        config = LoadtestConfig(
            duration_seconds=args.duration,
            rate_rps=args.rate,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
            churn_interval=args.churn_interval,
            publish_interval=args.publish_interval,
            restart_interval=args.restart_interval,
            snapshot=args.snapshot,
            slo_threshold_seconds=args.slo_threshold_ms / 1e3,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    server = None
    restart = None
    if args.url:
        if args.restart_interval:
            print(
                "error: --restart-interval needs the self-hosted server "
                "(drop --url)",
                file=sys.stderr,
            )
            return 2
        url = args.url
        # Against an external server, only publish (and therefore own the
        # consistency oracle) when the run actually mutates it.
        soak = bool(args.churn_interval or args.publish_interval)
        csv_text = csv_text if soak else None
    else:
        import tempfile

        from .serve import (
            AdmissionController,
            CubeService,
            ResultCache,
            SnapshotStore,
            start_server,
        )

        tmp = tempfile.TemporaryDirectory(prefix="repro-loadtest-")
        store_path = Path(tmp.name) / "snapshots"

        def _spawn(port: int = 0):
            svc = CubeService(
                SnapshotStore(store_path),
                cache=ResultCache(max_entries=args.cache_size),
                admission=AdmissionController(
                    max_concurrency=args.max_concurrency
                ),
                default_snapshot=args.snapshot,
                reload_interval=0.1,
            )
            return svc, start_server(svc, port=port)

        service, server = _spawn()
        url = server.url
        print(f"self-hosting {args.dataset} at {url}")

        if args.restart_interval:

            def restart() -> None:
                # Durability drill: drop the whole serving process state
                # and come back on the same snapshot store + port, so
                # acknowledged mutations must survive via WAL replay.
                nonlocal service, server
                port = server.port
                server.close()
                service.close()
                service, server = _spawn(port)

    try:
        result = run_loadtest(
            url, dataset, config, csv_text=csv_text, restart=restart
        )
    finally:
        if server is not None:
            server.close()
            service.close()
    report = summarize(result)
    print(report.render())

    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), indent=1) + "\n"
        )
        print(f"report written to {args.report}")
    if not args.no_ledger:
        from .bench.ledger import append_entry, ledger_path

        path = ledger_path(args.ledger_dir, "serve")
        index = append_entry(path, report_entry(report, scale=args.scale))
        print(f"ledger entry {index} appended to {path}")

    if report.consistency_violations:
        print(
            f"FAIL: {report.consistency_violations} consistency violation(s)",
            file=sys.stderr,
        )
        return 1
    if args.fail_on_slo and not report.slo.ok:
        print("FAIL: SLO violated (--fail-on-slo)", file=sys.stderr)
        return 1
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    from .obs.flight import dump_flight, summarize_flight_dump

    if args.action == "show":
        if not args.file:
            print("error: flight show requires a dump file", file=sys.stderr)
            return 2
        try:
            print(summarize_flight_dump(args.file))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    written = dump_flight(args.out, reason="manual")
    print(f"flight record written to {written}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from .obs import render_span_tree
    from .obs.tracesink import (
        assemble_trace,
        critical_path,
        list_traces,
        load_trace,
    )

    if not Path(args.trace_dir).is_dir():
        print(f"error: no trace sink at {args.trace_dir}", file=sys.stderr)
        return 2

    if args.action == "ls":
        summaries = list_traces(args.trace_dir)[: max(args.limit, 0)]
        if args.json:
            print(json.dumps(summaries, indent=1, default=str))
            return 0
        if not summaries:
            print("no traces in sink")
            return 0
        for s in summaries:
            sources = "+".join(s["sources"])
            endpoint = s["endpoint"] or "-"
            print(
                f"{s['trace_id']}  {s['duration_s'] * 1e3:8.2f} ms  "
                f"{s['spans']:4d} spans  {sources:<20s} {endpoint}"
            )
        return 0

    if not args.trace_id:
        print(f"error: trace {args.action} requires a trace id", file=sys.stderr)
        return 2
    records = load_trace(args.trace_dir, args.trace_id)
    if not records:
        print(
            f"error: trace {args.trace_id} not found in {args.trace_dir}",
            file=sys.stderr,
        )
        return 2
    roots = assemble_trace(records)

    if args.action == "show":
        if args.json:
            print(json.dumps(records, indent=1, default=str))
            return 0
        sources = sorted({r.get("source", "?") for r in records})
        pids = sorted({r.get("pid", 0) for r in records})
        print(
            f"trace {args.trace_id}: {len(records)} spans from "
            f"{'+'.join(sources)} (pids {', '.join(map(str, pids))})"
        )
        print(render_span_tree([r.span for r in roots]))
        return 0

    # critical-path: phase attribution over the assembled tree.
    analysis = critical_path(roots)
    if args.json:
        print(json.dumps(analysis, indent=1, default=str))
        return 0
    total = analysis["total_s"]
    print(
        f"trace {args.trace_id}: {total * 1e3:.2f} ms total, "
        f"{analysis['attributed_s'] * 1e3:.2f} ms attributed"
    )
    for phase, seconds in analysis["phases"].items():
        share = seconds / total if total else 0.0
        print(f"  {phase:<10s} {seconds * 1e3:9.3f} ms  {share:6.1%}")
    print("slowest steps (self time):")
    for step in analysis["steps"][:10]:
        print(
            f"  {step['self_s'] * 1e3:9.3f} ms  {step['name']:<24s} "
            f"[{step['phase']}] {step['source']} pid={step['pid']}"
        )
    return 0


def _run_observed(handler, args: argparse.Namespace) -> int:
    """Run a subcommand under the observability flags, if any.

    ``--trace``/``--profile`` install a process-global tracer for the
    duration of the command; ``--metrics`` prints the metrics registry
    (latency histograms, dominance-comparison totals) afterwards;
    ``--log-json`` switches structured JSON logging on process-wide;
    ``--slowlog`` installs the slow-query log and dumps it on exit.
    Without any of the flags the handler runs untouched -- the
    disabled-mode fast path of :mod:`repro.obs` costs nothing.
    """
    log_level: str | None = getattr(args, "log_json", None)
    if log_level is not None:
        from .obs import configure_logging

        try:
            configure_logging(log_level)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    slowlog_n: int | None = getattr(args, "slowlog", None)
    if slowlog_n is not None and slowlog_n <= 0:
        print(
            f"error: --slowlog must be positive, got {slowlog_n}",
            file=sys.stderr,
        )
        return 2

    trace_dest: str | None = getattr(args, "trace", None)
    want_metrics: bool = getattr(args, "metrics", False)
    want_profile: bool = getattr(args, "profile", False)
    if (
        trace_dest is None
        and not want_metrics
        and not want_profile
        and slowlog_n is None
    ):
        return handler(args)

    from .obs import (
        configure_slow_query_log,
        disable_slow_query_log,
        disable_tracing,
        enable_tracing,
        profiled,
        registry,
        render_span_tree,
        write_trace,
    )

    slowlog = configure_slow_query_log(slowlog_n) if slowlog_n else None
    tracer = enable_tracing() if (trace_dest is not None or want_profile) else None
    profile_report = None
    try:
        if want_profile:
            with profiled(top_n=15) as profile_report:
                rc = handler(args)
        else:
            rc = handler(args)
    finally:
        if tracer is not None:
            disable_tracing()
        if slowlog is not None:
            disable_slow_query_log()
    if tracer is not None and trace_dest is not None and tracer.roots:
        if trace_dest == "-":
            print(render_span_tree(tracer.roots))
        else:
            try:
                path = write_trace(trace_dest, tracer.roots)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            print(f"trace written to {path}", file=sys.stderr)
    if want_metrics:
        from .core.dominance import COMPARISONS

        reg = registry()
        reg.gauge("dominance.comparisons").set(COMPARISONS.value)
        print(reg.render())
    if profile_report is not None:
        print(profile_report.render())
    if slowlog is not None:
        print(slowlog.render())
    return rc


def _cmd_generate(args: argparse.Namespace) -> int:
    from .data import generate_nba_like, make_dataset, save_csv

    try:
        if args.distribution == "nba":
            dataset = generate_nba_like(n_players=args.n, seed=args.seed)
        else:
            dataset = make_dataset(
                args.distribution, args.n, args.d, seed=args.seed
            )
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    save_csv(dataset, args.out)
    print(
        f"wrote {dataset.n_objects} x {dataset.n_dims} "
        f"{args.distribution} dataset to {args.out}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .baselines import skyey
    from .core.stellar import stellar
    from .data import load_csv

    dataset = _read_input(load_csv, args.input)
    if args.algorithm == "stellar":
        result = stellar(dataset)
        groups = result.groups
        stats = result.stats
        print(
            f"stellar: {stats.n_seeds} seeds, "
            f"{stats.n_maximal_cgroups} maximal c-groups, "
            f"{stats.n_seed_groups} seed groups, {stats.n_groups} groups "
            f"in {stats.total_seconds:.3f}s"
        )
    else:
        result = skyey(dataset)
        groups = result.groups
        stats = result.stats
        print(
            f"skyey: {stats.n_subspaces_searched} subspaces searched, "
            f"{stats.n_subspace_skyline_objects} subspace skyline objects, "
            f"{stats.n_groups} groups in {stats.total_seconds:.3f}s"
        )
    limit = len(groups) if args.max_groups == 0 else args.max_groups
    for group in groups[:limit]:
        print(" ", group.signature(dataset))
    if len(groups) > limit:
        print(f"  ... and {len(groups) - limit} more groups")
    return 0


def _cmd_skyline(args: argparse.Namespace) -> int:
    from .data import load_csv
    from .skyline import compute_skyline

    dataset = _read_input(load_csv, args.input)
    try:
        subspace = (
            dataset.parse_subspace(args.subspace) if args.subspace else None
        )
    except ValueError as exc:
        raise _InputError(str(exc)) from None
    skyline = compute_skyline(dataset, subspace, algorithm=args.algorithm)
    shown = (
        dataset.format_subspace(subspace) if subspace else "full space"
    )
    print(f"skyline of {shown}: {len(skyline)} objects")
    for i in skyline:
        values = ", ".join(f"{v:g}" for v in dataset.values[i])
        print(f"  {dataset.labels[i]}: ({values})")
    return 0


def _cmd_cube(args: argparse.Namespace) -> int:
    from .cube import CompressedSkylineCube, save_cube
    from .data import load_csv

    dataset = _read_input(load_csv, args.input)
    cube = CompressedSkylineCube.build(dataset)
    save_cube(cube, args.out)
    print(
        f"wrote cube with {len(cube.groups)} skyline groups "
        f"({dataset.n_objects} objects, {dataset.n_dims} dims) to {args.out}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .cube import QueryEngine, load_cube
    from .data import load_csv

    dataset = _read_input(load_csv, args.input)
    if args.cube:
        engine = QueryEngine(_read_input(load_cube, args.cube, dataset))
    else:
        engine = QueryEngine.build(dataset)

    if args.skyline_of is not None:
        kind, qargs = "skyline", [args.skyline_of]
    elif args.where_wins is not None:
        kind, qargs = "where-wins", [args.where_wins]
    elif args.wins_in is not None:
        kind, qargs = "wins-in", list(args.wins_in)
    elif args.why_not is not None:
        kind, qargs = "why-not", list(args.why_not)
    elif args.signature_of is not None:
        kind, qargs = "signature-of", [args.signature_of]
    else:
        kind, qargs = "top-frequent", [args.top_frequent]

    try:
        if args.explain:
            print(engine.explain(kind, *qargs).render())
            return 0
        if kind == "skyline":
            for label in engine.skyline(*qargs):
                print(label)
        elif kind == "where-wins":
            for subspace in engine.where_wins(*qargs):
                print(subspace)
        elif kind == "wins-in":
            wins = engine.wins_in(*qargs)
            print("yes" if wins else "no")
            return 0 if wins else 1
        elif kind == "why-not":
            print(engine.why_not(*qargs))
        elif kind == "signature-of":
            for signature in engine.signature_of(*qargs):
                print(signature)
        else:
            for label, count in engine.top_frequent(*qargs):
                print(f"{label}\t{count}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .cube import (
        CompressedSkylineCube,
        decisive_size_histogram,
        dimension_influence,
        hidden_gems,
        load_cube,
        robust_winners,
    )
    from .data import load_csv

    dataset = _read_input(load_csv, args.input)
    if args.cube:
        cube = _read_input(load_cube, args.cube, dataset)
    else:
        cube = CompressedSkylineCube.build(dataset)
    summary = cube.summary()
    print(
        f"{summary.n_objects} objects, {summary.n_dims} dims, "
        f"{summary.n_groups} skyline groups, "
        f"{summary.n_subspace_skyline_objects} subspace skyline memberships "
        f"(compression {summary.compression_ratio:.1f}x)"
    )
    print("decisive-subspace size histogram:", decisive_size_histogram(cube))
    print("dimension influence:")
    for name, count in dimension_influence(cube):
        print(f"  {name}: decisive in {count} groups")
    gems = hidden_gems(cube)
    print("hidden gems (need >= 2 combined criteria):")
    for obj, size in gems[:10]:
        print(f"  {dataset.labels[obj]} (minimal winning subspace: {size} dims)")
    if not gems:
        print("  (none)")
    print("robust winners (win on a single criterion):")
    for obj, dims in robust_winners(cube)[:10]:
        names = ", ".join(dataset.names[d] for d in dims)
        print(f"  {dataset.labels[obj]}: {names}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.figure == "diff":
        return _cmd_bench_diff(args)

    from .bench import FIGURES, emit_trace, run_figure
    from .bench.figures import AnswerMismatch
    from .bench.ledger import append_entry, entry_from_result, ledger_path
    from .core.dominance import COMPARISONS

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    for name in names:
        comparisons_before = COMPARISONS.value
        try:
            result = run_figure(name, scale=args.scale)
        except AnswerMismatch as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(result.to_text())
        print()
        if not args.no_ledger:
            entry = entry_from_result(
                result,
                figure=name,
                scale=args.scale,
                comparisons=COMPARISONS.value - comparisons_before,
            )
            # Ledgers live next to the figure tables when --out is given,
            # else in the working directory (where the committed
            # BENCH_<figure>.json baselines sit).
            path = ledger_path(args.out or ".", name)
            index = append_entry(path, entry)
            print(f"ledger entry {index} appended to {path}")
        if args.out:
            path = result.save(Path(args.out))
            print(f"saved {path}")
            trace_path = emit_trace(args.out, path.stem)
            if trace_path is not None:
                print(f"saved {trace_path}")
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    """``repro bench diff``: compare two ledger entries, exit 1 on regression."""
    from .bench.ledger import diff_entries, load_entries, render_diff

    if not args.ledger:
        print("error: bench diff requires --ledger FILE", file=sys.stderr)
        return 2
    try:
        entries = load_entries(args.ledger)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not entries:
        print(f"error: {args.ledger}: no ledger entries", file=sys.stderr)
        return 2
    try:
        baseline = entries[args.baseline]
        candidate = entries[args.candidate]
    except IndexError:
        print(
            f"error: entry index out of range (ledger has {len(entries)} "
            f"entries, asked for baseline={args.baseline} "
            f"candidate={args.candidate})",
            file=sys.stderr,
        )
        return 2
    if (baseline.figure, baseline.scale) != (candidate.figure, candidate.scale):
        print(
            f"warning: comparing {baseline.figure}[{baseline.scale}] against "
            f"{candidate.figure}[{candidate.scale}] -- entries are only "
            "meaningful like-for-like",
            file=sys.stderr,
        )
    try:
        diffs = diff_entries(baseline, candidate, args.threshold, only=args.only)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.only and not diffs:
        print(
            f"error: no shared metrics match {args.only} "
            "(nothing would be gated)",
            file=sys.stderr,
        )
        return 2
    if args.only:
        print(f"(metrics filtered to {', '.join(args.only)})")
    print(render_diff(baseline, candidate, diffs, args.threshold))
    return 1 if any(d.regressed for d in diffs) else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
