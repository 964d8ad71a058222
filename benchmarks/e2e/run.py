"""End-to-end benchmark: Stellar builds and the in-process serving path.

Usage::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--trace 0|1] [--out DIR] [--smoke]
    python3 benchmarks/e2e/run.py --compare A B
    python3 benchmarks/e2e/run.py --refresh-oracle

Each workload runs in fresh child processes, one at a time, with
``REPRO_ENGINE`` and ``REPRO_PARALLEL`` cleared so the program runs its
defaults.  A run measures for ``run_seconds`` of ``BENCHMARK.json``
(``--smoke``: 0.3 s); ``--seconds``, which the benchmark command is given,
must equal it.  ``--trace 0`` sets up five times (one process each,
reporting the median ``setup_s``), measures and prints the end-to-end
metrics of ``BENCHMARK.json``.  ``--trace 1`` makes
one untraced and one traced run and prints the per-layer metrics; the
spans go to ``<out>/spans-<workload>.json``.  Every metric is printed as
``workload metric value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every run also goes
into ``<out>/results-*.json``, which ``--compare`` reads.

Exit status: 0 when every answer matched the oracle, 1 on a wrong answer,
a failed request or a crash, 2 on a usage error or a missing program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20070415
#: Wall-clock cap for all processes of one workload.
WORKLOAD_BUDGET_S = 170.0
SMOKE_SECONDS = 0.3
#: Set-up-only processes on each side of the measured one (untraced runs).
SETUPS_EACH_SIDE = 2
_CLEARED_ENV = ("REPRO_ENGINE", "REPRO_PARALLEL")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.partition("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", nargs="+", help="default: all workloads")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="toy sizes, short runs, untraced and traced",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("A", "B"),
        type=Path,
        help="results files or directories; verdicts by BENCHMARK.json bounds",
    )
    parser.add_argument(
        "--refresh-oracle",
        action="store_true",
        help="recompute oracle.json with the brute-force cube",
    )
    # Fixed by BENCHMARK.json; accepted because the benchmark command passes it.
    parser.add_argument("--seconds", type=float, help=argparse.SUPPRESS)
    # Internal: one child process of a run.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser


def _child(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    result = workloads.child_main(args, started)
    print(json.dumps(result))
    return 0


class ChildError(RuntimeError):
    """A child process crashed or ran out of time."""


def _spawn(args, workload: str, trace: int, deadline: float, setup_only=False):
    """Run one child process; its result object."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        "--workload",
        workload,
        "--seed",
        str(args.seed),
        "--seconds",
        repr(args.seconds),
        "--trace",
        str(trace),
        "--out",
        str(args.out),
    ]
    if args.smoke:
        command.append("--smoke")
    if setup_only:
        command.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k not in _CLEARED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError(f"{workload}: out of time before starting a process")
    try:
        proc = subprocess.run(
            command,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
            check=False,
        )
    except subprocess.TimeoutExpired:
        raise ChildError(f"{workload}: child process timed out") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"{workload}: child process exited {proc.returncode}")
    return json.loads(lines[-1])


def _run_workload(args, workload: str, trace: int) -> dict:
    """One run of one workload (several processes); the results record."""
    deadline = time.monotonic() + WORKLOAD_BUDGET_S
    # Untraced, set-up is sampled in processes before and after the measured
    # one and in it, so the median spans the whole run.
    side = 0 if trace else SETUPS_EACH_SIDE
    setups = [_spawn(args, workload, 0, deadline, True) for _ in range(side)]
    plain = _spawn(args, workload, 0, deadline)
    setups.append(plain)
    setups += [_spawn(args, workload, 0, deadline, True) for _ in range(side)]
    children = [plain]
    record = {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "smoke": args.smoke,
        "metrics": {
            "setup_s": {
                "value": statistics.median(s["setup_s"] for s in setups),
                "unit": "s",
            },
            **plain["metrics"],
        },
        "setup_samples_s": [s["setup_s"] for s in setups],
        "ops": plain["ops"],
        "detail": plain["detail"],
        "checks": plain["checks"],
        "env": plain["env"],
    }
    if trace:
        traced = _spawn(args, workload, 1, deadline)
        children.append(traced)
        kind = traced["op_kind"]
        per_layer = dict(traced["per_layer"])
        per_layer["obs.trace_overhead_ratio"] = {
            "value": traced["ops"][kind]["p50_ms"] / plain["ops"][kind]["p50_ms"],
            "unit": "ratio",
        }
        record.update(
            per_layer=per_layer,
            traced_ops=traced["ops"],
            traced_checks=traced["checks"],
            missing_layers=traced["missing_layers"],
        )
    record["attempted"] = sum(c["attempted"] for c in children)
    record["failed"] = sum(c["failed"] for c in children)
    return record


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        check=False,
    )
    return proc.stdout.strip() or None


def _print_record(record: dict) -> None:
    """Every metric, then the unbounded per-operation detail and error rate."""
    name = record["workload"]
    rows = list(record["metrics"].items()) + list(record.get("per_layer", {}).items())
    for metric, value in rows:
        print(f"{name} {metric} {value['value']:.6g} {value['unit']}")
    for kind, ops in record["ops"].items():
        print(f"{name} {kind}_count {ops['count']} count")
        print(f"{name} {kind}_p50_ms {ops['p50_ms']:.6g} ms")
        print(f"{name} {kind}_p99_ms {ops['p99_ms']:.6g} ms")
        print(f"{name} {kind}_per_s {ops['per_s']:.6g} 1/s")
    error_rate = record["failed"] / max(record["attempted"], 1)
    print(f"{name} error_rate {error_rate:.6g} ratio")
    for layer in record.get("missing_layers", []):
        print(f"{name} missing layer {layer}", file=sys.stderr)


def _result_line(records: list[dict], bench: dict) -> dict:
    """The last output line: the end-to-end or per-layer metrics of the run."""
    metrics = {}
    for record in records:
        section = "per_layer" if record["trace"] else "end_to_end"
        values = record.get("per_layer", {}) | record["metrics"]
        for spec in bench[section]:
            key = spec["name"]
            if len(records) > 1:
                key = f"{record['workload']}/{key}"
            value = values[spec["name"]]["value"]
            metrics[key] = {"value": value, "unit": spec["unit"]}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def _measure(args, bench: dict) -> int:
    names = args.workload or [w["name"] for w in bench["workloads"]]
    known = {w["name"] for w in bench["workloads"]}
    unknown = sorted(set(names) - known)
    if unknown:
        print(f"error: unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    seconds = SMOKE_SECONDS if args.smoke else float(bench["run_seconds"])
    if args.seconds not in (None, seconds):
        print(f"error: --seconds must be {seconds:g}", file=sys.stderr)
        return 2
    args.seconds = seconds
    args.out.mkdir(parents=True, exist_ok=True)
    traces = (0, 1) if args.smoke else (args.trace,)
    load_before = os.getloadavg()
    records = []
    try:
        for name in names:
            for trace in traces:
                record = _run_workload(args, name, trace)
                _print_record(record)
                records.append(record)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {
        **records[0]["env"],
        "commit": _git_commit(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    results = args.out / f"results-{stamp}-{os.getpid()}.json"
    results.write_text(json.dumps({"env": env, "runs": records}, indent=1) + "\n")
    line = _result_line(records, bench)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _load_runs(path: Path) -> tuple[list[dict], list[dict]]:
    """Host records and untraced runs (the end-to-end ones) of a results path."""
    files = sorted(path.glob("results-*.json")) if path.is_dir() else [path]
    docs = [json.loads(f.read_text()) for f in files]
    runs = [r for d in docs for r in d["runs"] if not r["trace"]]
    return [d["env"] for d in docs], runs


def _spread(values: list[float]) -> float:
    """IQR over median; range over median below four values."""
    if len(values) < 4:
        low, high = min(values), max(values)
    else:
        low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def _compare(a: Path, b: Path, bench: dict) -> int:
    envs_a, runs_a = _load_runs(a)
    envs_b, runs_b = _load_runs(b)
    if not runs_a or not runs_b:
        print("error: no untraced results to compare", file=sys.stderr)
        return 2
    checks = [(key, envs_a + envs_b) for key in ("host_cpus", "python", "numpy")]
    checks += [(key, runs_a + runs_b) for key in ("smoke", "seconds")]
    for key, records in checks:
        seen = {str(record.get(key)) for record in records}
        if len(seen) > 1:
            print(f"refusing to compare: {key} differs ({', '.join(sorted(seen))})")
            return 2
    status = 0
    print(
        f"{'workload':<12} {'metric':<12} {'A':>12} {'B':>12} {'change':>8} "
        f"{'noise':>6}  verdict"
    )
    for workload in [w["name"] for w in bench["workloads"]]:
        for spec in bench["end_to_end"]:
            sides = [
                [
                    r["metrics"][spec["name"]]["value"]
                    for r in runs
                    if r["workload"] == workload and spec["name"] in r["metrics"]
                ]
                for runs in (runs_a, runs_b)
            ]
            if not all(sides):
                continue
            values_a, values_b = sides
            median_a, median_b = (statistics.median(v) for v in sides)
            change = (median_b - median_a) / median_a
            if spec["better"] == "lower":
                worse, separated = change, max(values_b) < min(values_a)
            else:
                worse, separated = -change, min(values_b) > max(values_a)
            # When a side spreads wider than the bound, the medians cannot
            # show a change within it, unless every B run beats every A run.
            noise = max(_spread(v) for v in sides)
            if noise > spec["bound"] and not separated:
                verdict = "unresolved"
            elif abs(worse) <= spec["bound"]:
                verdict = "ok"
            elif worse > 0:
                verdict, status = "REGRESSED", 1
            else:
                verdict = "improved"
            print(
                f"{workload:<12} {spec['name']:<12} {median_a:>12.6g} "
                f"{median_b:>12.6g} {change:>+8.1%} {noise:>6.0%}  {verdict} "
                f"(bound {spec['bound']:.0%})"
            )
        for label, runs in (("A", runs_a), ("B", runs_b)):
            mine = [r for r in runs if r["workload"] == workload]
            failed = sum(r["failed"] for r in mine)
            attempted = sum(r["attempted"] for r in mine)
            if failed:
                print(f"{workload:<12} error_rate in {label}: {failed}/{attempted}")
                status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.child:
        return _child(args)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return _compare(*args.compare, bench)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if args.refresh_oracle:
        sys.path[:0] = [str(HERE), str(SRC)]
        import workloads

        workloads.refresh_oracle()
        return 0
    return _measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
