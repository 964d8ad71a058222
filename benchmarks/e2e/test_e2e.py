"""Checks of the end-to-end benchmark itself, at smoke sizes (~30 s).

Tier-1 collects ``tests/`` only, so run this file explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )


def _checkout(tmp_path: Path, with_program: bool = True) -> Path:
    """A copy of BENCHMARK.json and the benchmark, optionally with src/."""
    copy = tmp_path / "checkout"
    shutil.copytree(
        HERE,
        copy / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", ".work", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    if with_program:
        (copy / "src").symlink_to(ROOT / "src")
    return copy


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    proc = _run(ROOT, "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (results,) = out.glob("results-*.json")
    return proc, results


def test_every_named_metric_is_emitted_per_workload(smoke):
    proc, results = smoke
    runs = json.loads(results.read_text())["runs"]
    for workload in (w["name"] for w in BENCH["workloads"]):
        (plain,) = [r for r in runs if r["workload"] == workload and not r["trace"]]
        (traced,) = [r for r in runs if r["workload"] == workload and r["trace"]]
        for spec in BENCH["end_to_end"]:
            assert plain["metrics"][spec["name"]]["unit"] == spec["unit"]
            assert plain["metrics"][spec["name"]]["value"] > 0
            assert f"{workload} {spec['name']} " in proc.stdout
        for spec in BENCH["per_layer"]:
            assert traced["per_layer"][spec["name"]]["unit"] == spec["unit"]
            assert f"{workload} {spec['name']} " in proc.stdout
        assert traced["missing_layers"] == []
        assert plain["failed"] == traced["failed"] == 0


def test_last_line_is_the_result_object(smoke):
    proc, _ = smoke
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    assert line["attempted"] >= 1


def test_compare_applies_bounds_and_refuses_other_hosts(smoke, tmp_path):
    _, results = smoke
    same = _run(ROOT, "--compare", str(results), str(results))
    assert same.returncode == 0, same.stdout
    assert "REGRESSED" not in same.stdout
    other = json.loads(results.read_text())
    other["env"]["numpy"] = "0.0"
    other_path = tmp_path / "results-other.json"
    other_path.write_text(json.dumps(other))
    refused = _run(ROOT, "--compare", str(results), str(other_path))
    assert refused.returncode == 2
    assert "refusing to compare: numpy differs" in refused.stdout
    for key, value in (("smoke", False), ("seconds", 15.0)):
        other = json.loads(results.read_text())
        for run in other["runs"]:
            run[key] = value
        other_path.write_text(json.dumps(other))
        refused = _run(ROOT, "--compare", str(results), str(other_path))
        assert refused.returncode == 2
        assert f"refusing to compare: {key} differs" in refused.stdout


def test_compare_verdicts_regression_and_noise(smoke, tmp_path):
    _, results = smoke
    doc = json.loads(results.read_text())
    (plain,) = [
        r for r in doc["runs"] if r["workload"] == "build-equal" and not r["trace"]
    ]

    def side(name: str, factors: list[float]) -> str:
        runs = []
        for factor in factors:
            run = json.loads(json.dumps(plain))
            run["metrics"]["op_p50_ms"]["value"] *= factor
            runs.append(run)
        path = tmp_path / f"results-{name}.json"
        path.write_text(json.dumps({"env": doc["env"], "runs": runs}))
        return str(path)

    def verdict(a: str, b: str) -> tuple[int, str]:
        proc = _run(ROOT, "--compare", a, b)
        (line,) = [
            text
            for text in proc.stdout.splitlines()
            if text.split()[:2] == ["build-equal", "op_p50_ms"]
        ]
        return proc.returncode, line.split()[6]

    steady = side("steady", [1.0] * 4)
    assert verdict(steady, side("slower", [1.5] * 4)) == (1, "REGRESSED")
    # Same median, but an IQR far wider than any bound.
    assert verdict(steady, side("noisy", [0.6, 0.9, 1.1, 1.4])) == (0, "unresolved")


def test_corrupt_oracle_entry_fails_the_run(tmp_path):
    copy = _checkout(tmp_path)
    oracle_path = copy / "benchmarks" / "e2e" / "oracle.json"
    oracle = json.loads(oracle_path.read_text())
    (entry,) = [
        e for e in oracle.values() if e["dataset"].startswith("build-equal smoke:")
    ]
    entry["cube"] = "0" * 64
    oracle_path.write_text(json.dumps(oracle))
    proc = _run(copy, "--smoke", "--workload", "build-equal")
    assert proc.returncode == 1
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] > 0
    error_rates = [
        float(text.split()[2])
        for text in proc.stdout.splitlines()
        if text.startswith("build-equal error_rate ")
    ]
    assert error_rates and all(rate > 0 for rate in error_rates)


def test_run_length_is_fixed_by_the_benchmark():
    seconds = str(BENCH["run_seconds"] + 1)
    proc = _run(ROOT, "--workload", "build-equal", "--seconds", seconds)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_without_the_program_it_fails_without_a_result(tmp_path):
    copy = _checkout(tmp_path, with_program=False)
    proc = _run(copy, "--workload", "build-equal", "--seed", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
