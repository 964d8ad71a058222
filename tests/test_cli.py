"""End-to-end tests for the command-line interface."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def routes_csv(tmp_path, flight_routes):
    from repro.data import save_csv

    path = tmp_path / "routes.csv"
    save_csv(flight_routes, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench", "fig8"])
        assert args.scale == "default"
        assert args.out is None

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "1.0.0" in capsys.readouterr().out

    def test_help_epilog_lists_observability_flags(self):
        text = build_parser().format_help()
        assert "--trace" in text
        assert "--metrics" in text
        assert "--profile" in text

    def test_observability_flags_on_every_subcommand(self):
        args = build_parser().parse_args(
            ["run", "--input", "x.csv", "--trace", "t.json", "--metrics"]
        )
        assert args.trace == "t.json"
        assert args.metrics is True
        assert args.profile is False
        args = build_parser().parse_args(["query", "--input", "x.csv",
                                         "--skyline-of", "A", "--trace"])
        assert args.trace == "-"  # console-tree mode


class TestRemovedSettings:
    """Values fixed at one setting: passing one is a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--snapshot-dir", "s", "--cache-ttl", "5"],
            ["serve", "--snapshot-dir", "s", "--queue-limit", "1"],
            ["serve", "--snapshot-dir", "s", "--reload-interval", "1"],
            ["serve", "--snapshot-dir", "s", "--preload"],
            ["loadtest", "--dataset", "d.csv", "--workers", "2"],
            ["loadtest", "--dataset", "d.csv", "--slo-target", "0.9"],
            ["generate", "--out", "d.csv", "--digits", "2"],
            ["analyze", "--input", "d.csv", "--gems-min-criteria", "3"],
            ["flight", "show", "F", "--tail", "3"],
            ["generate", "--out", "d.csv", "--flight=64"],
        ],
        ids=lambda argv: argv[-2] if argv[-1][0].isdigit() else argv[-1],
    )
    def test_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2


_REPO = Path(__file__).resolve().parents[1]
_FENCE = re.compile(r"^```.*?^```", re.M | re.S)
_INLINE_CODE = re.compile(r"`([^`]+)`")
_COMMAND = re.compile(r"(?<![\w./-])(?:python3? -m )?repro ([a-z][a-z0-9-]*)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def _documented_commands():
    """``(where, subcommand, text after it)`` for each documented command."""
    docs = [
        _REPO / "README.md",
        *sorted((_REPO / "docs").glob("*.md")),
        *sorted(_REPO.glob(".*/skills/*/SKILL.md")),
    ]
    for doc in docs:
        text = doc.read_text()
        snippets = []
        for block in _FENCE.findall(text):
            snippets.extend(block.replace("\\\n", " ").splitlines())
        prose = _FENCE.sub("", text)
        snippets.extend(" ".join(m.split()) for m in _INLINE_CODE.findall(prose))
        for snippet in snippets:
            matches = list(_COMMAND.finditer(snippet))
            for i, match in enumerate(matches):
                end = matches[i + 1].start() if i + 1 < len(matches) else None
                yield doc.name, match.group(1), snippet[match.end() : end]


class TestDocumentedFlags:
    def test_every_documented_flag_parses(self):
        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0].choices
        global_flags = parser._option_string_actions
        checked, unknown = 0, []
        for where, sub, rest in _documented_commands():
            if sub not in subparsers:
                continue  # prose such as "from repro import ..."
            accepted = subparsers[sub]._option_string_actions
            for flag in _FLAG.findall(rest):
                checked += 1
                if flag not in accepted and flag not in global_flags:
                    unknown.append(f"{where}: repro {sub} {flag}")
        assert not unknown, unknown
        assert checked > 100


class TestInputErrors:
    """An unreadable dataset or cube is one ``error:`` line and exit 2."""

    @pytest.fixture
    def inputs(self, tmp_path, routes_csv):
        (tmp_path / "blank.csv").write_text("\nA:min\nP1,1\n")
        (tmp_path / "bad.cube").write_bytes(b"NOTACUBE" + bytes(32))
        return {
            "good.csv": routes_csv,
            "blank.csv": str(tmp_path / "blank.csv"),
            "bad.cube": str(tmp_path / "bad.cube"),
            "missing.csv": str(tmp_path / "missing.csv"),
        }

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            (["run", "--input", "missing.csv"],
             "missing.csv: No such file or directory"),
            (["run", "--input", "blank.csv"],
             "blank.csv:1: blank line, expected a header row"),
            (["query", "--input", "good.csv", "--cube", "bad.cube",
              "--skyline-of", "price"],
             "bad.cube: not a cube file (bad magic)"),
        ],
        ids=["missing", "blank-first-line", "bad-cube-magic"],
    )
    def test_exit_2_without_traceback_or_dump(
        self, inputs, tmp_path, argv, message
    ):
        env = {k: v for k, v in os.environ.items() if k != "REPRO_FLIGHT_DIR"}
        env["PYTHONPATH"] = str(_REPO / "src")
        env["REPRO_HEARTBEAT"] = "off"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *(inputs.get(a, a) for a in argv)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env=env,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not list(tmp_path.glob("flight-*.ndjson"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--input", "missing.csv"],
            ["skyline", "--input", "blank.csv"],
            ["cube", "--input", "missing.csv", "--out", "c.cube"],
            ["query", "--input", "blank.csv", "--skyline-of", "A"],
            ["query", "--input", "good.csv", "--cube", "missing.csv",
             "--skyline-of", "price"],
            ["analyze", "--input", "missing.csv"],
            ["analyze", "--input", "good.csv", "--cube", "bad.cube"],
            ["serve", "--snapshot-dir", "snaps", "--publish", "blank.csv"],
            ["loadtest", "--dataset", "missing.csv"],
        ],
        ids=lambda argv: "-".join(argv[:1] + argv[3:4]),
    )
    def test_every_reader(self, inputs, tmp_path, argv, capsys):
        argv = [inputs.get(a, str(tmp_path / a)) if "." in a else a for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGenerate:
    def test_generate_synthetic(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        rc = main([
            "generate", "--distribution", "anti", "--n", "30",
            "--d", "3", "--seed", "4", "--out", str(out),
        ])
        assert rc == 0
        assert out.exists()
        assert "30 x 3" in capsys.readouterr().out

    def test_generate_nba(self, tmp_path, capsys):
        out = tmp_path / "nba.csv"
        rc = main([
            "generate", "--distribution", "nba", "--n", "50", "--out", str(out),
        ])
        assert rc == 0
        from repro.data import load_csv

        ds = load_csv(out)
        assert ds.n_dims == 17


class TestRun:
    def test_run_stellar(self, routes_csv, capsys):
        assert main(["run", "--input", routes_csv]) == 0
        out = capsys.readouterr().out
        assert "stellar:" in out
        assert "groups" in out

    def test_run_skyey(self, routes_csv, capsys):
        assert main(["run", "--input", routes_csv, "--algorithm", "skyey"]) == 0
        out = capsys.readouterr().out
        assert "skyey:" in out
        assert "subspaces searched" in out

    def test_run_limits_output(self, routes_csv, capsys):
        assert main(["run", "--input", routes_csv, "--max-groups", "1"]) == 0
        out = capsys.readouterr().out
        assert "more groups" in out


class TestSkyline:
    def test_full_space(self, routes_csv, capsys):
        assert main(["skyline", "--input", routes_csv]) == 0
        out = capsys.readouterr().out
        assert "full space" in out
        assert "BUDGET-LHR" in out

    def test_subspace(self, routes_csv, capsys):
        assert main([
            "skyline", "--input", routes_csv, "--subspace", "price,stops",
        ]) == 0
        assert "3 objects" in capsys.readouterr().out


class TestQuery:
    def test_skyline_of(self, routes_csv, capsys):
        assert main(["query", "--input", routes_csv, "--skyline-of", "price"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["BUDGET-LHR", "MULTIHOP"]

    def test_where_wins(self, routes_csv, capsys):
        assert main(["query", "--input", routes_csv, "--where-wins", "DIRECT"]) == 0
        out = capsys.readouterr().out
        assert "traveltime" in out


class TestCube:
    def test_precompute_and_query(self, routes_csv, tmp_path, capsys):
        cube_path = tmp_path / "routes.cube"
        assert main(["cube", "--input", routes_csv, "--out", str(cube_path)]) == 0
        assert "skyline groups" in capsys.readouterr().out
        assert main([
            "query", "--input", routes_csv, "--cube", str(cube_path),
            "--skyline-of", "price",
        ]) == 0
        assert capsys.readouterr().out.splitlines() == ["BUDGET-LHR", "MULTIHOP"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["cube", "--input", "d.csv", "--out", "c", "--algorithm", "skyey"],
            ["serve", "--snapshot-dir", "s", "--algorithm", "skyey"],
            ["compact", "--snapshot-dir", "s", "--algorithm", "skyey"],
            ["serve", "--snapshot-dir", "s", "--no-wal"],
        ],
        ids=["cube-algorithm", "serve-algorithm", "compact-algorithm", "no-wal"],
    )
    def test_removed_options_are_usage_errors(self, argv):
        # Stellar builds every stored cube and every mutation is WAL-logged.
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_top_frequent(self, routes_csv, capsys):
        assert main([
            "query", "--input", routes_csv, "--top-frequent", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "\t" in lines[0]


class TestAnalyze:
    def test_analyze_fresh(self, routes_csv, capsys):
        assert main(["analyze", "--input", routes_csv]) == 0
        out = capsys.readouterr().out
        assert "skyline groups" in out
        assert "dimension influence" in out
        assert "robust winners" in out

    def test_analyze_from_saved_cube(self, routes_csv, tmp_path, capsys):
        cube_path = tmp_path / "c.cube"
        assert main(["cube", "--input", routes_csv, "--out", str(cube_path)]) == 0
        capsys.readouterr()
        assert main([
            "analyze", "--input", routes_csv, "--cube", str(cube_path),
        ]) == 0
        assert "compression" in capsys.readouterr().out


class TestObservabilityFlags:
    @pytest.fixture(autouse=True)
    def _clean(self):
        from repro.obs import disable_tracing, reset_metrics

        disable_tracing()
        reset_metrics()
        yield
        disable_tracing()
        reset_metrics()

    def test_run_trace_writes_chrome_trace(self, routes_csv, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        assert main([
            "run", "--input", routes_csv, "--trace", str(trace_path),
        ]) == 0
        assert trace_path.exists()
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {
            "stellar",
            "full_space_skyline",
            "maximal_cgroups",
            "seed_decisive",
            "nonseed_extension",
        } <= names
        for event in doc["traceEvents"]:
            assert event["ph"] == "X"

    def test_run_trace_ndjson(self, routes_csv, tmp_path):
        from repro.obs import spans_from_ndjson

        trace_path = tmp_path / "trace.ndjson"
        assert main([
            "run", "--input", routes_csv, "--trace", str(trace_path),
        ]) == 0
        roots = spans_from_ndjson(trace_path.read_text())
        assert roots[0].name == "stellar"

    def test_trace_console_tree(self, routes_csv, capsys):
        assert main(["run", "--input", routes_csv, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "stellar" in out
        assert "full_space_skyline" in out
        assert "ms" in out

    def test_query_metrics_prints_percentiles(self, routes_csv, capsys):
        assert main([
            "query", "--input", routes_csv, "--skyline-of", "price",
            "--metrics",
        ]) == 0
        out = capsys.readouterr().out
        assert "query.q1.seconds" in out
        assert "p50" in out and "p95" in out and "p99" in out
        assert "dominance.comparisons" in out

    def test_profile_prints_hotspots(self, routes_csv, capsys):
        assert main(["run", "--input", routes_csv, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "calls" in out

    def test_bench_emits_trace_next_to_results(self, tmp_path, capsys):
        assert main([
            "bench", "fig10", "--scale", "smoke", "--out", str(tmp_path),
            "--trace", str(tmp_path / "all.json"),
        ]) == 0
        assert (tmp_path / "figure_10.trace.json").exists()


class TestBench:
    def test_bench_fig10_smoke(self, tmp_path, capsys):
        rc = main([
            "bench", "fig10", "--scale", "smoke", "--out", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert (tmp_path / "figure_10.txt").exists()

    def test_bench_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            main(["bench", "fig99", "--scale", "smoke"])
