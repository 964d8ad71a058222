"""Tests for the benchmark harness and figure runners (smoke scale)."""

import dataclasses

import pytest

from repro.bench import SCALES, figures, run_figure
from repro.bench.figures import AnswerMismatch
from repro.bench.harness import BenchPoint, BudgetedRunner, time_call
from repro.bench.reporting import FigureResult, render_markdown, render_table


class TestHarness:
    def test_time_call(self):
        result, seconds = time_call(lambda: 42)
        assert result == 42
        assert seconds >= 0

    def test_budgeted_runner_skips_after_blow(self):
        runner = BudgetedRunner(budget_seconds=0.0)
        first = runner.run(1, "x", lambda: sum(range(1000)))
        assert first.seconds is not None
        assert first.result == sum(range(1000))
        second = runner.run(2, "x", lambda: 1)
        assert second.seconds is None
        assert second.display == "skipped"

    def test_budgeted_runner_within_budget(self):
        runner = BudgetedRunner(budget_seconds=100.0)
        for x in range(3):
            assert runner.run(x, "x", lambda: x).seconds is not None

    def test_scales_defined(self):
        assert set(SCALES) == {"smoke", "default", "paper"}
        assert SCALES["paper"].nba_players == 17_265
        assert SCALES["paper"].synthetic_tuples == 100_000
        assert SCALES["paper"].size_sweep[-1] == 500_000


class TestReporting:
    def test_render_table_alignment(self):
        text = render_table(["a", "long_header"], [[1, 2.5], [None, "x"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert set(lines[1]) <= {"-", " "}  # separator row
        assert "-" in lines[3]  # None renders as -

    def test_render_markdown(self):
        md = render_markdown(["a", "b"], [[1, 2]])
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in md

    def test_figure_result_save(self, tmp_path):
        result = FigureResult(
            figure="Figure 99",
            title="test",
            headers=["x"],
            rows=[[1]],
            notes=["hello"],
        )
        path = result.save(tmp_path)
        assert path.name == "figure_99.txt"
        content = path.read_text()
        assert "Figure 99" in content
        assert "note: hello" in content
        assert "Figure 99" in result.to_markdown()
        import json

        payload = json.loads((tmp_path / "figure_99.json").read_text())
        assert payload["rows"] == [[1]]
        assert payload["notes"] == ["hello"]


class TestFigureRunners:
    def test_unknown_figure(self):
        with pytest.raises(ValueError, match="unknown figure"):
            run_figure("fig99")

    def test_unknown_scale(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_figure("fig8", scale="galactic")

    def test_fig8_smoke_shape(self):
        result = run_figure("fig8", scale="smoke")
        assert result.headers == ["d", "stellar_s", "skyey_s", "skyey/stellar"]
        assert [row[0] for row in result.rows] == list(range(1, 7))
        # Stellar is never skipped at smoke scale
        assert all(row[1] is not None for row in result.rows)

    def test_fig9_smoke_counts_monotone(self):
        result = run_figure("fig9", scale="smoke")
        objects = [row[2] for row in result.rows]
        groups = [row[1] for row in result.rows]
        assert all(isinstance(x, int) for x in objects)
        # subspace skyline objects grow with d; groups stay <= objects
        assert objects == sorted(objects)
        assert all(g <= o for g, o in zip(groups, objects))

    def test_fig10_smoke_distributions(self):
        result = run_figure("fig10", scale="smoke")
        dists = {row[0] for row in result.rows}
        assert dists == {"correlated", "equal", "anticorrelated"}

    def test_fig11_smoke(self):
        result = run_figure("fig11", scale="smoke")
        assert result.headers == ["distribution", "d", "stellar_s", "skyey_s"]
        assert len(result.rows) > 6

    def test_fig12_smoke(self):
        result = run_figure("fig12", scale="smoke")
        sizes = {row[2] for row in result.rows}
        assert sizes == {200, 400}


@pytest.fixture
def skyey_drops_a_group(monkeypatch):
    """Skyey returns its cube minus the last group: a wrong answer."""
    real = figures.skyey

    def wrong(data):
        result = real(data)
        return dataclasses.replace(result, groups=result.groups[:-1])

    monkeypatch.setattr(figures, "skyey", wrong)


class TestAnswerCheck:
    """Wherever Stellar and Skyey both ran, their cubes must be equal."""

    @pytest.mark.parametrize(
        "name, where",
        [
            ("fig8", "Figure 8, d=1"),
            ("fig11", "Figure 11, correlated d=2"),
            ("fig12", "Figure 12, correlated n=200"),
        ],
    )
    def test_mismatch_fails_the_figure(self, skyey_drops_a_group, name, where):
        with pytest.raises(AnswerMismatch, match=where):
            run_figure(name, scale="smoke")

    def test_mismatch_fails_the_bench_command(
        self, skyey_drops_a_group, tmp_path, capsys
    ):
        from repro.cli import main

        argv = ["bench", "fig8", "--scale", "smoke", "--out", str(tmp_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == "error: fig8: Stellar and Skyey disagree at Figure 8, d=1\n"
        assert not list(tmp_path.glob("BENCH_*.json"))

    def test_skipped_point_is_not_compared(self, running_example):
        from repro.baselines import skyey

        skipped = BenchPoint(x=1, algorithm="stellar", seconds=None)
        ran = BenchPoint(
            x=1, algorithm="skyey", seconds=0.1, result=skyey(running_example)
        )
        figures._check_agreement("x", skipped, ran)
