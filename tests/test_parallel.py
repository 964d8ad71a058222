"""Guards that the build has one execution path, the serial one.

There is no ``parallel`` keyword, no ``--parallel`` flag and no shard
span: every answer comes from the serial reference pipeline.
"""

import inspect

import pytest

from repro.baselines.skyey import skyey
from repro.core.extension import extend_with_nonseeds
from repro.core.seeds import compute_seed_groups
from repro.core.stellar import stellar
from repro.data import make_dataset
from repro.skyline import compute_skyline

#: (distribution, n, d) grid spanning 2-8 dimensions.
DATASETS = [
    ("correlated", 150, 2),
    ("independent", 120, 4),
    ("anticorrelated", 80, 6),
    ("correlated", 100, 8),
]

STELLAR_PHASES = {
    "full_space_skyline",
    "maximal_cgroups",
    "seed_decisive",
    "nonseed_extension",
}


def _dataset(dist, n, d):
    return make_dataset(dist, n, d, seed=7)


class TestPrecedence:
    def test_default_is_serial(self):
        # Serial is the only path: no entry point takes an execution knob.
        for fn in (
            stellar,
            skyey,
            compute_skyline,
            compute_seed_groups,
            extend_with_nonseeds,
        ):
            assert "parallel" not in inspect.signature(fn).parameters


class TestObservability:
    def test_timing_keys_stable_under_parallelism(self):
        # The timings dict has the same four phase keys whatever the shape
        # of the input (and whichever skyline algorithm the registry picks).
        for dist, n, d in DATASETS:
            timings = stellar(_dataset(dist, n, d)).stats.timings
            assert set(timings) == STELLAR_PHASES

    def test_serial_run_records_no_shard_spans(self):
        data = _dataset("independent", 120, 4)
        result = stellar(data)
        names = {sp.name for sp in result.stats.root_span.walk()}
        assert "parallel.map" not in names
        assert "shard" not in names
        assert not hasattr(result.stats, "shard_seconds")


class TestCli:
    @pytest.fixture()
    def csv_path(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "data.csv"
        code = main(
            [
                "generate",
                "--distribution",
                "independent",
                "--n",
                "80",
                "--d",
                "3",
                "--seed",
                "7",
                "--out",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_invalid_spec_is_a_usage_error(self, csv_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["skyline", "--input", str(csv_path), "--parallel", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--parallel" in err and "bogus" in err
