"""Tests for repro.parallel: specs, precedence, determinism, crash safety."""

import multiprocessing
import threading

import pytest

from repro.baselines.skyey import skyey
from repro.core.stellar import stellar
from repro.data import make_dataset
from repro.parallel import (
    AUTO_MIN_OBJECTS,
    SERIAL,
    ParallelConfig,
    chunk_ranges,
    default_parallel,
    get_shared,
    map_shards,
    parse_parallel_spec,
    resolve_parallel,
)
from repro.skyline import compute_skyline
from repro.skyline.numpy_skyline import BITSET_MAX_ROWS

_FORK = "fork" in multiprocessing.get_all_start_methods()

#: Backends exercised by the equality tests; process pools need fork to
#: ship the module-level shard functions cheaply.
BACKENDS = ["thread:2"] + (["process:2"] if _FORK else [])


# -- spec parsing -----------------------------------------------------------


class TestParseSpec:
    def test_none_is_serial(self):
        assert parse_parallel_spec(None) is SERIAL

    def test_empty_string_is_serial(self):
        assert parse_parallel_spec("  ") is SERIAL

    def test_config_passes_through(self):
        config = ParallelConfig(backend="thread", workers=3)
        assert parse_parallel_spec(config) is config

    @pytest.mark.parametrize("spec", [0, 1, "0", "1", "serial", "serial:4"])
    def test_serial_spellings(self, spec):
        assert parse_parallel_spec(spec).backend == "serial"

    @pytest.mark.parametrize("spec", [4, "4"])
    def test_plain_count_means_process(self, spec):
        config = parse_parallel_spec(spec)
        assert (config.backend, config.workers) == ("process", 4)

    def test_backend_with_count(self):
        config = parse_parallel_spec("thread:8")
        assert (config.backend, config.workers) == ("thread", 8)

    def test_backend_without_count_defers_to_host(self):
        config = parse_parallel_spec("auto")
        assert config.workers is None
        assert config.effective_workers >= 1

    def test_case_and_whitespace_insensitive(self):
        assert parse_parallel_spec(" Process:2 ").backend == "process"

    @pytest.mark.parametrize(
        "spec", ["bogus", "thread:x", "thread:0", "process:-1", True]
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_parallel_spec(spec)

    @pytest.mark.parametrize("spec", ["serial", "auto", "thread:2", "process:4"])
    def test_describe_round_trips(self, spec):
        config = parse_parallel_spec(spec)
        assert parse_parallel_spec(config.describe()) == config


# -- planning ---------------------------------------------------------------


class TestPlan:
    def test_serial_never_engages(self):
        assert SERIAL.plan(10**9) == 0

    def test_forced_backend_ignores_the_floor(self):
        assert ParallelConfig(backend="process", workers=2).plan(1) == 2
        assert ParallelConfig(backend="thread", workers=3).plan(1) == 3

    def test_auto_respects_the_floor(self):
        config = ParallelConfig(backend="auto", workers=4)
        assert config.plan(AUTO_MIN_OBJECTS - 1) == 0
        assert config.plan(AUTO_MIN_OBJECTS) == 4

    def test_auto_custom_floor(self):
        config = ParallelConfig(backend="auto", workers=4)
        assert config.plan(100, floor=101) == 0
        assert config.plan(100, floor=100) == 4

    def test_single_worker_never_engages(self):
        assert ParallelConfig(backend="process", workers=1).plan(10**9) == 0


# -- precedence -------------------------------------------------------------


class TestPrecedence:
    def test_default_is_serial(self):
        assert resolve_parallel() is SERIAL

    def test_default_applies_without_explicit(self):
        with default_parallel("thread:3"):
            config = resolve_parallel()
        assert (config.backend, config.workers) == ("thread", 3)

    def test_explicit_overrides_default(self):
        with default_parallel("process:2"):
            config = resolve_parallel("serial")
        assert config.backend == "serial"

    def test_default_parallel_restores_on_exit(self):
        with default_parallel("thread:2") as config:
            assert resolve_parallel() is config
            with default_parallel(None) as inner:
                assert inner is SERIAL
                assert resolve_parallel() is SERIAL
            assert resolve_parallel() is config
        assert resolve_parallel() is SERIAL


# -- chunking ---------------------------------------------------------------


class TestChunkRanges:
    @pytest.mark.parametrize("n,parts", [(10, 3), (7, 7), (100, 4), (5, 16)])
    def test_covers_the_range_in_order(self, n, parts):
        ranges = chunk_ranges(n, parts)
        covered = [i for start, stop in ranges for i in range(start, stop)]
        assert covered == list(range(n))

    def test_balanced(self):
        sizes = [stop - start for start, stop in chunk_ranges(10, 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_never_more_parts_than_items(self):
        assert len(chunk_ranges(3, 16)) == 3

    @pytest.mark.parametrize("n,parts", [(0, 4), (4, 0), (-1, 2)])
    def test_degenerate_inputs(self, n, parts):
        assert chunk_ranges(n, parts) == []


# -- map_shards -------------------------------------------------------------


def _double(x):
    return 2 * x


def _shared_plus(x):
    return get_shared() + x


def _boom(x):
    if x == 2:
        raise ValueError(f"shard {x} exploded")
    return x


class TestMapShards:
    @pytest.mark.parametrize("spec", ["serial"] + BACKENDS)
    def test_preserves_order(self, spec):
        config = parse_parallel_spec(spec)
        out = map_shards(
            "test", _double, list(range(20)), config=config, workers=2
        )
        assert out == [2 * x for x in range(20)]

    @pytest.mark.parametrize("spec", ["serial"] + BACKENDS)
    def test_shared_payload_visible(self, spec):
        config = parse_parallel_spec(spec)
        out = map_shards(
            "test", _shared_plus, [1, 2, 3], config=config, workers=2, shared=10
        )
        assert out == [11, 12, 13]

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_worker_exception_propagates(self, spec):
        config = parse_parallel_spec(spec)
        with pytest.raises(ValueError, match="shard 2 exploded"):
            map_shards(
                "test", _boom, list(range(8)), config=config, workers=2
            )

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_pool_usable_after_a_crash(self, spec):
        config = parse_parallel_spec(spec)
        with pytest.raises(ValueError):
            map_shards("test", _boom, [2, 2], config=config, workers=2)
        out = map_shards("test", _double, [1, 2], config=config, workers=2)
        assert out == [2, 4]

    def test_single_item_runs_inline(self):
        config = parse_parallel_spec("thread:4")
        assert map_shards("test", _double, [21], config=config, workers=4) == [42]

    def test_empty_items(self):
        assert map_shards("test", _double, [], config=SERIAL, workers=4) == []


# -- end-to-end determinism -------------------------------------------------

#: (distribution, n, d) grid spanning 2-8 dimensions.
DATASETS = [
    ("correlated", 150, 2),
    ("independent", 120, 4),
    ("anticorrelated", 80, 6),
    ("correlated", 100, 8),
]


def _dataset(dist, n, d):
    return make_dataset(dist, n, d, seed=7)


class TestSerialParallelEquality:
    @pytest.mark.parametrize("spec", BACKENDS)
    @pytest.mark.parametrize("dist,n,d", DATASETS)
    def test_compute_skyline(self, dist, n, d, spec):
        data = _dataset(dist, n, d)
        serial = compute_skyline(data, algorithm="sfs", parallel="serial")
        par = compute_skyline(data, algorithm="sfs", parallel=spec)
        assert par == serial

    @pytest.mark.parametrize("spec", BACKENDS)
    @pytest.mark.parametrize("dist,d", [("independent", 4), ("anticorrelated", 3)])
    def test_numpy_across_bitset_cutoff(self, dist, d, spec):
        # Two chunks of 2,001 and 2,000 rows: the larger one takes the
        # chunked scan, the other and the merge of the candidates take the
        # packed bitsets; the serial run scans all 4,001 rows.
        data = make_dataset(dist, 2 * BITSET_MAX_ROWS + 1, d, seed=7)
        serial = compute_skyline(data, algorithm="numpy", parallel="serial")
        par = compute_skyline(data, algorithm="numpy", parallel=spec)
        assert par == serial
        assert serial == compute_skyline(data, algorithm="brute")

    @pytest.mark.parametrize("spec", BACKENDS)
    @pytest.mark.parametrize("dist,n,d", DATASETS)
    def test_stellar(self, dist, n, d, spec):
        data = _dataset(dist, n, d)
        serial = stellar(data, parallel="serial")
        par = stellar(data, parallel=spec)
        assert par.groups == serial.groups
        assert par.seed_groups == serial.seed_groups
        assert par.seeds == serial.seeds
        assert par.signatures(data) == serial.signatures(data)

    @pytest.mark.parametrize("spec", BACKENDS)
    @pytest.mark.parametrize("dist,n,d", DATASETS)
    def test_skyey(self, dist, n, d, spec):
        data = _dataset(dist, n, d)
        serial = skyey(data, parallel="serial")
        par = skyey(data, parallel=spec)
        assert par.groups == serial.groups
        assert par.skyline_sizes == serial.skyline_sizes

    @pytest.mark.parametrize("spec", BACKENDS)
    def test_skyey_variants(self, spec):
        data = _dataset("independent", 100, 4)
        for kwargs in (
            {"share_sort_keys": False},
            {"candidate_pruning": True},
        ):
            serial = skyey(data, parallel="serial", **kwargs)
            par = skyey(data, parallel=spec, **kwargs)
            assert par.groups == serial.groups
            assert par.skyline_sizes == serial.skyline_sizes

    def test_process_default_engages_the_backend(self):
        data = _dataset("independent", 120, 4)
        with default_parallel("thread:2"):
            via_default = stellar(data)
        assert via_default.stats.root_span.attributes["parallel"] == "thread:2"
        maps = [
            sp
            for sp in via_default.stats.root_span.walk()
            if sp.name == "parallel.map"
        ]
        assert maps
        assert via_default.groups == stellar(data, parallel="serial").groups


# -- observability ----------------------------------------------------------


class TestObservability:
    def test_timing_keys_stable_under_parallelism(self):
        data = _dataset("independent", 120, 4)
        serial = stellar(data, parallel="serial")
        par = stellar(data, parallel=BACKENDS[0])
        assert set(par.stats.timings) == set(serial.stats.timings)

    def test_parallel_run_records_shard_spans(self):
        data = _dataset("independent", 120, 4)
        result = stellar(data, parallel=BACKENDS[0])
        root = result.stats.root_span
        maps = [sp for sp in root.walk() if sp.name == "parallel.map"]
        assert maps, "forced backend must fan out at least one stage"
        for sp in maps:
            shards = [c for c in sp.children if c.name == "shard"]
            assert len(shards) == sp.attributes["shards"]
            assert all(c.duration_ns >= 0 for c in shards)

    def test_serial_run_records_no_shard_spans(self):
        data = _dataset("independent", 120, 4)
        result = stellar(data, parallel="serial")
        names = {sp.name for sp in result.stats.root_span.walk()}
        assert "parallel.map" not in names
        assert result.stats.shard_seconds == {}

    def test_shard_seconds_per_phase(self):
        data = _dataset("independent", 120, 4)
        result = stellar(data, parallel=BACKENDS[0])
        shard_seconds = result.stats.shard_seconds
        assert shard_seconds
        assert set(shard_seconds) <= set(result.stats.timings)
        assert all(v >= 0 for v in shard_seconds.values())


# -- CLI --------------------------------------------------------------------


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

    def test_parallel_flag_accepted(self, csv_path, capsys):
        from repro.cli import main

        assert main(["skyline", "--input", str(csv_path)]) == 0
        serial_out = capsys.readouterr().out
        code = main(
            ["skyline", "--input", str(csv_path), "--parallel", "thread:2"]
        )
        assert code == 0
        assert capsys.readouterr().out == serial_out

    def test_parallel_flag_bare_means_auto(self, csv_path):
        from repro.cli import main

        assert main(["skyline", "--input", str(csv_path), "--parallel"]) == 0

    def test_invalid_spec_is_a_usage_error(self, csv_path, capsys):
        from repro.cli import main

        code = main(
            ["skyline", "--input", str(csv_path), "--parallel", "bogus"]
        )
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_flag_default_restored_after_return(self, csv_path):
        from repro.cli import main

        main(["skyline", "--input", str(csv_path), "--parallel", "thread:2"])
        assert resolve_parallel() is SERIAL

    def test_flag_default_restored_after_raise(self, csv_path, monkeypatch):
        from repro import cli

        def failing(args):
            assert resolve_parallel().describe() == "thread:2"
            raise RuntimeError("handler failed")

        monkeypatch.setattr(cli, "_cmd_skyline", failing)
        with pytest.raises(RuntimeError, match="handler failed"):
            cli.main(["skyline", "--input", str(csv_path), "--parallel", "thread:2"])
        assert resolve_parallel() is SERIAL

    def test_flag_default_reaches_fresh_threads(self, csv_path, monkeypatch):
        # HTTP handler threads start without the CLI thread's context; the
        # process default must reach them anyway.
        from repro import cli

        data = _dataset("independent", 120, 4)
        roots = []

        def handler(args):
            worker = threading.Thread(
                target=lambda: roots.append(stellar(data).stats.root_span)
            )
            worker.start()
            worker.join(timeout=60)
            assert not worker.is_alive()
            return 0

        monkeypatch.setattr(cli, "_cmd_skyline", handler)
        code = cli.main(["skyline", "--input", str(csv_path), "--parallel", "thread:2"])
        assert code == 0
        assert [root.attributes["parallel"] for root in roots] == ["thread:2"]
