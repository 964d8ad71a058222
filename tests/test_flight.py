"""Flight recorder, live progress, heartbeat, and shutdown behaviour."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.request import urlopen

import pytest

from repro.bench.ledger import LedgerEntry, append_entry, load_entries
from repro.core.stellar import stellar
from repro.data import make_dataset
from repro.obs import (
    MetricsRegistry,
    configure_progress,
    disable_flight,
    dump_flight,
    enable_flight,
    flight_enabled,
    flight_recorder,
    install_crash_hooks,
    read_flight_dump,
    registry,
    render_prometheus,
    reset_metrics,
    start_heartbeat,
    stop_heartbeat,
    summarize_flight_dump,
    uninstall_crash_hooks,
)
from repro.obs.flight import FlightRecorder
from repro.obs.progress import Heartbeat, cpu_seconds, rss_bytes
from repro.obs.tracing import Tracer, tick
from repro.serve import CubeService, SnapshotStore, start_server


@pytest.fixture
def flight():
    """An enabled flight recorder, fully torn down afterwards."""
    recorder = enable_flight()
    recorder.clear()
    yield recorder
    uninstall_crash_hooks()
    disable_flight()


@pytest.fixture
def clean_telemetry():
    """Guarantee progress/heartbeat/metrics state is reset after the test."""
    yield
    stop_heartbeat()
    configure_progress("off")
    reset_metrics()


# -- ring buffer ------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_is_bounded_and_counts_drops(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(20):
            recorder.record("tick", i=i)
        events = recorder.events()
        assert len(events) == 8
        assert recorder.recorded == 20
        assert recorder.dropped == 12
        # Oldest events are the ones dropped.
        assert [e["i"] for e in events] == list(range(12, 20))

    def test_events_carry_timestamp_and_kind(self):
        recorder = FlightRecorder()
        recorder.record("custom", payload="x")
        (event,) = recorder.events()
        assert event["kind"] == "custom"
        assert event["payload"] == "x"
        assert event["ts"] == pytest.approx(time.time(), abs=5)

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(capacity=0)

    def test_dump_roundtrip_with_header(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        for i in range(6):
            recorder.record("tick", i=i)
        path = recorder.dump(tmp_path / "flight.ndjson", reason="test")
        events = read_flight_dump(path)
        header, body = events[0], events[1:]
        assert header["kind"] == "flight.header"
        assert header["reason"] == "test"
        assert header["pid"] == os.getpid()
        assert header["recorded"] == 6
        assert header["retained"] == 4
        assert header["dropped"] == 2
        assert [e["i"] for e in body] == [2, 3, 4, 5]

    def test_summarize_names_kinds_and_tail(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("heartbeat", phase="seed_decisive", done=3, total=9)
        path = recorder.dump(tmp_path / "f.ndjson", reason="test")
        text = summarize_flight_dump(path, tail=5)
        assert "reason=test" in text
        assert "heartbeat=1" in text
        assert "seed_decisive" in text

    def test_unserialisable_values_fall_back_to_repr(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record("odd", value=object())
        path = recorder.dump(tmp_path / "f.ndjson")
        assert "object object" in read_flight_dump(path)[1]["value"]


class TestGlobalRecorder:
    def test_record_is_noop_while_disabled(self):
        disable_flight()
        from repro.obs.flight import record

        record("ignored", x=1)  # must not raise, must not accumulate
        assert flight_recorder() is None
        assert not flight_enabled()

    def test_enable_is_idempotent_and_resize_replaces(self, flight):
        assert enable_flight() is flight
        bigger = enable_flight(capacity=flight.capacity * 2)
        assert bigger is not flight
        assert flight_recorder() is bigger

    def test_dump_flight_returns_none_when_disabled(self):
        disable_flight()
        assert dump_flight() is None

    def test_stellar_run_lands_span_and_progress_events(self, flight):
        dataset = make_dataset("independent", 60, 3, seed=7)
        result = stellar(dataset)
        kinds = {e["kind"] for e in flight.events()}
        assert {"span.start", "span.end", "skyline.compute"} <= kinds
        ends = {
            e["name"]: e for e in flight.events() if e["kind"] == "span.end"
        }
        assert {"full_space_skyline", "maximal_cgroups", "seed_decisive",
                "nonseed_extension"} <= set(ends)
        # A phase's progress rides on its span: the closing event carries
        # the items it ticked through.
        assert ends["full_space_skyline"]["counters"]["items"] == 60
        # The c-group search ticks once per seed root.
        assert ends["maximal_cgroups"]["counters"]["items"] == len(result.seeds)

    def test_seed_decisive_span_names_its_route(self, flight):
        """The phase says which hitting-set route ran, so a slow one on a
        wide input explains itself from the trace."""
        for d, route in ((3, "table"), (17, "berge")):
            result = stellar(make_dataset("independent", 20, d, seed=7))
            phase = result.stats.root_span.find("seed_decisive")
            assert phase.attributes["route"] == route
            assert phase.counters["items"] == result.stats.n_maximal_cgroups

    def test_repro_log_records_are_mirrored(self, flight):
        from repro.obs import get_logger

        get_logger("test.flight").warning("something happened")
        logs = [e for e in flight.events() if e["kind"] == "log"]
        assert logs and logs[-1]["event"] == "something happened"
        assert logs[-1]["level"] == "warning"


# -- progress ---------------------------------------------------------------


def _phase(name: str, total: int | None):
    """A phase span (one opened with ``total``) on a fresh tracer."""
    return Tracer().span(name, total=total)


def _json_lines(err: str) -> list[dict]:
    return [json.loads(line) for line in err.splitlines() if line]


class TestProgressTask:
    """A unit of progress is a phase span: ``tick`` feeds its ``items``
    counter, and the progress listener reports it while it is open."""

    def test_context_manager_maintains_ambient_stack(self, clean_telemetry):
        tick(3)  # no tracer: a no-op
        with _phase("outer", 10) as outer:
            with Tracer().span("inner", total=None) as inner:
                tick(3)
            tick()
        assert inner.counters == {"items": 3}
        assert outer.counters == {"items": 1}

    def test_gauges_follow_the_active_task(self, clean_telemetry):
        reg = registry()
        hb = start_heartbeat(interval=60)
        with _phase("phase_a", 4):
            tick(2)
            hb.sample()
            assert reg.info("build.phase").value == "phase_a"
            assert reg.gauge("build.items_done").value == 2
            assert reg.gauge("build.items_total").value == 4
        assert reg.info("build.phase").value == ""

    def test_nested_finish_restores_outer_gauges(self, clean_telemetry):
        reg = registry()
        start_heartbeat(interval=60)
        with _phase("outer", 10):
            with _phase("inner", 2):
                tick(2)
                assert reg.info("build.phase").value == "inner"
            assert reg.info("build.phase").value == "outer"
            assert reg.gauge("build.items_total").value == 10
        assert reg.info("build.phase").value == ""

    def test_rate_and_eta(self, clean_telemetry, capsys):
        configure_progress("json")
        with _phase("phase", 100) as sp:
            tick(50)
            sp.start_ns -= 2_000_000_000
            Heartbeat(interval=60).sample()
        line = _json_lines(capsys.readouterr().err)[1]
        assert line["rate_per_s"] == pytest.approx(25.0, rel=0.1)
        assert line["eta_s"] == pytest.approx(2.0, rel=0.1)

    def test_eta_none_without_total_or_work(self, clean_telemetry, capsys):
        configure_progress("json")
        with _phase("a", None):
            tick(5)
        with _phase("b", 5):
            pass
        lines = _json_lines(capsys.readouterr().err)
        assert [line["phase"] for line in lines] == ["a", "a", "b", "b"]
        assert not any("eta_s" in line for line in lines)

    def test_json_mode_emits_parseable_lines(self, clean_telemetry, capsys):
        configure_progress("json")
        with _phase("phase_j", 2):
            tick(2)
            Heartbeat(interval=60).sample()
        payloads = _json_lines(capsys.readouterr().err)
        assert len(payloads) == 3  # open, heartbeat refresh, close
        assert all(
            p["event"] == "progress" and p["phase"] == "phase_j"
            for p in payloads
        )
        assert payloads[-1]["done"] == 2
        assert payloads[-1].get("final") is True

    def test_off_mode_writes_nothing(self, clean_telemetry, capsys):
        configure_progress("off")
        start_heartbeat(interval=60).sample()
        with _phase("quiet", 3) as sp:
            tick(3)
        stellar(make_dataset("independent", 40, 3, seed=7))
        assert sp.counters["items"] == 3
        assert capsys.readouterr().err == ""

    def test_configure_progress_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown progress mode"):
            configure_progress("loud")

    def test_progress_events_reach_flight_ring(self, flight, clean_telemetry):
        hb = start_heartbeat(interval=60)
        with _phase("ringed", 5):
            tick(5)
            hb.sample()
        beat = [e for e in flight.events() if e["kind"] == "heartbeat"][-1]
        assert (beat["phase"], beat["done"], beat["total"]) == ("ringed", 5, 5)
        end = [e for e in flight.events() if e["kind"] == "span.end"][-1]
        assert end["name"] == "ringed"
        assert end["counters"] == {"items": 5}

    def test_no_listener_without_heartbeat_or_progress(self, tmp_path):
        # A fresh process with no heartbeat and progress off: a served
        # query runs with no span listener at all.
        script = _NO_LISTENER_CHILD.format(
            src=str(Path(__file__).resolve().parents[1] / "src"),
            tmp=str(tmp_path),
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "()"


_NO_LISTENER_CHILD = """\
import sys
sys.path.insert(0, {src!r})
from pathlib import Path
from repro.data import make_dataset, save_csv
from repro.obs import tracing
from repro.serve import CubeService, SnapshotStore
csv = Path({tmp!r}) / "d.csv"
save_csv(make_dataset("independent", 40, 3, seed=1), csv)
service = CubeService(SnapshotStore(Path({tmp!r}) / "snaps"), default_snapshot=None)
service.publish_csv("demo", csv.read_text())
service.query("skyline", {{"subspace": "A,B"}}, snapshot="demo")
print(tracing._LISTENERS)
"""


class TestStellarStageProgress:
    """Stellar's root span has the four phases as children, once each, and
    the per-c-group and per-group stages tick one item per c-group / seed
    group."""

    def test_serial_path_fires_per_item(self, clean_telemetry):
        result = stellar(make_dataset("independent", 120, 4, seed=7))
        phases = {sp.name: sp for sp in result.stats.root_span.children}
        assert [sp.name for sp in result.stats.root_span.children] == [
            "full_space_skyline", "maximal_cgroups", "seed_decisive",
            "nonseed_extension",
        ]
        stats = result.stats
        assert stats.n_maximal_cgroups > 0 and stats.n_seed_groups > 0
        seed, ext = phases["seed_decisive"], phases["nonseed_extension"]
        assert seed.attributes["total"] == stats.n_maximal_cgroups
        assert seed.counters["items"] == stats.n_maximal_cgroups
        assert ext.attributes["total"] == stats.n_seed_groups
        assert ext.counters["items"] == stats.n_seed_groups


# -- heartbeat --------------------------------------------------------------


class TestHeartbeat:
    def test_sample_publishes_vitals(self, clean_telemetry):
        reg = MetricsRegistry()
        hb = Heartbeat(interval=60, reg=reg)
        sample = hb.sample()
        assert sample["rss_bytes"] > 0
        assert reg.gauge("process.rss_bytes").value > 0
        assert reg.gauge("process.cpu_seconds").value >= 0
        assert reg.counter("process.heartbeats").value == 1
        assert hb.beats == 1

    def test_sample_reports_active_task(self, clean_telemetry):
        reg = MetricsRegistry()
        hb = Heartbeat(interval=60, reg=reg)
        start_heartbeat(interval=60)
        with _phase("beating", 7):
            tick(3)
            sample = hb.sample()
        assert sample["phase"] == "beating"
        assert sample["done"] == 3
        assert sample["total"] == 7

    def test_snapshot_every_n_beats_lands_in_flight(
        self, flight, clean_telemetry
    ):
        hb = Heartbeat(interval=60, snapshot_every=2)
        hb.sample()
        hb.sample()
        kinds = [e["kind"] for e in flight.events()]
        assert kinds.count("heartbeat") == 2
        assert kinds.count("metrics") == 1

    def test_thread_starts_and_stops_cleanly(self, clean_telemetry):
        hb = Heartbeat(interval=0.01).start()
        deadline = time.monotonic() + 5.0
        while hb.beats == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert hb.beats > 0
        hb.close()
        hb.close()  # idempotent
        assert not hb._thread.is_alive()

    def test_global_heartbeat_singleton(self, clean_telemetry):
        first = start_heartbeat(interval=60)
        assert start_heartbeat(interval=1) is first
        stop_heartbeat()
        stop_heartbeat()  # idempotent

    def test_interval_validated(self):
        with pytest.raises(ValueError, match="interval"):
            Heartbeat(interval=0)

    def test_resource_helpers(self):
        assert rss_bytes() > 0
        assert cpu_seconds() > 0


# -- prometheus integration -------------------------------------------------


class TestMidBuildScrape:
    def test_info_metric_renders_as_labelled_gauge(self):
        reg = MetricsRegistry()
        reg.info("build.phase").set('odd "phase"\\name')
        out = render_prometheus(reg)
        assert (
            'repro_build_phase{value="odd \\"phase\\"\\\\name"} 1' in out
        )
        assert "# TYPE repro_build_phase gauge" in out

    def test_empty_info_is_omitted(self):
        reg = MetricsRegistry()
        reg.info("build.phase")
        assert "build_phase" not in render_prometheus(reg)

    def test_scrape_mid_build_reports_phase_and_vitals(
        self, clean_telemetry, tmp_path
    ):
        reset_metrics()
        hb = start_heartbeat(interval=60)
        service = CubeService(SnapshotStore(tmp_path / "snaps"))
        with start_server(service) as server:
            with _phase("nonseed_extension", 40):
                tick(25)
                hb.sample()
                with urlopen(f"{server.url}/metrics", timeout=5) as response:
                    body = response.read().decode()
        assert 'repro_build_phase{value="nonseed_extension"} 1' in body
        assert "repro_build_items_done 25" in body
        assert "repro_build_items_total 40" in body
        assert "repro_process_rss_bytes" in body

    def test_concurrent_scrapes_while_build_advances(self, clean_telemetry, tmp_path):
        reset_metrics()
        errors: list[str] = []
        bodies: list[str] = []
        stop = threading.Event()

        def scrape(url: str) -> None:
            while not stop.is_set():
                try:
                    with urlopen(f"{url}/metrics", timeout=5) as response:
                        if response.status != 200:
                            errors.append(f"status {response.status}")
                            return
                        bodies.append(response.read().decode())
                except Exception as exc:  # noqa: BLE001 - recorded for assert
                    errors.append(repr(exc))
                    return

        service = CubeService(SnapshotStore(tmp_path / "snaps"))
        with start_server(service) as server:
            threads = [
                threading.Thread(target=scrape, args=(server.url,))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            hb = start_heartbeat(interval=60)
            with _phase("stress", 5000):
                for _ in range(5000):
                    tick()
                    registry().counter("stress.ops").inc()
                hb.sample()
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors
        assert bodies
        for body in bodies:  # every scrape parses line by line
            for line in body.splitlines():
                assert line.startswith("#") or " " in line


# -- crash / signal / exit semantics ---------------------------------------


_CHILD_PREAMBLE = """\
import os, sys
sys.path.insert(0, {src!r})
from repro.obs import enable_flight, install_crash_hooks, start_heartbeat
from repro.obs.tracing import Tracer, tick
enable_flight()
install_crash_hooks(path={dump!r})
heartbeat = start_heartbeat(interval=0.05)
phase = Tracer().span("seed_decisive", total=100)
phase.__enter__()
tick(42)
heartbeat.sample()
"""


def _child(tmp_path: Path, body: str) -> tuple[subprocess.CompletedProcess, Path]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    dump = tmp_path / "flight.ndjson"
    script = _CHILD_PREAMBLE.format(src=src, dump=str(dump)) + body
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc, dump


@pytest.mark.skipif(
    not hasattr(signal, "SIGUSR1"), reason="SIGUSR1 not available"
)
class TestSignalDump:
    def test_sigusr1_dumps_then_dies_with_signal(self, tmp_path):
        proc, dump = _child(
            tmp_path, "os.kill(os.getpid(), __import__('signal').SIGUSR1)\n"
        )
        assert proc.returncode == -signal.SIGUSR1
        assert dump.exists()
        events = read_flight_dump(dump)
        assert events[0]["kind"] == "flight.header"
        assert events[0]["reason"] == "signal"
        # The tail of the recording identifies the active phase and counts.
        beats = [e for e in events if e["kind"] == "heartbeat" and "phase" in e]
        assert beats[-1]["phase"] == "seed_decisive"
        assert beats[-1]["done"] == 42
        assert beats[-1]["total"] == 100
        assert events[-1]["kind"] == "signal"
        assert f"flight record written to {dump}" in proc.stderr

    def test_snapshot_mode_continues_after_signal(self, tmp_path):
        body = (
            "import signal\n"
            "install_crash_hooks(path={dump!r}, exit_on_signal=False)\n"
            "os.kill(os.getpid(), signal.SIGUSR1)\n"
            "print('still alive')\n"
        ).format(dump=str(tmp_path / "flight.ndjson"))
        proc, dump = _child(tmp_path, body)
        assert proc.returncode == 0
        assert "still alive" in proc.stdout
        assert dump.exists()


class TestCrashAndExitDumps:
    def test_unhandled_exception_dumps_with_crash_event(self, tmp_path):
        proc, dump = _child(
            tmp_path, "raise RuntimeError('injected mid-build failure')\n"
        )
        assert proc.returncode == 1
        assert "injected mid-build failure" in proc.stderr  # traceback chained
        events = read_flight_dump(dump)
        assert events[0]["reason"] == "exception"
        crash = [e for e in events if e["kind"] == "crash"]
        assert crash and crash[-1]["exc_type"] == "RuntimeError"
        assert "injected mid-build failure" in crash[-1]["exc"]
        beats = [e for e in events if e["kind"] == "heartbeat" and "phase" in e]
        assert beats[-1]["phase"] == "seed_decisive"

    def test_clean_exit_leaves_no_file_and_no_output(self, tmp_path):
        proc, dump = _child(tmp_path, "phase.__exit__(None, None, None)\n")
        assert proc.returncode == 0
        assert not dump.exists()
        assert proc.stderr == ""

    def test_dump_at_exit_writes_on_success(self, tmp_path):
        body = (
            "install_crash_hooks(path={dump!r}, dump_at_exit=True)\n"
            "phase.__exit__(None, None, None)\n"
        ).format(dump=str(tmp_path / "flight.ndjson"))
        proc, dump = _child(tmp_path, body)
        assert proc.returncode == 0
        events = read_flight_dump(dump)
        assert events[0]["reason"] == "exit"


class TestCliFlight:
    def _run_cli(self, args, tmp_path, extra_env=None):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["REPRO_FLIGHT_DIR"] = str(tmp_path)
        env["REPRO_HEARTBEAT"] = "0.05"
        env.update(extra_env or {})
        return subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=tmp_path,
            env=env,
        )

    def test_flight_flag_dumps_on_exit(self, tmp_path):
        csv = tmp_path / "d.csv"
        proc = self._run_cli(
            ["generate", "--n", "30", "--d", "3", "--out", str(csv),
             "--flight"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        dumps = list(tmp_path.glob("flight-*.ndjson"))
        assert len(dumps) == 1
        events = read_flight_dump(dumps[0])
        assert events[0]["reason"] == "exit"
        assert any(e["kind"] == "heartbeat" for e in events)

    def test_no_flag_no_file(self, tmp_path):
        csv = tmp_path / "d.csv"
        proc = self._run_cli(
            ["generate", "--n", "30", "--d", "3", "--out", str(csv)],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        assert not list(tmp_path.glob("flight-*.ndjson"))

    def test_progress_json_stream(self, tmp_path):
        csv = tmp_path / "d.csv"
        self._run_cli(
            ["generate", "--n", "120", "--d", "3", "--out", str(csv)],
            tmp_path,
        )
        proc = self._run_cli(
            ["run", "--input", str(csv), "--max-groups", "1",
             "--progress", "json"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        payloads = [
            json.loads(line)
            for line in proc.stderr.splitlines()
            if line.startswith("{")
        ]
        finals = [p["phase"] for p in payloads if p.get("final")]
        assert finals == ["full_space_skyline", "maximal_cgroups",
                          "seed_decisive", "nonseed_extension"]

    def test_flight_dump_and_show_subcommands(self, tmp_path):
        out = tmp_path / "manual.ndjson"
        proc = self._run_cli(
            ["flight", "dump", "--out", str(out)], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        proc = self._run_cli(["flight", "show", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert "flight record" in proc.stdout

    def test_flight_show_requires_file(self, tmp_path):
        proc = self._run_cli(["flight", "show"], tmp_path)
        assert proc.returncode == 2
        assert "requires a dump file" in proc.stderr


# -- ledger locking ---------------------------------------------------------


class TestLedgerLocking:
    def _entry(self, i: int) -> LedgerEntry:
        return LedgerEntry(
            figure="fig8",
            scale="smoke",
            created=float(i),
            metrics={"stellar_total_s": float(i)},
        )

    def test_concurrent_appends_lose_nothing(self, tmp_path):
        path = tmp_path / "BENCH_fig8.json"
        n_threads, per_thread = 8, 5
        barrier = threading.Barrier(n_threads)
        errors: list[BaseException] = []

        def worker(base: int) -> None:
            try:
                barrier.wait(timeout=30)
                for j in range(per_thread):
                    append_entry(path, self._entry(base + j))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i * per_thread,))
            for i in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        entries = load_entries(path)
        assert len(entries) == n_threads * per_thread
        assert sorted(e.created for e in entries) == [
            float(i) for i in range(n_threads * per_thread)
        ]

    def test_append_still_returns_index(self, tmp_path):
        path = tmp_path / "BENCH_fig8.json"
        assert append_entry(path, self._entry(0)) == 0
        assert append_entry(path, self._entry(1)) == 1
