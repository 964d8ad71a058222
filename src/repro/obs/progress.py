"""Live build progress and the resource heartbeat.

Long cube builds (Stellar's four phases, Skyey's ``2^d - 1`` subspace
search, benchmark sweeps) were observable only after the fact: spans and
metrics land when a phase *finishes*.  This module makes the in-flight
state first-class:

* :class:`ProgressTask` -- one named unit of work with an optional total,
  advanced by the code doing the work (directly or via the ambient
  :func:`tick`).  Each throttled emission updates the ``build.*`` gauges
  (items done/total, rate), the ``build.phase`` info metric, the flight
  recorder, and -- opt-in -- a TTY progress line or JSON-per-line stream
  on stderr (CLI ``--progress[=tty|json|off]``).
* :class:`Heartbeat` -- a daemon thread sampling process vitals every
  ``interval`` seconds: RSS and CPU time (``/proc/self/statm`` with a
  :func:`resource.getrusage` fallback), open-span depth, dominance
  comparisons per second.  Samples land in the ``process.*`` /
  ``build.*`` gauges (so a Prometheus scrape mid-build shows the live
  phase, progress counts, and memory) and in the flight recorder, with a
  full metrics snapshot every few beats.

Progress state is process-local; with no ambient task :func:`tick` is a
cheap no-op.
"""

from __future__ import annotations

import atexit
import json
import os
import sys
import threading
import time

from .flight import record as flight_record
from .metrics import MetricsRegistry, registry
from .tracing import open_span_depth

__all__ = [
    "PROGRESS_MODES",
    "ProgressTask",
    "configure_progress",
    "progress_mode",
    "current_task",
    "tick",
    "Heartbeat",
    "start_heartbeat",
    "stop_heartbeat",
    "active_heartbeat",
    "HEARTBEAT_ENV",
    "rss_bytes",
    "cpu_seconds",
]

#: Accepted ``--progress`` modes (``auto`` resolves by stderr tty-ness).
PROGRESS_MODES = ("off", "tty", "json", "auto")

#: Environment variable tuning the CLI heartbeat interval (seconds, or
#: ``off`` to disable the thread entirely).
HEARTBEAT_ENV = "REPRO_HEARTBEAT"

#: Minimum seconds between two emissions of the same task.
_MIN_INTERVAL = 0.2

#: Resolved output mode: "off", "tty", or "json".
_MODE = "off"

#: Stack of active tasks, innermost last (process-local, parent-side).
_TASKS: list["ProgressTask"] = []


def configure_progress(mode: str = "auto") -> str:
    """Set the progress *output* mode; returns the resolved mode.

    ``auto`` picks ``tty`` when stderr is a terminal and ``json``
    otherwise.  The mode only controls stderr output: gauges and flight
    events are always maintained while a task is active.
    """
    global _MODE
    if mode not in PROGRESS_MODES:
        known = ", ".join(PROGRESS_MODES)
        raise ValueError(f"unknown progress mode {mode!r}; known: {known}")
    if mode == "auto":
        mode = "tty" if sys.stderr.isatty() else "json"
    _MODE = mode
    return mode


def progress_mode() -> str:
    """The resolved output mode ("off" / "tty" / "json")."""
    return _MODE


def current_task() -> "ProgressTask | None":
    """The innermost active task, if any."""
    return _TASKS[-1] if _TASKS else None


def tick(n: int = 1) -> None:
    """Advance the innermost active task; a no-op when none is active.

    This is what instrumented loops call: it feeds the enclosing phase's
    task; with no ambient task the call costs one global read.
    """
    if _TASKS:
        _TASKS[-1].advance(n)


class ProgressTask:
    """One named unit of work with rate and ETA estimation.

    Use as a context manager around a phase::

        with ProgressTask("nonseed_extension", total=len(seed_groups)):
            for group in seed_groups:
                ...
                tick()

    ``advance`` is cheap when called often: emissions are throttled to
    ``min_interval`` seconds with an adaptive stride, so the steady-state
    cost of a tick is two integer operations.
    """

    def __init__(
        self,
        phase: str,
        total: int | None = None,
        *,
        min_interval: float = _MIN_INTERVAL,
        reg: MetricsRegistry | None = None,
    ):
        self.phase = phase
        self.total = total
        self.done = 0
        self.min_interval = min_interval
        self._reg = reg if reg is not None else registry()
        self._started = time.monotonic()
        self._last_emit = self._started
        self._emitted = False
        self._stride = 1
        self._since_check = 0
        self._finished = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ProgressTask":
        """Activate the task (pushed as the innermost ambient task)."""
        _TASKS.append(self)
        self._started = time.monotonic()
        self._last_emit = self._started
        self._set_gauges()
        flight_record("progress.start", phase=self.phase, total=self.total)
        return self

    def finish(self) -> None:
        """Deactivate the task, emitting its final state."""
        if self._finished:
            return
        self._finished = True
        self.emit(force=True, final=True)
        if self in _TASKS:
            _TASKS.remove(self)
        flight_record(
            "progress.end",
            phase=self.phase,
            done=self.done,
            total=self.total,
            seconds=round(self.elapsed, 6),
        )
        outer = current_task()
        if outer is not None:
            outer._set_gauges()
        else:
            self._reg.info("build.phase").set("")
        if _MODE == "tty" and self._emitted:
            sys.stderr.write("\n")
            sys.stderr.flush()

    def __enter__(self) -> "ProgressTask":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.finish()
        return False

    # -- progress -----------------------------------------------------------

    def advance(self, n: int = 1) -> None:
        """Record ``n`` completed items; emits at most every few hundred ms."""
        self.done += n
        self._since_check += n
        if self._since_check < self._stride:
            return
        self._since_check = 0
        now = time.monotonic()
        if now - self._last_emit >= self.min_interval:
            self.emit(now=now)
        elif self._stride < (1 << 16):
            # Ticks are arriving faster than the emit cadence: widen the
            # stride so the monotonic clock is read rarely.
            self._stride *= 2

    @property
    def elapsed(self) -> float:
        """Seconds since the task started."""
        return time.monotonic() - self._started

    def rate(self) -> float:
        """Items per second since the task started (0.0 before any work)."""
        elapsed = self.elapsed
        if elapsed <= 0 or self.done == 0:
            return 0.0
        return self.done / elapsed

    def eta_seconds(self) -> float | None:
        """Estimated seconds to completion; None without a total or rate."""
        if self.total is None or self.done == 0:
            return None
        remaining = max(self.total - self.done, 0)
        rate = self.rate()
        if rate <= 0:
            return None
        return remaining / rate

    # -- emission -----------------------------------------------------------

    def _set_gauges(self) -> None:
        reg = self._reg
        reg.info("build.phase").set(self.phase)
        reg.gauge("build.items_done").set(self.done)
        reg.gauge("build.items_total").set(self.total if self.total else 0)
        reg.gauge("build.rate_per_s").set(round(self.rate(), 3))

    def emit(
        self,
        now: float | None = None,
        *,
        force: bool = False,
        final: bool = False,
    ) -> None:
        """Publish the current state to gauges, the flight ring, and stderr."""
        now = now if now is not None else time.monotonic()
        self._last_emit = now
        if self is current_task() or final:
            self._set_gauges()
        rate = self.rate()
        eta = self.eta_seconds()
        flight_record(
            "progress",
            phase=self.phase,
            done=self.done,
            total=self.total,
            rate_per_s=round(rate, 3),
            **({"eta_s": round(eta, 3)} if eta is not None else {}),
        )
        if rate > 0:
            # Aim for ~4 clock checks per emit interval at the current rate.
            self._stride = max(1, int(rate * self.min_interval / 4))
        if _MODE == "off":
            return
        self._emitted = True
        if _MODE == "json":
            payload = {
                "event": "progress",
                "phase": self.phase,
                "done": self.done,
                "total": self.total,
                "rate_per_s": round(rate, 3),
            }
            if eta is not None:
                payload["eta_s"] = round(eta, 3)
            if final:
                payload["final"] = True
            sys.stderr.write(json.dumps(payload) + "\n")
        else:
            parts = [f"[{self.phase}]"]
            if self.total:
                pct = 100.0 * self.done / self.total
                parts.append(f"{self.done}/{self.total} ({pct:.1f}%)")
            else:
                parts.append(str(self.done))
            parts.append(f"{rate:.1f}/s")
            if eta is not None:
                parts.append(f"eta {eta:.1f}s")
            sys.stderr.write("\r\x1b[K" + " ".join(parts))
            if final:
                pass  # finish() writes the newline once
        sys.stderr.flush()


# -- resource sampling ------------------------------------------------------


def rss_bytes() -> int:
    """Current resident set size in bytes (best effort, 0 when unknown).

    Prefers ``/proc/self/statm`` (current RSS); falls back to
    ``getrusage`` peak RSS (kilobytes on Linux, bytes on macOS).
    """
    try:
        with open("/proc/self/statm") as fh:
            fields = fh.read().split()
        return int(fields[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return int(peak) if sys.platform == "darwin" else int(peak) * 1024
    except (ImportError, OSError):  # pragma: no cover - non-POSIX hosts
        return 0


def cpu_seconds() -> float:
    """User + system CPU seconds consumed by this process (0.0 unknown)."""
    try:
        import resource

        usage = resource.getrusage(resource.RUSAGE_SELF)
        return usage.ru_utime + usage.ru_stime
    except (ImportError, OSError):  # pragma: no cover - non-POSIX hosts
        return 0.0


class Heartbeat:
    """Daemon thread publishing process vitals while work is in flight.

    Every ``interval`` seconds: sets the ``process.rss_bytes``,
    ``process.cpu_seconds``, ``process.open_spans``, and
    ``build.comparisons_per_s`` gauges, bumps the ``process.heartbeats``
    counter, and records a ``heartbeat`` flight event carrying the same
    sample plus the innermost task's phase and counts.  Every
    ``snapshot_every`` beats it also records a full counter/gauge snapshot
    so a crash dump carries recent absolute metric values.
    """

    def __init__(
        self,
        interval: float = 1.0,
        *,
        reg: MetricsRegistry | None = None,
        snapshot_every: int = 5,
    ):
        if interval <= 0:
            raise ValueError(f"heartbeat interval must be > 0, got {interval}")
        self.interval = interval
        self.snapshot_every = max(1, snapshot_every)
        self._reg = reg if reg is not None else registry()
        self._stop = threading.Event()
        self._beats = 0
        self._last_comparisons: int | None = None
        self._last_sample = time.monotonic()
        self._thread = threading.Thread(
            target=self._run, name="repro-heartbeat", daemon=True
        )

    def start(self) -> "Heartbeat":
        """Start sampling; returns self.

        One sample is taken synchronously before the thread starts, so
        even runs shorter than ``interval`` record their vitals.
        """
        try:
            self.sample()
        except Exception:  # pragma: no cover - telemetry must not kill
            pass
        self._thread.start()
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop the thread and wait for it (idempotent, never hangs)."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "Heartbeat":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def beats(self) -> int:
        """Samples taken so far."""
        return self._beats

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample()
            except Exception:  # pragma: no cover - telemetry must not kill
                pass

    def sample(self) -> dict:
        """Take one sample now (also usable synchronously from tests)."""
        from ..core.dominance import COMPARISONS

        now = time.monotonic()
        rss = rss_bytes()
        cpu = cpu_seconds()
        depth = open_span_depth()
        comparisons = COMPARISONS.value
        if self._last_comparisons is None or now <= self._last_sample:
            comp_rate = 0.0
        else:
            comp_rate = (comparisons - self._last_comparisons) / (
                now - self._last_sample
            )
        self._last_comparisons = comparisons
        self._last_sample = now
        self._beats += 1

        reg = self._reg
        reg.gauge("process.rss_bytes").set(rss)
        reg.gauge("process.cpu_seconds").set(round(cpu, 6))
        reg.gauge("process.open_spans").set(depth)
        reg.gauge("build.comparisons_per_s").set(round(comp_rate, 3))
        reg.counter("process.heartbeats").inc()

        sample = {
            "rss_bytes": rss,
            "cpu_seconds": round(cpu, 6),
            "open_spans": depth,
            "comparisons_per_s": round(comp_rate, 3),
        }
        task = current_task()
        if task is not None:
            sample["phase"] = task.phase
            sample["done"] = task.done
            sample["total"] = task.total
        flight_record("heartbeat", **sample)
        if self._beats % self.snapshot_every == 0:
            snapshot = reg.snapshot()
            flight_record(
                "metrics",
                counters=snapshot["counters"],
                gauges=snapshot["gauges"],
            )
        return sample


#: The process-wide heartbeat started by :func:`start_heartbeat`.
_HEARTBEAT: Heartbeat | None = None
_ATEXIT_REGISTERED = False


def start_heartbeat(interval: float = 1.0, **kwargs) -> Heartbeat:
    """Start (or return) the process-wide heartbeat thread.

    Idempotent: an already-running heartbeat is returned as is (interval
    unchanged).  The thread is a daemon *and* stopped via ``atexit``, so
    interpreter shutdown is clean -- no stray output, no hang.
    """
    global _HEARTBEAT, _ATEXIT_REGISTERED
    if _HEARTBEAT is not None:
        return _HEARTBEAT
    _HEARTBEAT = Heartbeat(interval, **kwargs).start()
    if not _ATEXIT_REGISTERED:
        atexit.register(stop_heartbeat)
        _ATEXIT_REGISTERED = True
    return _HEARTBEAT


def stop_heartbeat() -> None:
    """Stop the process-wide heartbeat, if one is running (idempotent)."""
    global _HEARTBEAT
    if _HEARTBEAT is not None:
        _HEARTBEAT.close()
        _HEARTBEAT = None


def active_heartbeat() -> Heartbeat | None:
    """The running process-wide heartbeat, if any."""
    return _HEARTBEAT
