"""Live build progress and the resource heartbeat.

A build phase is a span opened with a ``total`` attribute (``None`` when
the amount of work is unknown up front): Stellar's four phases, Skyey's
``2^d - 1`` subspace search, a ``repro bench`` figure.  The work inside it
advances the span's ``items`` counter through
:func:`repro.obs.tracing.tick`.  This module follows those spans with one
span listener:

* when a phase opens or closes, it sets the ``build.*`` gauges (items
  done/total, rate) and the ``build.phase`` info metric, and -- opt-in --
  writes a TTY progress line or JSON-per-line stream on stderr (CLI
  ``--progress[=tty|json|off]``); the closing line is marked ``final``;
* :class:`Heartbeat` -- a daemon thread sampling process vitals every
  ``interval`` seconds: RSS and CPU time (``/proc/self/statm`` with a
  :func:`resource.getrusage` fallback), open-span depth, dominance
  comparisons per second.  Samples land in the ``process.*`` /
  ``build.*`` gauges and in the flight recorder, with a full metrics
  snapshot every few beats.  Each sample also refreshes the gauges and
  the progress line from the innermost open phase, so between a phase's
  open and close lines the progress line refreshes once per heartbeat.

The listener is registered only while the process-wide heartbeat runs or
a progress mode other than ``off`` is set, so spans cost nothing extra
otherwise.
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
from .tracing import Span, add_span_listener, open_span_depth, remove_span_listener

__all__ = [
    "PROGRESS_MODES",
    "configure_progress",
    "Heartbeat",
    "start_heartbeat",
    "stop_heartbeat",
    "HEARTBEAT_ENV",
    "rss_bytes",
    "cpu_seconds",
]

#: Accepted ``--progress`` modes (``auto`` resolves by stderr tty-ness).
PROGRESS_MODES = ("off", "tty", "json", "auto")

#: Environment variable tuning the CLI heartbeat interval (seconds, or
#: ``off`` to disable the thread entirely).
HEARTBEAT_ENV = "REPRO_HEARTBEAT"

#: Resolved output mode: "off", "tty", or "json".
_MODE = "off"

#: Open phase spans, innermost last.  Replaced whole on change, so the
#: heartbeat thread reads it without a lock; changes take ``_PHASES_LOCK``
#: because builds in several serving threads may open phases at once.
_PHASES: tuple[Span, ...] = ()
_PHASES_LOCK = threading.Lock()


def configure_progress(mode: str = "auto") -> str:
    """Set the progress *output* mode; returns the resolved mode.

    ``auto`` picks ``tty`` when stderr is a terminal and ``json``
    otherwise.  Any mode but ``off`` follows phase spans (gauges and
    stderr lines); with ``off`` they are followed only while the
    process-wide heartbeat runs.
    """
    global _MODE
    if mode not in PROGRESS_MODES:
        known = ", ".join(PROGRESS_MODES)
        raise ValueError(f"unknown progress mode {mode!r}; known: {known}")
    if mode == "auto":
        mode = "tty" if sys.stderr.isatty() else "json"
    _MODE = mode
    _sync_listener()
    return mode


def _sync_listener() -> None:
    """Follow phase spans iff the heartbeat runs or progress is not off."""
    global _PHASES
    if _MODE != "off" or _HEARTBEAT is not None:
        add_span_listener(_observe_phase)
    else:
        remove_span_listener(_observe_phase)
        _PHASES = ()


def _observe_phase(event: str, span: Span, root: bool) -> None:
    """Span listener: track open phases and report each open and close."""
    global _PHASES
    if "total" not in span.attributes:
        return
    with _PHASES_LOCK:
        if event == "start":
            _PHASES = _PHASES + (span,)
        else:
            _PHASES = tuple(p for p in _PHASES if p is not span)
        outer = _PHASES
    reg = registry()
    _report(span, reg, final=event == "end")
    if event == "end":
        if outer:
            _report(outer[-1], reg, write=False)  # restore the outer gauges
        else:
            reg.info("build.phase").set("")


def _report(
    span: Span, reg: MetricsRegistry, *, final: bool = False, write: bool = True
) -> dict:
    """Publish one phase's progress to the gauges and (opt-in) stderr.

    Returns the phase, items done and total for a heartbeat sample.
    """
    done = int(span.counters.get("items", 0))
    total = span.attributes["total"]
    end_ns = span.end_ns if span.end_ns is not None else time.perf_counter_ns()
    elapsed = (end_ns - span.start_ns) / 1e9
    rate = done / elapsed if done and elapsed > 0 else 0.0
    eta = max(total - done, 0) / rate if total is not None and rate > 0 else None
    reg.info("build.phase").set(span.name)
    reg.gauge("build.items_done").set(done)
    reg.gauge("build.items_total").set(total if total else 0)
    reg.gauge("build.rate_per_s").set(round(rate, 3))
    if write and _MODE != "off":
        if _MODE == "json":
            payload = {
                "event": "progress",
                "phase": span.name,
                "done": done,
                "total": total,
                "rate_per_s": round(rate, 3),
            }
            if eta is not None:
                payload["eta_s"] = round(eta, 3)
            if final:
                payload["final"] = True
            sys.stderr.write(json.dumps(payload) + "\n")
        else:
            parts = [f"[{span.name}]"]
            if total:
                parts.append(f"{done}/{total} ({100.0 * done / total:.1f}%)")
            else:
                parts.append(str(done))
            parts.append(f"{rate:.1f}/s")
            if eta is not None:
                parts.append(f"eta {eta:.1f}s")
            sys.stderr.write("\r\x1b[K" + " ".join(parts) + ("\n" if final else ""))
        sys.stderr.flush()
    return {"phase": span.name, "done": done, "total": total}


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
    sample plus the innermost open phase's name and counts (whose gauges
    and progress line it also refreshes).  Every
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
        phases = _PHASES
        if phases:
            sample.update(_report(phases[-1], reg))
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
    _sync_listener()
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
        _sync_listener()
