"""In-flight black-box recorder: bounded event ring, NDJSON crash dumps.

Spans, metrics, and the Prometheus endpoint tell the story of a build
*after* a phase finishes; the flight recorder tells it *while* the build is
running -- and, crucially, still tells it when the build never finishes.
It is a bounded ring buffer of timestamped events (span opens/closes,
structured log records, progress ticks, heartbeat samples, metric
snapshots) that costs one global read per candidate event while disabled
and one lock-guarded ``deque.append`` while enabled.  The ring is dumped
as NDJSON -- one JSON object per line, newest events last -- on:

* an unhandled exception (a :data:`sys.excepthook` chain),
* ``SIGUSR1`` (dump, then die with the signal so the run reads as killed),
* interpreter exit, when the recording was explicitly requested
  (CLI ``--flight``), and
* demand (:func:`dump_flight`, ``repro flight dump``).

The first line of every dump is a ``flight.header`` event carrying process
identity (pid, argv, Python version) plus ring statistics (capacity,
events recorded, events dropped), so a dump is self-describing even when
the ring wrapped.  Event capture is wired through a span listener
(:func:`repro.obs.tracing.add_span_listener`) and a
:class:`logging.Handler` on the ``repro`` logger hierarchy; progress and
heartbeat events are recorded directly by :mod:`repro.obs.progress`.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import signal
import sys
import threading
import time
from collections import deque
from pathlib import Path

__all__ = [
    "DEFAULT_CAPACITY",
    "FLIGHT_DIR_ENV",
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_enabled",
    "flight_recorder",
    "record",
    "dump_flight",
    "default_flight_path",
    "install_crash_hooks",
    "uninstall_crash_hooks",
    "read_flight_dump",
    "summarize_flight_dump",
]

#: Default ring capacity: enough for minutes of throttled progress ticks
#: and heartbeats while staying a few hundred kilobytes of memory.
DEFAULT_CAPACITY = 4096

#: Environment variable naming the directory crash dumps are written to
#: (the working directory when unset).
FLIGHT_DIR_ENV = "REPRO_FLIGHT_DIR"


class FlightRecorder:
    """A bounded, thread-safe ring of telemetry events.

    Events are plain dicts ``{"ts": epoch_seconds, "kind": str, ...}``.
    The ring drops the *oldest* events once ``capacity`` is reached --
    crash forensics care about the newest history -- and counts what it
    dropped so dumps can say how much is missing.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.started = time.time()
        self._events: deque[dict] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._recorded = 0

    def record(self, kind: str, **fields: object) -> None:
        """Append one event to the ring (never raises, never blocks long)."""
        event = {"ts": round(time.time(), 6), "kind": kind}
        event.update(fields)
        with self._lock:
            self._events.append(event)
            self._recorded += 1

    @property
    def recorded(self) -> int:
        """Total events recorded since creation (including dropped ones)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Events the ring has forgotten (recorded minus retained)."""
        with self._lock:
            return self._recorded - len(self._events)

    def events(self) -> list[dict]:
        """A snapshot of the retained events, oldest first."""
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        """Drop every retained event (the drop statistics survive)."""
        with self._lock:
            self._events.clear()

    def header(self, reason: str) -> dict:
        """The self-describing first line of a dump."""
        with self._lock:
            retained = len(self._events)
        return {
            "ts": round(time.time(), 6),
            "kind": "flight.header",
            "reason": reason,
            "pid": os.getpid(),
            "argv": list(sys.argv),
            "python": sys.version.split()[0],
            "capacity": self.capacity,
            "recorded": self._recorded,
            "retained": retained,
            "dropped": self._recorded - retained,
            "started": round(self.started, 6),
        }

    def dump(self, path: str | Path, reason: str = "manual") -> Path:
        """Write the ring as NDJSON to ``path``; returns the written path.

        The header line comes first, then every retained event oldest
        first, so ``tail`` on a dump shows the moments before the dump.
        Values that do not serialise to JSON fall back to ``repr``.
        """
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        lines = [json.dumps(self.header(reason), default=repr)]
        lines.extend(json.dumps(e, default=repr) for e in self.events())
        path.write_text("\n".join(lines) + "\n")
        return path


#: The active recorder; None keeps :func:`record` at one global read.
_RECORDER: FlightRecorder | None = None

#: Handler mirroring ``repro.*`` log records into the ring while enabled.
_LOG_HANDLER: logging.Handler | None = None


class _FlightLogHandler(logging.Handler):
    """Mirror structured log records into the flight ring."""

    def emit(self, record: logging.LogRecord) -> None:
        recorder = _RECORDER
        if recorder is None:
            return
        try:
            recorder.record(
                "log",
                level=record.levelname.lower(),
                logger=record.name,
                event=record.getMessage(),
            )
        except Exception:  # never let telemetry break the logged path
            pass


def _observe_span(event: str, span: object, root: bool) -> None:
    """Span listener: one ring event per span open/close."""
    recorder = _RECORDER
    if recorder is None:
        return
    trace = getattr(span, "trace_id", "")
    if event == "start":
        recorder.record(
            "span.start",
            name=span.name,
            span_id=span.span_id,
            **({"trace_id": trace} if trace else {}),
        )
    else:
        recorder.record(
            "span.end",
            name=span.name,
            span_id=span.span_id,
            seconds=round(span.duration_seconds, 6),
            **({"trace_id": trace} if trace else {}),
            **({"counters": dict(span.counters)} if span.counters else {}),
        )


def enable_flight(capacity: int = DEFAULT_CAPACITY) -> FlightRecorder:
    """Switch the flight recorder on (idempotent; re-sizing replaces the ring).

    Wires span open/close events (via a tracing span listener) and
    ``repro.*`` log records (via a logging handler) into the ring.  Crash
    and signal dumps are separate -- see :func:`install_crash_hooks`.
    """
    global _RECORDER, _LOG_HANDLER
    from . import tracing

    if _RECORDER is not None and _RECORDER.capacity == capacity:
        return _RECORDER
    recorder = FlightRecorder(capacity)
    _RECORDER = recorder
    tracing.add_span_listener(_observe_span)
    if _LOG_HANDLER is None:
        _LOG_HANDLER = _FlightLogHandler()
        logging.getLogger("repro").addHandler(_LOG_HANDLER)
    return recorder


def disable_flight() -> None:
    """Switch the recorder off and detach the span/log taps."""
    global _RECORDER, _LOG_HANDLER
    from . import tracing

    _RECORDER = None
    tracing.remove_span_listener(_observe_span)
    if _LOG_HANDLER is not None:
        logging.getLogger("repro").removeHandler(_LOG_HANDLER)
        _LOG_HANDLER = None


def flight_enabled() -> bool:
    """True when a recorder is active."""
    return _RECORDER is not None


def flight_recorder() -> FlightRecorder | None:
    """The active recorder, if any."""
    return _RECORDER


def record(kind: str, **fields: object) -> None:
    """Record one event if the recorder is on; a single global read if not.

    This is the call production code paths use -- cheap enough to stay in
    hot code unconditionally.
    """
    recorder = _RECORDER
    if recorder is not None:
        recorder.record(kind, **fields)


def default_flight_path() -> Path:
    """Where unattended dumps go: ``$REPRO_FLIGHT_DIR`` or the cwd."""
    directory = os.environ.get(FLIGHT_DIR_ENV) or "."
    return Path(directory) / f"flight-{os.getpid()}.ndjson"


def dump_flight(
    path: str | Path | None = None, reason: str = "manual"
) -> Path | None:
    """Dump the active recorder; returns the path, or None when disabled."""
    recorder = _RECORDER
    if recorder is None:
        return None
    return recorder.dump(path if path is not None else default_flight_path(), reason)


# -- crash / signal / exit hooks --------------------------------------------

#: Hook bookkeeping: (previous excepthook, signal number, previous signal
#: handler) -- None when hooks are not installed.
_HOOKS: dict | None = None


def install_crash_hooks(
    path: str | Path | None = None,
    *,
    dump_signal: int | None = getattr(signal, "SIGUSR1", None),
    exit_on_signal: bool = True,
    dump_at_exit: bool = False,
) -> None:
    """Arrange for the ring to be dumped when the process dies unexpectedly.

    Parameters
    ----------
    path:
        Dump destination; :func:`default_flight_path` when omitted
        (resolved at dump time, so the pid is the dying process's).
    dump_signal:
        Signal that triggers a dump (``SIGUSR1`` by default; None skips
        signal handling, as does a non-main thread or a platform without
        the signal).
    exit_on_signal:
        After a signal dump, restore the default handler and re-raise the
        signal so the process still dies with the expected status -- the
        black-box semantics of "kill it and keep the recording".  False
        dumps and carries on (snapshot semantics).
    dump_at_exit:
        Also dump on normal interpreter exit.  Off by default so plain
        successful runs leave no files behind; the CLI turns it on when
        ``--flight`` is passed explicitly.
    """
    global _HOOKS
    uninstall_crash_hooks()
    state: dict = {"path": path, "dumped": False}

    def _dump(reason: str) -> Path | None:
        if _RECORDER is None:
            return None
        target = state["path"] if state["path"] is not None else default_flight_path()
        try:
            written = _RECORDER.dump(target, reason)
        except OSError:
            return None
        state["dumped"] = True
        return written

    previous_excepthook = sys.excepthook

    def _excepthook(exc_type, exc, tb) -> None:
        record(
            "crash",
            exc_type=exc_type.__name__,
            exc=str(exc),
        )
        written = _dump("exception")
        if written is not None:
            print(f"flight record written to {written}", file=sys.stderr)
        previous_excepthook(exc_type, exc, tb)

    sys.excepthook = _excepthook

    previous_signal = None
    installed_signal = None
    on_main = threading.current_thread() is threading.main_thread()
    if dump_signal is not None and on_main:

        def _on_signal(signum, frame) -> None:
            record("signal", signum=signum)
            written = _dump("signal")
            if written is not None:
                print(f"flight record written to {written}", file=sys.stderr)
            if exit_on_signal:
                signal.signal(signum, signal.SIG_DFL)
                os.kill(os.getpid(), signum)

        try:
            previous_signal = signal.signal(dump_signal, _on_signal)
            installed_signal = dump_signal
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            previous_signal = None
            installed_signal = None

    def _atexit_dump() -> None:
        if _HOOKS is not state:  # hooks were replaced or removed
            return
        if dump_at_exit and not state["dumped"]:
            _dump("exit")

    atexit.register(_atexit_dump)
    state.update(
        {
            "previous_excepthook": previous_excepthook,
            "excepthook": _excepthook,
            "signal": installed_signal,
            "previous_signal": previous_signal,
            "atexit": _atexit_dump,
        }
    )
    _HOOKS = state


def uninstall_crash_hooks() -> None:
    """Undo :func:`install_crash_hooks` (tests, repeated CLI invocations)."""
    global _HOOKS
    if _HOOKS is None:
        return
    state, _HOOKS = _HOOKS, None
    if sys.excepthook is state.get("excepthook"):
        sys.excepthook = state["previous_excepthook"]
    if state.get("signal") is not None:
        try:
            signal.signal(state["signal"], state["previous_signal"] or signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    try:
        atexit.unregister(state["atexit"])
    except Exception:  # pragma: no cover - defensive
        pass


# -- dump inspection --------------------------------------------------------


def read_flight_dump(path: str | Path) -> list[dict]:
    """Parse a flight-record NDJSON file back into event dicts."""
    events: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            events.append(json.loads(line))
    return events


def summarize_flight_dump(path: str | Path, tail: int = 10) -> str:
    """Human-readable digest of a dump (the ``repro flight show`` output)."""
    events = read_flight_dump(path)
    if not events:
        return f"{path}: empty flight record"
    lines: list[str] = []
    header = events[0] if events[0].get("kind") == "flight.header" else None
    if header is not None:
        events = events[1:]
        lines.append(
            f"flight record {path}: reason={header.get('reason')} "
            f"pid={header.get('pid')} recorded={header.get('recorded')} "
            f"retained={header.get('retained')} dropped={header.get('dropped')}"
        )
    else:
        lines.append(f"flight record {path}: (no header)")
    counts: dict[str, int] = {}
    for event in events:
        kind = str(event.get("kind", "?"))
        counts[kind] = counts.get(kind, 0) + 1
    lines.append(
        "events: "
        + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    if events:
        lines.append(f"last {min(tail, len(events))} events:")
        for event in events[-tail:]:
            detail = {
                k: v for k, v in event.items() if k not in ("ts", "kind")
            }
            payload = json.dumps(detail, default=repr)
            lines.append(f"  {event.get('kind', '?')}  {payload}")
    return "\n".join(lines)
