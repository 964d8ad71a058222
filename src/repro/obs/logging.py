"""Structured JSON logging correlated with tracing spans.

The serving-path counterpart of :mod:`repro.obs.tracing`: spans measure
*how long* an operation took, log records say *what happened* while it ran.
Records are rendered as one JSON object per line (machine-parseable,
greppable, shippable to any log pipeline) and every record emitted inside
an open span carries that span's ``span`` name and ``span_id``, so a log
line can be joined back to the exact trace slice that produced it.

:func:`configure_logging` is the process-wide entry point used by the CLI
(``--log-json``), the bench harness and the example query service.

Uses the stdlib :mod:`logging` machinery underneath: third-party handlers,
level filtering, and ``logging.getLogger`` hierarchies all keep working.
"""

from __future__ import annotations

import io
import json
import logging
import sys
from typing import Any

from .context import current_trace_context
from .tracing import current_tracer

__all__ = [
    "JsonFormatter",
    "configure_logging",
    "logging_config",
    "reset_logging",
    "get_logger",
    "log_event",
]

#: Root of the library's logger hierarchy.
ROOT_LOGGER = "repro"

#: ``logging.LogRecord`` attributes that are plumbing, not payload.
_RESERVED = frozenset(
    logging.LogRecord("", 0, "", 0, "", (), None).__dict__
) | {"message", "asctime", "taskName"}


class JsonFormatter(logging.Formatter):
    """Render each record as one JSON object on one line.

    Fields: ``ts`` (epoch seconds), ``level``, ``logger``, ``event`` (the
    formatted message), plus ``span``/``span_id`` when a tracing span is
    open in the emitting context, plus ``trace_id`` when a request trace
    context is installed (:mod:`repro.obs.context`), plus every ``extra=``
    key passed by the call site.  Non-JSON-serialisable values fall back
    to ``repr``.
    """

    def format(self, record: logging.LogRecord) -> str:
        """Render one record as a single-line JSON object."""
        payload: dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "event": record.getMessage(),
        }
        tracer = current_tracer()
        current = tracer.current() if tracer is not None else None
        if current is not None:
            payload["span"] = current.name
            payload["span_id"] = current.span_id
        ctx = current_trace_context()
        if ctx is not None:
            payload["trace_id"] = ctx.trace_id
        for key, value in record.__dict__.items():
            if key not in _RESERVED and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=repr, sort_keys=False)


#: The handler installed by :func:`configure_logging`, if any.
_HANDLER: logging.Handler | None = None
#: The configuration it was installed with.
_CONFIG: dict[str, Any] | None = None


def configure_logging(
    level: str = "info",
    stream: io.TextIOBase | None = None,
) -> dict[str, Any]:
    """Install JSON logging on the ``repro`` logger hierarchy.

    Idempotent and re-entrant: calling again replaces the previously
    installed handler (never stacking duplicates) and updates the level.
    Returns the effective configuration dict -- the same value
    :func:`logging_config` reports.

    Parameters
    ----------
    level:
        A :mod:`logging` level name (``debug`` / ``info`` / ``warning`` /
        ``error``), case-insensitive.
    stream:
        Destination stream; defaults to ``sys.stderr``.
    """
    global _HANDLER, _CONFIG
    numeric = logging.getLevelName(level.upper())
    if not isinstance(numeric, int):
        known = "debug, info, warning, error, critical"
        raise ValueError(f"unknown log level {level!r}; known: {known}")
    logger = logging.getLogger(ROOT_LOGGER)
    if _HANDLER is not None:
        logger.removeHandler(_HANDLER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonFormatter())
    logger.addHandler(handler)
    logger.setLevel(numeric)
    logger.propagate = False
    _HANDLER = handler
    _CONFIG = {"level": level.lower()}
    return dict(_CONFIG)


def logging_config() -> dict[str, Any] | None:
    """The active configuration, or None when logging was never configured."""
    return dict(_CONFIG) if _CONFIG is not None else None


def reset_logging() -> None:
    """Remove the installed handler (tests, repeated CLI invocations)."""
    global _HANDLER, _CONFIG
    if _HANDLER is not None:
        logging.getLogger(ROOT_LOGGER).removeHandler(_HANDLER)
    _HANDLER = None
    _CONFIG = None


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy (``repro.<name>``)."""
    if not name:
        return logging.getLogger(ROOT_LOGGER)
    if name.startswith(ROOT_LOGGER + ".") or name == ROOT_LOGGER:
        return logging.getLogger(name)
    return logging.getLogger(f"{ROOT_LOGGER}.{name}")


def log_event(logger: logging.Logger, event: str, /, **fields: Any) -> None:
    """Emit ``event`` at INFO with ``fields`` as structured payload."""
    logger.info(event, extra=fields)
