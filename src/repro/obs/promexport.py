"""Prometheus / OpenMetrics text exposition of the metrics registry.

* :func:`render_prometheus` -- serialise a
  :class:`~repro.obs.metrics.MetricsRegistry` in the Prometheus text
  exposition format (version 0.0.4): counters as ``<name>_total``, gauges
  verbatim, histograms as cumulative ``_bucket{le="..."}`` series with
  ``_sum`` and ``_count``.  Metric names are prefixed ``repro_`` and
  sanitised (dots become underscores) so the output scrapes cleanly.
* :func:`render_openmetrics` -- the OpenMetrics 1.0 variant with trace-id
  exemplars; :func:`negotiate_exposition` picks one by ``Accept`` header.

The one HTTP endpoint serving them is :func:`repro.serve.start_server`
(``/metrics`` next to ``/healthz`` and the query API); it returns a
:class:`MetricsServer` handle.
"""

from __future__ import annotations

import math
import re
import threading
from http.server import HTTPServer
from typing import Callable

from .metrics import Histogram, MetricsRegistry, registry

__all__ = [
    "prometheus_name",
    "render_prometheus",
    "render_openmetrics",
    "negotiate_exposition",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricsServer",
]

#: Content types for the two supported exposition formats.
OPENMETRICS_CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix applied to every exported metric name.
_PREFIX = "repro_"

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, suffix: str = "") -> str:
    """Sanitise a registry metric name for Prometheus exposition.

    Dots (the registry's namespace separator) and any other invalid
    character become underscores; the ``repro_`` prefix namespaces the
    whole library.  ``prometheus_name("query.q1.seconds")`` is
    ``"repro_query_q1_seconds"``.
    """
    base = _INVALID.sub("_", name)
    if not re.match(r"[a-zA-Z_:]", base):
        base = "_" + base
    return f"{_PREFIX}{base}{suffix}"


def _format_value(value: float) -> str:
    """Prometheus-flavoured float rendering (``+Inf``/``-Inf``/``NaN``)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, int) or value == int(value):
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    """Escape a label value for the text exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_histogram(
    name: str,
    hist: Histogram,
    lines: list[str],
    *,
    exemplars: dict[int, tuple[str, float, float]] | None = None,
) -> None:
    lines.append(f"# TYPE {name} histogram")
    exemplars = exemplars or {}
    cumulative = 0
    for i, (bound, count) in enumerate(zip(hist.bounds, hist.counts)):
        cumulative += count
        line = f'{name}_bucket{{le="{_format_value(bound)}"}} {cumulative}'
        lines.append(line + _exemplar_suffix(exemplars.get(i)))
    inf_line = f'{name}_bucket{{le="+Inf"}} {hist.count}'
    lines.append(inf_line + _exemplar_suffix(exemplars.get(len(hist.bounds))))
    lines.append(f"{name}_sum {_format_value(hist.total)}")
    lines.append(f"{name}_count {hist.count}")


def _exemplar_suffix(exemplar: tuple[str, float, float] | None) -> str:
    """OpenMetrics exemplar clause for a ``_bucket`` line ("" when absent).

    Format: `` # {trace_id="<id>"} <value> <unix timestamp>`` -- the last
    sampled trace that landed in the bucket, so a Grafana heatmap cell (or
    a grep of the scrape) links straight to ``repro trace show <id>``.
    """
    if exemplar is None:
        return ""
    trace_id, value, ts = exemplar
    return (
        f' # {{trace_id="{_escape_label(trace_id)}"}}'
        f" {_format_value(value)} {ts:.3f}"
    )


def render_prometheus(reg: MetricsRegistry | None = None) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    Deterministic: metrics are emitted name-sorted within each kind
    (counters, then gauges, then infos, then histograms), so consecutive
    scrapes of an idle process are byte-identical.  Info metrics render as
    a gauge with their string in a ``value`` label, set to 1.
    """
    reg = reg if reg is not None else registry()
    lines: list[str] = []
    for raw, counter in reg.counters().items():
        name = prometheus_name(raw, "_total")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_format_value(counter.value)}")
    for raw, gauge in reg.gauges().items():
        name = prometheus_name(raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(gauge.value)}")
    for raw, info in reg.infos().items():
        if not info.value:
            continue
        name = prometheus_name(raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f'{name}{{value="{_escape_label(info.value)}"}} 1')
    for raw, hist in reg.histograms().items():
        _render_histogram(prometheus_name(raw), hist, lines)
    return "\n".join(lines) + ("\n" if lines else "")


def render_openmetrics(reg: MetricsRegistry | None = None) -> str:
    """The registry in OpenMetrics 1.0 exposition format, with exemplars.

    Differences from :func:`render_prometheus`: counter *families* are
    named without the ``_total`` suffix (only the sample carries it),
    histogram ``_bucket`` samples carry ``# {trace_id="..."}`` exemplars
    for buckets whose last sampled request was kept by a trace sink, and
    the exposition always terminates with the mandatory ``# EOF`` line.
    """
    reg = reg if reg is not None else registry()
    lines: list[str] = []
    for raw, counter in reg.counters().items():
        name = prometheus_name(raw)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name}_total {_format_value(counter.value)}")
    for raw, gauge in reg.gauges().items():
        name = prometheus_name(raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_format_value(gauge.value)}")
    for raw, info in reg.infos().items():
        if not info.value:
            continue
        name = prometheus_name(raw)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f'{name}{{value="{_escape_label(info.value)}"}} 1')
    for raw, hist in reg.histograms().items():
        _render_histogram(
            prometheus_name(raw), hist, lines, exemplars=hist.exemplars()
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def negotiate_exposition(accept: str | None) -> tuple[str, Callable[..., str]]:
    """Pick the exposition format for an ``Accept`` header value.

    Returns ``(content_type, renderer)``.  Any ``Accept`` mentioning
    ``application/openmetrics-text`` gets OpenMetrics (with exemplars and
    the ``# EOF`` terminator); everything else -- including absent or
    wildcard headers -- stays on the legacy 0.0.4 text format, matching
    how Prometheus itself falls back.
    """
    if accept and "application/openmetrics-text" in accept:
        return OPENMETRICS_CONTENT_TYPE, render_openmetrics
    return PROMETHEUS_CONTENT_TYPE, render_prometheus


class MetricsServer:
    """A running HTTP server on a daemon thread (``start_server``'s handle).

    Usable as a context manager; :meth:`close` is idempotent.
    """

    def __init__(self, server: HTTPServer, thread: threading.Thread):
        self._server = server
        self._thread = thread

    @property
    def host(self) -> str:
        """The bound host address."""
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` for an ephemeral one)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the endpoint (append ``/metrics`` or ``/healthz``)."""
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the socket."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

