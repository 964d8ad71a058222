"""Observability layer: tracing spans, metrics registry, profiling hooks.

The measurement substrate for the whole library (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.tracing` -- hierarchical spans with a context-manager /
  decorator API and a zero-allocation disabled path;
* :mod:`repro.obs.metrics` -- process-local counters, gauges, and
  fixed-bucket histograms (latency percentiles);
* :mod:`repro.obs.export` -- console tree, NDJSON, and Chrome
  ``trace_event`` renderings of a finished trace;
* :mod:`repro.obs.profile` -- opt-in cProfile/tracemalloc attached to spans;
* :mod:`repro.obs.logging` -- structured JSON log records correlated with
  span ids, with a process-wide configuration entry point;
* :mod:`repro.obs.promexport` -- Prometheus/OpenMetrics text exposition
  of the metrics registry (served on ``/metrics`` by :mod:`repro.serve`);
* :mod:`repro.obs.slowlog` -- bounded worst-N retention of query spans;
* :mod:`repro.obs.flight` -- always-on bounded flight recorder dumped as
  NDJSON on crash, ``SIGUSR1``, or request;
* :mod:`repro.obs.progress` -- live build progress (rate/ETA) plus a
  heartbeat thread sampling RSS/CPU into gauges and the flight recorder.

The CLI exposes all of it through global ``--trace[=FILE]``, ``--metrics``,
``--profile``, ``--log-json[=LEVEL]``, ``--slowlog[=N]``, ``--flight``,
and ``--progress[=MODE]`` flags.
"""

from .context import (
    TRACE_ID_HEADER,
    TRACEPARENT_HEADER,
    TraceContext,
    current_trace_context,
    format_span_id,
    parse_traceparent,
    trace_keep,
    use_trace_context,
)
from .export import (
    render_span_tree,
    spans_from_ndjson,
    spans_to_chrome_trace,
    spans_to_ndjson,
    write_trace,
)
from .flight import (
    FlightRecorder,
    default_flight_path,
    disable_flight,
    dump_flight,
    enable_flight,
    flight_enabled,
    flight_recorder,
    install_crash_hooks,
    read_flight_dump,
    summarize_flight_dump,
    uninstall_crash_hooks,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Info,
    MetricsRegistry,
    registry,
    reset_metrics,
)
from .logging import (
    JsonFormatter,
    configure_logging,
    get_logger,
    log_event,
    logging_config,
    reset_logging,
)
from .profile import Hotspot, ProfileReport, profiled
from .progress import (
    Heartbeat,
    ProgressTask,
    active_heartbeat,
    configure_progress,
    cpu_seconds,
    current_task,
    progress_mode,
    rss_bytes,
    start_heartbeat,
    stop_heartbeat,
    tick,
)
from .promexport import (
    OPENMETRICS_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    MetricsServer,
    negotiate_exposition,
    prometheus_name,
    render_openmetrics,
    render_prometheus,
)
from .slo import (
    SLO,
    SLOEngine,
    SLOReport,
    SLOSampler,
    SLOStatus,
    availability_slo,
    default_serving_slos,
    latency_slo,
)
from .slowlog import (
    SlowQueryLog,
    configure_slow_query_log,
    disable_slow_query_log,
    slow_query_log,
)
from .tracesink import (
    TraceSink,
    assemble_trace,
    critical_path,
    list_traces,
    load_trace,
    span_records,
)
from .tracing import (
    NULL_SPAN,
    Span,
    SpanBackedTimings,
    Tracer,
    add_span_listener,
    current_tracer,
    disable_tracing,
    enable_tracing,
    open_span_depth,
    remove_span_listener,
    span,
    traced,
    tracing_enabled,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NULL_SPAN",
    "span",
    "traced",
    "current_tracer",
    "tracing_enabled",
    "enable_tracing",
    "disable_tracing",
    "SpanBackedTimings",
    "add_span_listener",
    "remove_span_listener",
    "open_span_depth",
    # trace context + sink
    "TraceContext",
    "TRACEPARENT_HEADER",
    "TRACE_ID_HEADER",
    "current_trace_context",
    "use_trace_context",
    "parse_traceparent",
    "format_span_id",
    "trace_keep",
    "TraceSink",
    "span_records",
    "list_traces",
    "load_trace",
    "assemble_trace",
    "critical_path",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "Info",
    "MetricsRegistry",
    "DEFAULT_TIME_BUCKETS",
    "registry",
    "reset_metrics",
    # export
    "render_span_tree",
    "spans_to_ndjson",
    "spans_from_ndjson",
    "spans_to_chrome_trace",
    "write_trace",
    # profiling
    "profiled",
    "ProfileReport",
    "Hotspot",
    # logging
    "JsonFormatter",
    "configure_logging",
    "logging_config",
    "reset_logging",
    "get_logger",
    "log_event",
    # prometheus / openmetrics export
    "prometheus_name",
    "render_prometheus",
    "render_openmetrics",
    "negotiate_exposition",
    "OPENMETRICS_CONTENT_TYPE",
    "PROMETHEUS_CONTENT_TYPE",
    "MetricsServer",
    # SLOs
    "SLO",
    "SLOEngine",
    "SLOReport",
    "SLOSampler",
    "SLOStatus",
    "latency_slo",
    "availability_slo",
    "default_serving_slos",
    # slow-query log
    "SlowQueryLog",
    "slow_query_log",
    "configure_slow_query_log",
    "disable_slow_query_log",
    # flight recorder
    "FlightRecorder",
    "enable_flight",
    "disable_flight",
    "flight_enabled",
    "flight_recorder",
    "dump_flight",
    "default_flight_path",
    "install_crash_hooks",
    "uninstall_crash_hooks",
    "read_flight_dump",
    "summarize_flight_dump",
    # progress + heartbeat
    "ProgressTask",
    "configure_progress",
    "progress_mode",
    "current_task",
    "tick",
    "Heartbeat",
    "start_heartbeat",
    "stop_heartbeat",
    "active_heartbeat",
    "rss_bytes",
    "cpu_seconds",
]
