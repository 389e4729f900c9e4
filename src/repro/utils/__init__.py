"""Shared utilities: RNG fan-out, metrics, tracing, telemetry, profiling,
tables, timers."""

from repro.utils.metrics import (
    Histogram,
    MetricsRegistry,
    Timer,
    current_metrics,
)
from repro.utils.profiler import (
    DeterministicProfiler,
    current_profiler,
)
from repro.utils.telemetry import (
    InMemoryExporter,
    JsonlExporter,
    OpenMetricsExporter,
    TelemetrySink,
    current_sink,
    parse_openmetrics,
    render_openmetrics_snapshot,
    validate_openmetrics,
)
from repro.utils.tracing import (
    Tracer,
    current_tracer,
    read_trace,
)
from repro.utils.rng import as_generator, spawn_generators, spawn_seeds
from repro.utils.tables import format_series, format_table
from repro.utils.timers import Stopwatch
from repro.utils.validation import (
    check_fraction,
    check_index,
    check_matrix,
    check_positive,
    check_vector,
)

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "current_metrics",
    "Tracer",
    "current_tracer",
    "read_trace",
    "DeterministicProfiler",
    "current_profiler",
    "TelemetrySink",
    "InMemoryExporter",
    "JsonlExporter",
    "OpenMetricsExporter",
    "current_sink",
    "parse_openmetrics",
    "render_openmetrics_snapshot",
    "validate_openmetrics",
    "as_generator",
    "spawn_generators",
    "spawn_seeds",
    "format_series",
    "format_table",
    "Stopwatch",
    "check_fraction",
    "check_index",
    "check_matrix",
    "check_positive",
    "check_vector",
]
