"""Observability layer: tracing, metrics, profiling and telemetry.

The solver core accepts an optional :class:`Observation` bundle; each of
its members is independently optional, and a solver constructed without
one runs the uninstrumented fast path (the guards are single ``is
None`` tests; the stats-identity tests and the end-to-end benchmark's
``compare`` check it).

* :mod:`repro.obs.trace` — structured JSONL trace emitter + replay.
* :mod:`repro.obs.metrics` — the counter/gauge/histogram registry that
  backs :class:`repro.core.result.SolverStats`.
* :mod:`repro.obs.profile` — hierarchical wall-time phase profiler.
* :mod:`repro.obs.logging` — ``repro`` logger wiring for the CLI.
* :mod:`repro.obs.flight` — always-on bounded ring of recent events.
* :mod:`repro.obs.resources` — per-worker RSS/CPU gauge sampler.
* :mod:`repro.obs.telemetry` — cross-process hub: per-worker shards,
  clock-offset handshake, merged timelines, metrics export.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, TeeEmitter
from repro.obs.logging import configure_logging, effective_level_spec
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import (
    PROFILE_DRIFT_TOLERANCE,
    PhaseProfiler,
    merge_reports,
    profile_drift,
)
from repro.obs.resources import ResourceSampler
from repro.obs.trace import (
    COMPATIBLE_SCHEMA_VERSIONS,
    TRACE_SCHEMA_VERSION,
    TraceEmitter,
    narrate,
    parse_trace,
    read_trace,
    validate_timeline,
    validate_trace,
)


@dataclass
class Observation:
    """Optional instrumentation handed to a solver."""

    tracer: Optional[TraceEmitter] = None
    profiler: Optional[PhaseProfiler] = None


from repro.obs.telemetry import (  # noqa: E402  (needs Observation above)
    TelemetryConfig,
    TelemetryHub,
    WorkerTelemetry,
)

__all__ = [
    "COMPATIBLE_SCHEMA_VERSIONS",
    "Counter",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observation",
    "PROFILE_DRIFT_TOLERANCE",
    "PhaseProfiler",
    "ResourceSampler",
    "TRACE_SCHEMA_VERSION",
    "TeeEmitter",
    "TelemetryConfig",
    "TelemetryHub",
    "TraceEmitter",
    "WorkerTelemetry",
    "configure_logging",
    "effective_level_spec",
    "merge_reports",
    "narrate",
    "parse_trace",
    "profile_drift",
    "read_trace",
    "validate_timeline",
    "validate_trace",
]
