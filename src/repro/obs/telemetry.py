"""Cross-process telemetry: per-worker shards merged into one timeline.

PR 2's tracing/metrics/profiling stack is strictly single-process;
every serious workload since (the crash-isolated task pool, the
cube-and-conquer portfolio, the engine-impl matrix) spans many worker
processes whose clocks do not share an epoch.  This module closes that
gap:

* :class:`TelemetryHub` — the parent side.  Owns a telemetry
  directory, records its ``time.perf_counter()`` **epoch** at
  construction, and mints one picklable :class:`TelemetryConfig` per
  worker process.
* :class:`WorkerTelemetry` — the child side.  Opened from a config
  inside the worker process, it performs the clock-offset handshake
  (its own ``perf_counter`` minus the parent epoch — exact on every
  platform whose ``perf_counter`` is system-wide, which includes Linux
  CLOCK_MONOTONIC, Windows QPC and macOS mach time), then provides the
  worker's trace shard, always-on flight recorder, resource-sampler
  thread, phase profiler and metrics snapshot file, and, for a harness
  task, its log file.
* :func:`merge_shards` — the merge step.  Reads every shard (tolerant
  of torn final lines from killed workers), maps each event's local
  timestamp ``t`` to the parent epoch (``gt = offset + t``), annotates
  it with its worker id ``w``, and sorts by the stable ``(gt, w,
  seq)`` key — so the merged timeline is deterministic regardless of
  shard arrival order and globally monotonic after clock alignment.
* metrics export — per-worker ``worker-<id>.metrics.json`` snapshots
  aggregated into ``metrics.json`` plus an OpenMetrics/Prometheus text
  exposition ``metrics.prom`` (per-worker labelled samples and an
  unlabelled aggregate), ready for the solver-as-a-service daemon to
  serve over HTTP.

Shard layout inside a telemetry directory::

    hub.json                    # parent epoch + run metadata
    worker-<id>.trace.jsonl     # per-worker trace shard (schema v2)
    worker-<id>.metrics.json    # per-worker metrics snapshot
    worker-<id>.flight.jsonl    # flight-recorder dump (crashes only)
    worker-<id>.log             # harness task log (``repro`` logger)
    timeline.jsonl              # merged timeline (written by merge)
    metrics.json / metrics.prom # aggregated metrics export
"""

from __future__ import annotations

import json
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.flight import DEFAULT_CAPACITY, FlightRecorder, TeeEmitter
from repro.obs.logging import LOG_FORMAT, LOGGER_NAME, resolve_level
from repro.obs.profile import (
    PROFILE_DRIFT_TOLERANCE,
    PhaseProfiler,
    merge_reports,
    profile_drift,
)
from repro.obs.resources import DEFAULT_INTERVAL, ResourceSampler
from repro.obs.trace import TRACE_SCHEMA_VERSION, TraceEmitter

#: Scalar metric value.
Scalar = Union[int, float]

_HUB_FILE = "hub.json"
_TIMELINE_FILE = "timeline.jsonl"
_METRICS_JSON = "metrics.json"
_METRICS_PROM = "metrics.prom"

_SHARD_GLOB = "worker-*.trace.jsonl"
_SHARD_RE = re.compile(r"^worker-(?P<id>.+)\.trace\.jsonl$")

_SAFE_ID = re.compile(r"[^A-Za-z0-9_.+-]+")

_logger = logging.getLogger(__name__)


def _safe_id(worker_id: str) -> str:
    return _SAFE_ID.sub("_", worker_id) or "worker"


@dataclass(frozen=True)
class TelemetryConfig:
    """Everything a worker process needs to open its telemetry shard.

    Picklable by construction (plain scalars only) — it rides to the
    worker inside the ``Process`` arguments.  ``parent_perf0`` is the parent
    epoch of the clock-offset handshake.
    """

    directory: str
    worker_id: str
    label: str = ""
    parent_perf0: float = 0.0
    #: Write the full JSONL trace shard (the flight recorder is always
    #: on regardless).
    trace: bool = True
    #: Run the resource-sampler thread.
    resources: bool = True
    sample_interval: float = DEFAULT_INTERVAL
    flight_capacity: int = DEFAULT_CAPACITY

    @property
    def shard_path(self) -> Path:
        return Path(self.directory) / f"worker-{self.worker_id}.trace.jsonl"

    @property
    def metrics_path(self) -> Path:
        return Path(self.directory) / f"worker-{self.worker_id}.metrics.json"

    @property
    def flight_path(self) -> Path:
        return Path(self.directory) / f"worker-{self.worker_id}.flight.jsonl"

    @property
    def log_path(self) -> Path:
        return Path(self.directory) / f"worker-{self.worker_id}.log"


class WorkerTelemetry:
    """Child-side telemetry: shard trace, flight ring, sampler, metrics.

    The solver-facing surface is :attr:`emitter` (a
    :class:`~repro.obs.flight.TeeEmitter` feeding the shard trace and
    the flight recorder) — hand it to the solver as its tracer.  When
    the config disables full tracing the emitter degrades to the flight
    recorder alone, keeping the instrumented path near-free.
    """

    def __init__(self, config: TelemetryConfig):
        self.config = config
        Path(config.directory).mkdir(parents=True, exist_ok=True)
        #: Clock-offset handshake: seconds between the parent epoch and
        #: this worker's shard epoch.  Added to every shard-local
        #: timestamp by the merge step.
        t0 = time.perf_counter()
        self.offset = t0 - config.parent_perf0 if config.parent_perf0 else 0.0
        self.flight = FlightRecorder(config.flight_capacity, t0=t0)
        self.tracer: Optional[TraceEmitter] = None
        if config.trace:
            self.tracer = TraceEmitter.open(config.shard_path, t0=t0)
            self.tracer.event(
                "shard_begin",
                schema=TRACE_SCHEMA_VERSION,
                worker=config.worker_id,
                pid=os.getpid(),
                offset=round(self.offset, 9),
                label=config.label,
                wall=time.time(),
            )
        self.emitter = TeeEmitter(self.tracer, self.flight)
        self.sampler: Optional[ResourceSampler] = None
        if config.resources:
            self.sampler = ResourceSampler(
                self.emitter, interval=config.sample_interval
            ).start()
        self.profiler = PhaseProfiler()
        self._metrics: Dict[str, Scalar] = {}
        #: (file handler, the logger's level before it) while
        #: :meth:`capture_log` is in effect.
        self._log: Optional[Tuple[logging.Handler, int]] = None
        #: The SIGTERM handler :meth:`install_signal_dump` replaced.
        self._sigterm = None
        self._closed = False

    def observation(self):
        """An :class:`~repro.obs.Observation` bundle wired to this
        worker's telemetry (tee emitter + phase profiler)."""
        from repro.obs import Observation  # deferred: obs/__init__ imports us

        return Observation(tracer=self.emitter, profiler=self.profiler)

    # ------------------------------------------------------------------
    # Event surface
    # ------------------------------------------------------------------
    def event(self, ev: str, dl: int = 0, **fields) -> None:
        self.emitter.event(ev, dl, **fields)

    def task_begin(self, label: str) -> None:
        self.event("task_begin", label=label)
        _logger.info("task %s: begin", label)

    def task_end(self, label: str, status: str, seconds: float) -> None:
        self.event("task_end", label=label, status=status,
                   seconds=round(seconds, 6))
        _logger.info("task %s: %s in %.3fs", label, status, seconds)

    def capture_log(self, level: str) -> None:
        """Write the ``repro`` logger's records at ``level`` and above
        to :attr:`TelemetryConfig.log_path` until :meth:`close`."""
        handler = logging.FileHandler(self.config.log_path, encoding="utf-8")
        handler.setLevel(resolve_level(level))
        handler.setFormatter(logging.Formatter(LOG_FORMAT))
        logger = logging.getLogger(LOGGER_NAME)
        self._log = (handler, logger.level)
        logger.addHandler(handler)
        if logger.getEffectiveLevel() > handler.level:
            logger.setLevel(handler.level)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def record_metrics(self, values: Dict[str, object]) -> None:
        """Accumulate scalar metrics into the worker snapshot.

        Integers add (counters), floats overwrite (gauges) — matching
        the :class:`~repro.obs.metrics.MetricsRegistry` kinds.  Non-
        scalars are ignored.
        """
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, int) and isinstance(
                self._metrics.get(name, 0), int
            ):
                self._metrics[name] = int(self._metrics.get(name, 0)) + value
            else:
                self._metrics[name] = value

    def write_metrics(self) -> Path:
        """Write the worker metrics snapshot (telemetry-own gauges
        included); called from :meth:`close` but callable earlier."""
        if self.sampler is not None:
            # Floats aggregate by max across workers — the right
            # reading for a peak (ints would sum).
            self._metrics["peak_rss_kb"] = float(self.sampler.peak_rss_kb)
            self._metrics["cpu_seconds"] = self.sampler.cpu_s
            self._metrics["resource_samples"] = self.sampler.samples
        self._metrics["trace_events"] = (
            self.tracer.events_emitted if self.tracer is not None else 0
        )
        self._metrics["flight_events"] = self.flight.recorded
        snapshot = {
            "worker": self.config.worker_id,
            "label": self.config.label,
            "metrics": dict(sorted(self._metrics.items())),
        }
        path = self.config.metrics_path
        path.write_text(
            json.dumps(snapshot, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return path

    # ------------------------------------------------------------------
    # Postmortems and shutdown
    # ------------------------------------------------------------------
    def dump_flight(self, reason: str) -> Path:
        """Dump the flight ring (see :class:`FlightRecorder.dump`)."""
        return self.flight.dump(self.config.flight_path, reason=reason)

    def install_signal_dump(self) -> None:
        """SIGTERM -> dump the flight ring, flush the shard, exit 70.

        The pool's hard-deadline enforcement sends SIGTERM first (with
        a short grace before SIGKILL) precisely so this handler gets to
        turn an opaque kill into a postmortem artifact.
        """

        def _dump(reason: str) -> None:
            self.dump_flight(reason)
            if self.tracer is not None:
                self.tracer.flush()

        self._sigterm = install_crash_dump_handler(_dump)

    def close(self) -> None:
        """Stop the sampler, seal the shard, write the metrics file,
        and put back the SIGTERM handler :meth:`install_signal_dump`
        replaced (a task run inline must not leave it in the caller)."""
        if self._closed:
            return
        self._closed = True
        if self.sampler is not None:
            self.sampler.stop()
        try:
            self.write_metrics()
        except OSError:
            pass
        if self.tracer is not None:
            self.tracer.event("shard_end",
                              events=self.tracer.events_emitted + 1)
            self.tracer.close()
        if self._log is not None:
            handler, level = self._log
            logger = logging.getLogger(LOGGER_NAME)
            logger.removeHandler(handler)
            logger.setLevel(level)
            handler.close()
        if self._sigterm is not None:
            import signal

            signal.signal(signal.SIGTERM, self._sigterm)
            self._sigterm = None

    def __enter__(self) -> "WorkerTelemetry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Exit code of a worker that died via the crash-dump signal handler
#: (distinguishable from engine exit codes in pool abort records).
CRASH_DUMP_EXIT_CODE = 70


def install_crash_dump_handler(dump, exit_code: int = CRASH_DUMP_EXIT_CODE):
    """Install a SIGTERM handler that calls ``dump(reason)`` then exits.

    ``dump`` must be async-signal-tolerant in practice: append-only ring
    snapshot plus one file write.  Installation is skipped silently off
    the main thread (``signal`` refuses there) — the pool worker entry
    point is always the main thread, so that only affects odd embeddings.

    Returns the handler it replaced, for the caller to put back once
    its task is over, or ``None`` when nothing was installed or the
    previous handler was not set from Python.
    """
    import signal

    def _handler(signum, _frame):
        try:
            dump(f"signal {signum}")
        finally:
            os._exit(exit_code)

    try:
        return signal.signal(signal.SIGTERM, _handler)
    except ValueError:
        return None


class TelemetryHub:
    """Parent-side telemetry coordinator for one multi-worker run."""

    def __init__(
        self,
        directory: Union[str, Path],
        trace: bool = True,
        resources: bool = True,
        sample_interval: float = DEFAULT_INTERVAL,
        flight_capacity: int = DEFAULT_CAPACITY,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: The parent epoch every worker offset is measured against.
        self.perf0 = time.perf_counter()
        self.wall0 = time.time()
        self.trace = trace
        self.resources = resources
        self.sample_interval = sample_interval
        self.flight_capacity = flight_capacity
        (self.directory / _HUB_FILE).write_text(
            json.dumps(
                {
                    "schema": TRACE_SCHEMA_VERSION,
                    "pid": os.getpid(),
                    "wall0": self.wall0,
                    "trace": trace,
                    "resources": resources,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )

    def worker_config(self, worker_id: str, label: str = "") -> TelemetryConfig:
        """A picklable per-worker config carrying the epoch handshake."""
        return TelemetryConfig(
            directory=str(self.directory),
            worker_id=_safe_id(worker_id),
            label=label,
            parent_perf0=self.perf0,
            trace=self.trace,
            resources=self.resources,
            sample_interval=self.sample_interval,
            flight_capacity=self.flight_capacity,
        )

    def merge(self) -> Dict[str, object]:
        """Merge shards into ``timeline.jsonl`` + metrics exports."""
        return merge_directory(self.directory)


# ----------------------------------------------------------------------
# Shard reading and the merge step
# ----------------------------------------------------------------------
def read_shard_tolerant(path: Path) -> Tuple[List[dict], int]:
    """Parse a shard, skipping torn lines (killed workers may leave a
    truncated final record).  Returns ``(events, torn_line_count)``."""
    events: List[dict] = []
    torn = 0
    try:
        # A hard-killed worker can truncate the file mid multi-byte
        # sequence; replacement characters make the torn line fail JSON
        # parsing (counted below) instead of aborting the whole merge.
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return events, torn
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            torn += 1
    return events, torn


def shard_paths(directory: Union[str, Path]) -> List[Path]:
    """Shard files of a telemetry directory, in deterministic order."""
    return sorted(Path(directory).glob(_SHARD_GLOB))


def _shard_worker_id(path: Path) -> str:
    match = _SHARD_RE.match(path.name)
    return match.group("id") if match else path.stem


def merge_shards(
    shards: Sequence[Path],
) -> Tuple[List[dict], Dict[str, object]]:
    """Merge per-worker shards into one globally ordered timeline.

    Every event is annotated with its worker id ``w`` and clock-aligned
    global timestamp ``gt`` (shard offset + local ``t``), then the
    whole set is sorted by ``(gt, w, seq)`` — a total order independent
    of shard enumeration or arrival order.  Returns the merged events
    (headed by ``timeline_begin``) and a summary dictionary (lanes,
    phase aggregates, per-worker drift check, clause flows).
    """
    merged: List[dict] = []
    lanes: List[Dict[str, object]] = []
    torn_total = 0
    profile_reports: List[Dict[str, object]] = []
    drift_errors: List[str] = []
    for shard in sorted(shards):
        events, torn = read_shard_tolerant(shard)
        torn_total += torn
        worker = _shard_worker_id(shard)
        offset = 0.0
        label = ""
        if events and events[0].get("ev") == "shard_begin":
            head = events[0]
            worker = str(head.get("worker", worker))
            offset = float(head.get("offset", 0.0))
            label = str(head.get("label", ""))
        lane: Dict[str, object] = {
            "worker": worker,
            "label": label,
            "shard": shard.name,
            "events": len(events),
            "torn_lines": torn,
            "offset": offset,
            "status": "",
            "peak_rss_kb": 0,
            "cpu_s": 0.0,
        }
        solve_reference = 0.0
        solve_ends = 0
        worker_phases: List[Dict[str, object]] = []
        for position, event in enumerate(events):
            annotated = dict(event)
            annotated["w"] = worker
            annotated["gt"] = round(offset + float(event.get("t", 0.0)), 9)
            if "seq" not in annotated:  # v1 emitters predate seq
                annotated["seq"] = position
            merged.append(annotated)
            kind = event.get("ev")
            if kind == "task_end":
                lane["status"] = event.get("status", "")
            elif kind == "solve_end":
                solve_ends += 1
                solve_reference += float(
                    event.get("solve_time", 0.0)
                ) + float(event.get("learn_time", 0.0))
                if not lane["status"]:
                    lane["status"] = str(event.get("status", ""))
            elif kind == "resource":
                rss = int(event.get("rss_kb", 0))
                if rss > int(lane["peak_rss_kb"]):
                    lane["peak_rss_kb"] = rss
                lane["cpu_s"] = float(event.get("cpu_s", lane["cpu_s"]))
            elif kind == "profile":
                report = {"phases": event.get("phases", [])}
                worker_phases.append(report)
                profile_reports.append(report)
        if events:
            lane["first_gt"] = round(offset + float(events[0].get("t", 0.0)), 9)
            lane["last_gt"] = round(offset + float(events[-1].get("t", 0.0)), 9)
        # Satellite fix: the 10% phase-sum-vs-solve-time drift gate used
        # to see only the parent process; here it runs per worker shard
        # (single-solve shards only — a session sweep interleaves many
        # solves and the one-solve accounting identity does not apply).
        if len(worker_phases) == 1 and solve_ends == 1:
            phase_sum = float(
                merge_reports(worker_phases)["top_level_total"]
            )
            drift = profile_drift(phase_sum, solve_reference)
            if drift is not None and drift > PROFILE_DRIFT_TOLERANCE:
                drift_errors.append(
                    f"worker {worker}: profiler phase sum {phase_sum:.4f}s "
                    f"deviates {drift:.0%} from solver-reported "
                    f"{solve_reference:.4f}s"
                )
        lanes.append(lane)
    merged.sort(
        key=lambda e: (e["gt"], str(e["w"]), e["seq"])
    )
    header = {
        "t": 0.0,
        "ev": "timeline_begin",
        "dl": 0,
        "seq": 0,
        "schema": TRACE_SCHEMA_VERSION,
        "workers": len(lanes),
        "events": len(merged),
        "shards": [lane["shard"] for lane in lanes],
    }
    timeline = [header] + merged
    summary: Dict[str, object] = {
        "workers": lanes,
        "events": len(merged),
        "torn_lines": torn_total,
        "phase_totals": merge_reports(profile_reports),
        "drift_errors": drift_errors,
        "clause_flows": clause_flows(merged),
        "cubes": cube_lifecycle(merged),
    }
    return timeline, summary


def write_timeline(
    events: Sequence[dict], path: Union[str, Path]
) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as sink:
        for event in events:
            sink.write(json.dumps(event, separators=(",", ":"),
                                  sort_keys=True) + "\n")
    return path


def merge_directory(directory: Union[str, Path]) -> Dict[str, object]:
    """Merge a telemetry directory in place.

    Writes ``timeline.jsonl``, ``metrics.json`` and ``metrics.prom``
    and returns the merge summary (with the timeline path added).
    """
    directory = Path(directory)
    timeline, summary = merge_shards(shard_paths(directory))
    summary["timeline"] = str(
        write_timeline(timeline, directory / _TIMELINE_FILE)
    )
    workers, aggregate = collect_metrics(directory)
    summary["metrics"] = {
        "json": str(write_metrics_json(directory, workers, aggregate)),
        "prom": str(write_metrics_prom(directory, workers, aggregate)),
    }
    summary["flight_dumps"] = [
        str(p) for p in sorted(directory.glob("worker-*.flight.jsonl"))
    ]
    return summary


# ----------------------------------------------------------------------
# Timeline analysis: clause flows and cube lifecycle
# ----------------------------------------------------------------------
def clause_flows(merged: Sequence[dict]) -> List[Dict[str, object]]:
    """Follow shared clauses from exporter to importers.

    Built from ``share`` events carrying per-clause ``keys`` digests
    (emitted by the telemetry-aware portfolio worker): one row per
    clause key that was exported, listing where it was learned and
    every worker that later installed it (with the hop latency).
    """
    exports: Dict[str, Dict[str, object]] = {}
    flows: List[Dict[str, object]] = []
    for event in merged:
        if event.get("ev") != "share" or "keys" not in event:
            continue
        action = event.get("action")
        for key in event["keys"]:
            if action == "export":
                if key not in exports:
                    exports[key] = {
                        "key": key,
                        "from": event["w"],
                        "exported_gt": event["gt"],
                        "imports": [],
                    }
                    flows.append(exports[key])
            elif action == "install":
                flow = exports.get(key)
                if flow is None:
                    # Import observed without its export (e.g. the
                    # exporter's shard was lost): synthesize a row.
                    flow = {
                        "key": key,
                        "from": None,
                        "exported_gt": None,
                        "imports": [],
                    }
                    exports[key] = flow
                    flows.append(flow)
                hop = {
                    "worker": event["w"],
                    "gt": event["gt"],
                }
                if flow["exported_gt"] is not None:
                    hop["latency"] = round(
                        event["gt"] - flow["exported_gt"], 9
                    )
                flow["imports"].append(hop)
    return flows


def cube_lifecycle(merged: Sequence[dict]) -> List[Dict[str, object]]:
    """Cube span rows from ``cube`` events on the merged timeline."""
    spans: Dict[Tuple[str, int], Dict[str, object]] = {}
    rows: List[Dict[str, object]] = []
    for event in merged:
        if event.get("ev") != "cube":
            continue
        n = int(event.get("n", -1))
        outcome = str(event.get("outcome", ""))
        key = (str(event["w"]), n)
        if outcome == "begin":
            span = {
                "cube": n,
                "worker": event["w"],
                "begin_gt": event["gt"],
                "size": event.get("size", 0),
                "outcome": "",
            }
            spans[key] = span
            rows.append(span)
        else:
            span = spans.get(key)
            if span is None or span["outcome"]:
                span = {
                    "cube": n,
                    "worker": event["w"],
                    "begin_gt": None,
                    "size": event.get("size", 0),
                    "outcome": "",
                }
                rows.append(span)
                spans[key] = span
            span["outcome"] = outcome
            span["end_gt"] = event["gt"]
            if span["begin_gt"] is not None:
                span["seconds"] = round(event["gt"] - span["begin_gt"], 9)
    return rows


# ----------------------------------------------------------------------
# Metrics export: JSON snapshot + Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _PROM_NAME.sub("_", name)
    if not sanitized or sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return "repro_" + sanitized


def collect_metrics(
    directory: Union[str, Path],
) -> Tuple[Dict[str, Dict[str, Scalar]], Dict[str, Scalar]]:
    """Read per-worker metrics snapshots and aggregate them.

    Aggregation across workers: integer metrics (counters) **sum**;
    float metrics (gauges) keep the **maximum** — the useful run-level
    reading for peaks and rates alike, and documented as such in the
    exported JSON.
    """
    workers: Dict[str, Dict[str, Scalar]] = {}
    for path in sorted(Path(directory).glob("worker-*.metrics.json")):
        try:
            snapshot = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        metrics = {
            name: value
            for name, value in snapshot.get("metrics", {}).items()
            if isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
        workers[str(snapshot.get("worker", path.stem))] = metrics
    aggregate: Dict[str, Scalar] = {}
    for metrics in workers.values():
        for name, value in metrics.items():
            if isinstance(value, int):
                current = aggregate.get(name, 0)
                aggregate[name] = (
                    int(current) + value if isinstance(current, int) else value
                )
            else:
                aggregate[name] = max(float(aggregate.get(name, 0.0)), value)
    return workers, aggregate


def write_metrics_json(
    directory: Union[str, Path],
    workers: Dict[str, Dict[str, Scalar]],
    aggregate: Dict[str, Scalar],
) -> Path:
    path = Path(directory) / _METRICS_JSON
    payload = {
        "schema": 1,
        "aggregation": "counters sum across workers; gauges keep the max",
        "workers": workers,
        "aggregate": aggregate,
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def render_prometheus(
    workers: Dict[str, Dict[str, Scalar]],
    aggregate: Dict[str, Scalar],
) -> str:
    """Prometheus/OpenMetrics text exposition of the metrics export.

    One family per metric: the unlabelled sample is the cross-worker
    aggregate, ``{worker="..."}`` samples are the per-worker values.
    """
    lines: List[str] = []
    for name in sorted(aggregate):
        family = _prom_name(name)
        kind = "counter" if isinstance(aggregate[name], int) else "gauge"
        lines.append(f"# TYPE {family} {kind}")
        lines.append(f"{family} {aggregate[name]}")
        for worker in sorted(workers):
            value = workers[worker].get(name)
            if value is None:
                continue
            lines.append(f'{family}{{worker="{worker}"}} {value}')
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_prom(
    directory: Union[str, Path],
    workers: Dict[str, Dict[str, Scalar]],
    aggregate: Dict[str, Scalar],
) -> Path:
    path = Path(directory) / _METRICS_PROM
    path.write_text(render_prometheus(workers, aggregate), encoding="utf-8")
    return path


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Minimal exposition-format parser (used by tests and CI checks).

    Returns ``{(family, labels): value}``; raises ``ValueError`` on a
    malformed line, which is exactly what the CI smoke check wants.
    """
    sample_re = re.compile(
        r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
        r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
    )
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = sample_re.match(line)
        if match is None:
            raise ValueError(f"metrics.prom line {lineno} malformed: {line!r}")
        labels: List[Tuple[str, str]] = []
        raw = match.group("labels")
        if raw:
            for part in raw.split(","):
                key, _, value = part.partition("=")
                labels.append((key.strip(), value.strip().strip('"')))
        out[(match.group("name"), tuple(labels))] = float(
            match.group("value")
        )
    return out


# ----------------------------------------------------------------------
# Live tail (``repro.harness top``)
# ----------------------------------------------------------------------
def tail_shard(path: Path, max_bytes: int = 65536) -> List[dict]:
    """Parse the last ``max_bytes`` of a shard (tolerant of the torn
    first line a mid-file seek produces)."""
    try:
        size = path.stat().st_size
        with path.open("rb") as handle:
            if size > max_bytes:
                handle.seek(size - max_bytes)
            chunk = handle.read().decode("utf-8", errors="replace")
    except OSError:
        return []
    events: List[dict] = []
    for line in chunk.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


def snapshot_status(directory: Union[str, Path]) -> List[Dict[str, object]]:
    """One status row per shard, from shard tails — the ``top`` view."""
    rows: List[Dict[str, object]] = []
    for shard in shard_paths(Path(directory)):
        events = tail_shard(shard)
        row: Dict[str, object] = {
            "worker": _shard_worker_id(shard),
            "label": "",
            "last_event": "",
            "t": 0.0,
            "rss_kb": 0,
            "cpu_s": 0.0,
            "decisions": 0,
            "conflicts": 0,
            "status": "",
        }
        for event in events:
            kind = event.get("ev")
            if kind == "shard_begin":
                row["worker"] = str(event.get("worker", row["worker"]))
                row["label"] = str(event.get("label", ""))
            elif kind == "resource":
                row["rss_kb"] = int(event.get("rss_kb", 0))
                row["cpu_s"] = float(event.get("cpu_s", 0.0))
            elif kind == "solve_end":
                row["decisions"] = int(event.get("decisions", 0))
                row["conflicts"] = int(event.get("conflicts", 0))
                row["status"] = str(event.get("status", ""))
            elif kind == "task_end":
                row["status"] = str(event.get("status", ""))
            if kind != "resource":
                row["last_event"] = str(kind)
            row["t"] = float(event.get("t", row["t"]))
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Text rendering (``repro.harness report`` / ``top``)
# ----------------------------------------------------------------------
def format_report(summary: Dict[str, object]) -> str:
    """Human-readable telemetry report: lanes, cubes, clause flows,
    resource peaks, phase aggregates and drift warnings."""
    lines: List[str] = []
    lanes: List[Dict[str, object]] = summary.get("workers", [])  # type: ignore[assignment]
    lines.append(
        f"{'worker':10s} {'label':28s} {'st':6s} {'events':>7s} "
        f"{'span (s)':>16s} {'peak rss':>10s} {'cpu (s)':>8s}"
    )
    for lane in lanes:
        first = lane.get("first_gt")
        last = lane.get("last_gt")
        span = (
            f"{first:.3f}-{last:.3f}"
            if isinstance(first, float) and isinstance(last, float)
            else "-"
        )
        lines.append(
            f"{str(lane['worker']):10s} "
            f"{str(lane.get('label', ''))[:28]:28s} "
            f"{str(lane.get('status', '') or '?'):6s} "
            f"{int(lane['events']):>7d} "
            f"{span:>16s} "
            f"{int(lane.get('peak_rss_kb', 0)):>7d}KiB "
            f"{float(lane.get('cpu_s', 0.0)):>8.2f}"
        )
    cubes: List[Dict[str, object]] = summary.get("cubes", [])  # type: ignore[assignment]
    if cubes:
        lines.append("")
        lines.append("cube lifecycle:")
        for span in cubes:
            seconds = span.get("seconds")
            duration = f"{seconds:.3f}s" if seconds is not None else "-"
            lines.append(
                f"  cube {span['cube']:>3} on {str(span['worker']):8s} "
                f"{str(span.get('outcome') or 'running'):8s} {duration}"
            )
    flows: List[Dict[str, object]] = summary.get("clause_flows", [])  # type: ignore[assignment]
    if flows:
        lines.append("")
        lines.append("clause flow (learn -> shared install):")
        for flow in flows:
            hops = ", ".join(
                f"{hop['worker']}"
                + (
                    f" (+{hop['latency'] * 1000.0:.1f}ms)"
                    if "latency" in hop
                    else ""
                )
                for hop in flow["imports"]
            )
            lines.append(
                f"  {flow['key']}: learned by "
                f"{flow['from'] if flow['from'] else '?'}"
                + (f" -> {hops}" if hops else " (never imported)")
            )
    phase_totals = summary.get("phase_totals") or {}
    phases = phase_totals.get("phases", [])  # type: ignore[union-attr]
    if phases:
        lines.append("")
        lines.append("aggregated phases (all workers):")
        for entry in phases:
            if "/" in entry["path"]:
                continue
            lines.append(
                f"  {entry['path']:12s} {entry['seconds']:>9.4f}s "
                f"(x{entry['count']})"
            )
    dumps: List[str] = summary.get("flight_dumps", [])  # type: ignore[assignment]
    if dumps:
        lines.append("")
        lines.append("flight-recorder dumps:")
        for dump in dumps:
            lines.append(f"  {dump}")
    drift: List[str] = summary.get("drift_errors", [])  # type: ignore[assignment]
    for error in drift:
        lines.append(f"drift warning: {error}")
    if summary.get("torn_lines"):
        lines.append(
            f"warning: {summary['torn_lines']} torn shard line(s) skipped"
        )
    return "\n".join(lines)


def format_top(rows: Sequence[Dict[str, object]]) -> str:
    """Render one ``top`` refresh of per-worker status rows."""
    lines = [
        f"{'worker':10s} {'label':28s} {'last event':14s} {'t (s)':>9s} "
        f"{'rss':>9s} {'cpu (s)':>8s} {'st':>5s}"
    ]
    for row in rows:
        lines.append(
            f"{str(row['worker']):10s} "
            f"{str(row.get('label', ''))[:28]:28s} "
            f"{str(row.get('last_event', '')):14s} "
            f"{float(row.get('t', 0.0)):>9.3f} "
            f"{int(row.get('rss_kb', 0)):>6d}KiB "
            f"{float(row.get('cpu_s', 0.0)):>8.2f} "
            f"{str(row.get('status', '') or '-'):>5s}"
        )
    return "\n".join(lines)
