"""Performance benchmark harness: ``python -m repro.harness bench``.

Runs a fixed ITC99 BMC workload matrix per engine, records wall time and
the solver's hot-path counters, and emits a machine-readable report
(``BENCH_1.json`` by default).  A committed baseline report
(``benchmarks/perf/baseline_<profile>.json``) turns the harness into a
perf-regression gate: ``--check`` fails the run when the geomean wall
time of a gated engine regresses past ``--tolerance``.

Workflow::

    # refresh the committed baseline (done once per accepted perf change)
    python -m repro.harness bench --profile smoke --update-baseline

    # measure and compare (CI smoke gate)
    python -m repro.harness bench --profile smoke --check

Runs are deterministic, so each (engine, instance) cell is repeated
``--repeat`` times and the best *successful* record is kept — minimum
wall time among ``S``/``U`` repeats, the standard best-of-N discipline
for microbenchmarks, falling back to ``-to-`` and only then ``-A-``
when no repeat succeeds.  (Selecting blindly by minimum seconds would
let a 10 ms abort beat a 2 s solve and record the abort as the cell.)

Gate semantics: geomeans **exclude aborted cells** and **pin timed-out
cells to the timeout value** — an engine that starts failing fast gets
*worse*, never better.  ``compare_to_baseline`` fails loudly when a
gated engine is missing from either report or when a gated cell's
status differs from the baseline's.

``jobs > 1`` runs the matrix on the crash-isolated worker pool
(:mod:`repro.harness.parallel`); parallelism is capped at the core
count so wall-clock cells measure the solver, not scheduler contention.
"""

from __future__ import annotations

import json
import logging
import math
import platform
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import (
    EngineTask,
    effective_bench_jobs,
    run_engine_tasks,
)
from repro.harness.runner import RunRecord

logger = logging.getLogger(__name__)

#: Report schema version (bump when the JSON layout changes).
#: 2: geomeans exclude aborts and pin timeouts to the timeout value;
#: failed cells (``-to-``/``-A-``) carry no counters (their values
#: depend on wall-clock progress, not the workload).
SCHEMA_VERSION = 2

#: Counter fields copied from a :class:`RunRecord` into the report.
COUNTER_FIELDS = (
    "decisions",
    "conflicts",
    "propagations",
    "propagator_wakeups",
    "clause_visits",
    "watch_moves",
    "interval_cache_hit_rate",
    "session_solves",
    "clauses_shifted",
    "probe_cache_hits",
    "probe_cache_misses",
    "probe_cache_hit_rate",
    "clauses_evicted",
    "clauses_demoted",
    "literals_minimized",
    "clause_db_core",
    "clause_db_mid",
    "clause_db_local",
    "learned_lbd_mean",
    "heap_picks",
    "heap_stale_pops",
    "cubes_generated",
    "cubes_solved",
    "cubes_refuted",
    "clauses_exported",
    "clauses_imported",
    "share_import_hit_rate",
    "dist_requeues",
    "dist_clauses_relayed",
    "optimize_nodes_before",
    "optimize_nodes_after",
    # Throughput *rates* (props_per_sec, narrowings_per_sec) stay out:
    # report counters must be deterministic so parallel and sequential
    # runs produce identical reports; rates are derived at format time
    # from (propagations, wall_time).
    "narrowings",
)

#: Workload matrices.  ``smoke`` is the CI gate (seconds-scale); ``full``
#: is the Table 2 style sweep for local investigation.
PROFILES: Dict[str, Dict[str, object]] = {
    "smoke": {
        "instances": (
            ("b01_1", 20),
            ("b02_1", 20),
            ("b04_1", 20),
            ("b13_5", 20),
            ("b13_1", 20),
        ),
        "engines": ("hdpll", "hdpll+sp", "hdpll+sp-ref"),
        #: Engines whose geomean is gated against the baseline.
        "gated": ("hdpll+sp",),
        #: The smoke cells are seconds-scale, so the kernels are held to
        #: a *no-regression* bound against the reference core with
        #: status parity: the two ~10ms cells sit near parity and pin
        #: the geomean, while the b13 cells run 1.5-2x.  The actual
        #: speedup bar lives in the prop (>= 2x) profile.
        "speedup_gates": (
            {"fast": "hdpll+sp", "slow": "hdpll+sp-ref", "min_ratio": 0.9},
        ),
    },
    "full": {
        "instances": (
            ("b01_1", 50),
            ("b02_1", 50),
            ("b04_1", 50),
            ("b13_1", 50),
            ("b13_2", 50),
            ("b13_3", 50),
            ("b13_5", 50),
            ("b13_8", 50),
        ),
        "engines": ("hdpll", "hdpll+s", "hdpll+sp"),
        "gated": ("hdpll+sp",),
    },
    #: Incremental-solving comparison: each cell sweeps bounds
    #: 1..bound; ``bmc-session`` reuses one persistent solver and
    #: ``bmc-oneshot`` restarts per bound.  Besides the baseline gate on
    #: the session engine, a *speedup gate* requires the session sweep's
    #: geomean to beat the one-shot sweep's by ``min_ratio``.
    "bmc": {
        "instances": (
            ("b01_1", 15),
            ("b02_1", 15),
            ("b06_1", 10),
            ("b13_1", 15),
        ),
        "engines": ("bmc-oneshot", "bmc-session", "bmc-session-ref"),
        "gated": ("bmc-session",),
        "speedup_gates": (
            {"fast": "bmc-session", "slow": "bmc-oneshot", "min_ratio": 2.0},
            #: Sweeps spend most of their time in per-frame extension
            #: machinery (unroll, levelize, predicate extraction) and
            #: these cells are tens of milliseconds, so the kernels are
            #: held to a no-regression bound against the reference core
            #: with status parity; the actual speedup bar lives in the
            #: prop profile.
            {
                "fast": "bmc-session",
                "slow": "bmc-session-ref",
                "min_ratio": 0.85,
            },
        ),
    },
    #: Single-query parallelism: the cube-and-conquer portfolio against
    #: the sequential paper configuration (and its ``rtl.optimize``
    #: variant) on deep unrollings where one strategy stalls.  The
    #: portfolio cells spawn their *own* worker processes, so the bench
    #: pool runs this profile inline (``single_query_jobs``) and ``-j``
    #: sets the portfolio width instead of the matrix parallelism; the
    #: speedup gate is the issue's acceptance bar: >= 1.5x geomean at
    #: ``-j 4`` with per-instance status parity.
    #: Raw-propagation microbench (see ``runner.run_prop_drill``): the
    #: BCP+ICP fixpoint in isolation — root propagation plus repeated
    #: half-split probe sweeps, zero search/learning share.  One row per
    #: propagation core; the speedup gate is the kernels' acceptance
    #: bar: they must hold a >= 2x geomean over the reference core with
    #: per-instance status parity.
    "prop": {
        "instances": (
            ("b01_1", 50),
            ("b04_1", 30),
            ("b13_3", 20),
            ("b13_8", 20),
        ),
        "engines": ("prop", "prop-ref"),
        "gated": ("prop",),
        "speedup_gates": (
            {"fast": "prop", "slow": "prop-ref", "min_ratio": 2.0},
        ),
    },
    "portfolio": {
        "instances": (
            ("b01_1", 50),
            ("b04_1", 150),
            ("b13_3", 100),
            ("b13_5", 150),
            ("b13_8", 100),
        ),
        "engines": ("hdpll+sp", "hdpll+sp-opt", "portfolio"),
        "gated": ("portfolio",),
        "speedup_gates": (
            {"fast": "portfolio", "slow": "hdpll+sp", "min_ratio": 1.5},
        ),
        "single_query_jobs": True,
    },
    #: Solver-daemon serving cells (PR 8): every cell drives a *real*
    #: daemon over a unix socket through the wire protocol.  A
    #: ``serve-cold`` cell restarts the daemon per request, paying the
    #: full unroll + compile + predicate warm-up each time; a
    #: ``serve-warm`` cell reuses one warm session, paying only the
    #: solve.  The speedup gate is the issue's acceptance bar: warm must
    #: hold a >= 2x geomean over cold with per-instance status parity.
    #: Cells run their own asyncio loop and executor threads, so the
    #: profile runs inline (``single_query_jobs``) like the portfolio.
    "serve": {
        "instances": (
            ("b01_1", 15),
            ("b04_1", 15),
            ("b13_1", 10),
            ("b13_5", 15),
        ),
        "engines": ("serve-cold", "serve-warm"),
        "gated": ("serve-warm",),
        "speedup_gates": (
            {"fast": "serve-warm", "slow": "serve-cold", "min_ratio": 2.0},
        ),
        "single_query_jobs": True,
    },
    #: Distributed cube-and-conquer cells (PR 9): every cell runs the
    #: query through a real cube hub over a UNIX socket.  ``dist-1h``
    #: is one worker host, ``dist-2h`` is two (same wire path, so the
    #: ratio isolates what the second host buys); ``-j`` sets the
    #: per-host width.  On a single machine the second host's win comes
    #: from the wider global diversification spread (hosts receive
    #: disjoint worker-index ranges) plus cube-level work stealing, not
    #: raw parallelism — the gate instances are the ones where the
    #: portfolio profile showed diversification carrying the solve.
    #: Cells spawn their own host/worker processes, so the profile runs
    #: inline (``single_query_jobs``) like the portfolio and serve ones.
    "dist": {
        "instances": (
            ("b01_1", 50),
            ("b04_1", 150),
            ("b04_1", 200),
            ("b13_5", 150),
        ),
        "engines": ("dist-1h", "dist-2h"),
        "gated": ("dist-2h",),
        "speedup_gates": (
            {"fast": "dist-2h", "slow": "dist-1h", "min_ratio": 1.3},
        ),
        "single_query_jobs": True,
    },
}

#: Floor applied to per-run wall times before geomean aggregation so a
#: near-zero cell cannot dominate the ratio.
_GEOMEAN_FLOOR = 1e-3


@dataclass
class BenchCell:
    """One measured (engine, instance) cell."""

    case: str
    bound: int
    engine: str
    status: str
    wall_time: float
    counters: Dict[str, float] = field(default_factory=dict)


def _record_counters(record: RunRecord) -> Dict[str, float]:
    # A timed-out cell's counters measure how much work fit into the
    # wall-clock budget — machine noise, not the workload — and would
    # make otherwise-identical reports differ run to run.
    if record.status not in ("S", "U"):
        return {}
    counters: Dict[str, float] = {}
    for name in COUNTER_FIELDS:
        counters[name] = getattr(record, name, 0) or 0
    return counters


#: Best-of-repeat preference: successful statuses beat timeouts beat
#: aborts; wall time only breaks ties within a rank.
_STATUS_RANK = {"S": 0, "U": 0, "-to-": 1, "-A-": 2}


def select_best(records: Sequence[RunRecord]) -> RunRecord:
    """The cell record among ``repeat`` runs of one (engine, instance).

    Prefers successful (``S``/``U``) records and falls back to ``-to-``
    and then ``-A-`` only when no repeat did better; the fastest record
    *within* the best status rank wins.
    """
    assert records
    return min(
        records,
        key=lambda r: (_STATUS_RANK.get(r.status, 3), r.seconds),
    )


def run_profile(
    profile: str,
    timeout: float = 60.0,
    repeat: int = 2,
    jobs: int = 1,
    telemetry_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Run one profile's matrix; returns the report dictionary.

    ``telemetry_dir`` runs the matrix under a
    :class:`~repro.obs.telemetry.TelemetryHub`: every task gets a
    clock-aligned trace/metrics shard and a log, the merged ``timeline.jsonl``
    and metrics exports are written there, and the report grows a
    ``telemetry`` section with cross-worker phase aggregates and the
    per-worker profiler drift check.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown bench profile {profile!r}")
    spec = PROFILES[profile]
    instances: Sequence[Tuple[str, int]] = spec["instances"]  # type: ignore
    engines: Sequence[str] = spec["engines"]  # type: ignore
    repeat = max(1, repeat)
    # Single-query-parallel profiles hand ``jobs`` to the engine (the
    # portfolio spawns its own diversified workers) and run the matrix
    # inline — nesting the portfolio inside bench pool workers would
    # fail (daemonic processes cannot spawn) and oversubscribe cores.
    single_query = bool(spec.get("single_query_jobs", False))
    engine_jobs = max(1, jobs) if single_query else 1
    pool_jobs = 1 if single_query else effective_bench_jobs(jobs)
    matrix = [
        (case, bound, engine)
        for case, bound in instances
        for engine in engines
    ]
    specs = [
        EngineTask(
            case=case,
            bound=bound,
            engine=engine,
            timeout=timeout,
            jobs=(
                engine_jobs
                if engine == "portfolio" or engine.startswith("dist-")
                else 1
            ),
        )
        for case, bound, engine in matrix
        for _ in range(repeat)
    ]
    hub = None
    if telemetry_dir is not None:
        from repro.obs.telemetry import TelemetryHub

        hub = TelemetryHub(telemetry_dir)
    records = run_engine_tasks(specs, jobs=pool_jobs, telemetry=hub)
    telemetry_summary: Optional[Dict[str, object]] = None
    if hub is not None:
        merged = hub.merge()
        phase_totals = merged.get("phase_totals") or {}
        telemetry_summary = {
            "directory": str(hub.directory),
            "timeline": merged.get("timeline"),
            "metrics": merged.get("metrics"),
            "workers": len(merged.get("workers", [])),
            "events": merged.get("events", 0),
            "phase_totals": phase_totals,
            "drift_errors": merged.get("drift_errors", []),
            "flight_dumps": merged.get("flight_dumps", []),
        }
        for error in merged.get("drift_errors", []):  # type: ignore[union-attr]
            logger.warning("profiler drift: %s", error)
    cells: List[BenchCell] = []
    for slot, (case, bound, engine) in enumerate(matrix):
        best = select_best(records[slot * repeat:(slot + 1) * repeat])
        logger.info(
            "bench cell: %s(%d) %s %s %.3fs",
            case,
            bound,
            engine,
            best.status,
            best.seconds,
        )
        cells.append(
            BenchCell(
                case=case,
                bound=bound,
                engine=engine,
                status=best.status,
                wall_time=best.seconds,
                counters=_record_counters(best),
            )
        )
    report: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "timeout": timeout,
        "repeat": repeat,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "runs": [asdict(cell) for cell in cells],
        "geomean": {
            engine: geomean_wall_time(cells, engine, timeout=timeout)
            for engine in engines
        },
        "gated_engines": list(spec["gated"]),  # type: ignore[arg-type]
        # Parallel pool runs stay byte-identical to sequential ones, so
        # ordinary profiles never record a width; single-query profiles
        # do — there ``jobs`` is the portfolio width and part of the
        # measurement's identity (a -j 2 run is not comparable to the
        # -j 4 baseline).
        **({"jobs": engine_jobs} if single_query else {}),
        "speedup_gates": [
            dict(gate) for gate in spec.get("speedup_gates", ())  # type: ignore[attr-defined]
        ],
        **(
            {"telemetry": telemetry_summary}
            if telemetry_summary is not None
            else {}
        ),
    }
    logger.info(
        "bench profile %s: %d cells, geomean %s",
        profile,
        len(cells),
        {
            e: (round(g, 3) if g is not None else None)
            for e, g in report["geomean"].items()  # type: ignore
        },
    )
    return report


def geomean_wall_time(
    cells: Sequence[BenchCell],
    engine: str,
    timeout: Optional[float] = None,
) -> Optional[float]:
    """Geometric mean wall time of one engine across the matrix.

    Aborted cells (``-A-``) are excluded — an engine that crashes fast
    must not *improve* its geomean — and timed-out cells are pinned to
    the ``timeout`` value rather than their raw wall time.  Returns
    ``None`` when the engine has no scorable (non-abort) cell, so a
    fully-failing engine can never produce a passable number.
    """
    times: List[float] = []
    for cell in cells:
        if cell.engine != engine:
            continue
        if cell.status == "-A-":
            continue
        wall = cell.wall_time
        if cell.status == "-to-" and timeout is not None:
            wall = timeout
        times.append(max(wall, _GEOMEAN_FLOOR))
    if not times:
        return None
    return math.exp(sum(math.log(t) for t in times) / len(times))


# ----------------------------------------------------------------------
# Baseline comparison
# ----------------------------------------------------------------------
@dataclass
class GateResult:
    """Baseline comparison for one gated engine."""

    engine: str
    baseline: Optional[float]
    current: Optional[float]
    #: current/baseline; < 1 is a speedup.  ``None`` when either side
    #: is missing.
    ratio: Optional[float]
    passed: bool
    #: Why the gate failed, when it failed for a structural reason
    #: (missing engine, status drift) rather than a slow geomean.
    reason: str = ""


def _cell_statuses(
    report: Dict[str, object], engine: str
) -> Dict[Tuple[str, int], str]:
    statuses: Dict[Tuple[str, int], str] = {}
    for run in report.get("runs", []):  # type: ignore[union-attr]
        if run["engine"] == engine:
            statuses[(run["case"], run["bound"])] = run["status"]
    return statuses


def compare_to_baseline(
    report: Dict[str, object],
    baseline: Dict[str, object],
    tolerance: float = 0.25,
) -> List[GateResult]:
    """Gate the report's geomeans against a baseline report.

    ``tolerance`` is the allowed fractional slowdown: 0.25 passes any
    run up to 25% slower than baseline (absorbing machine noise) and
    fails anything beyond it.

    Every gated engine yields a :class:`GateResult` — a gated engine
    missing from either report's geomeans is a *failure*, not a skip
    (a renamed or dropped engine must not pass the gate vacuously).
    A gated cell whose status differs from the baseline's also fails:
    a wall-time ratio between runs that did not reach the same answer
    is meaningless.
    """
    results: List[GateResult] = []
    current_geo: Dict[str, Optional[float]] = report["geomean"]  # type: ignore
    baseline_geo: Dict[str, Optional[float]] = baseline.get("geomean", {})  # type: ignore
    for engine in report.get("gated_engines", []):  # type: ignore[union-attr]
        base = baseline_geo.get(engine)
        cur = current_geo.get(engine)
        problems: List[str] = []
        if engine not in baseline_geo:
            problems.append("engine missing from baseline geomeans")
        elif base is None:
            problems.append("baseline has no scorable cells (all aborted)")
        elif base <= 0:
            problems.append(f"non-positive baseline geomean {base!r}")
        if engine not in current_geo:
            problems.append("engine missing from current geomeans")
        elif cur is None:
            problems.append("current run has no scorable cells (all aborted)")

        base_statuses = _cell_statuses(baseline, engine)
        cur_statuses = _cell_statuses(report, engine)
        for key in sorted(set(base_statuses) | set(cur_statuses)):
            before = base_statuses.get(key)
            after = cur_statuses.get(key)
            if before != after:
                case, bound = key
                problems.append(
                    f"status drift at {case}({bound}): "
                    f"baseline {before or 'absent'} vs current "
                    f"{after or 'absent'}"
                )

        if problems:
            results.append(
                GateResult(
                    engine=engine,
                    baseline=base,
                    current=cur,
                    ratio=None,
                    passed=False,
                    reason="; ".join(problems),
                )
            )
            logger.error("bench gate [%s]: %s", engine, "; ".join(problems))
            continue
        assert base is not None and cur is not None
        ratio = cur / base
        results.append(
            GateResult(
                engine=engine,
                baseline=base,
                current=cur,
                ratio=ratio,
                passed=ratio <= 1.0 + tolerance,
            )
        )
    return results


@dataclass
class SpeedupGateResult:
    """In-report comparison of a fast engine against a slow one."""

    fast: str
    slow: str
    fast_geomean: Optional[float]
    slow_geomean: Optional[float]
    #: slow/fast; >= min_ratio passes.  ``None`` when either side is
    #: missing or unscorable.
    ratio: Optional[float]
    min_ratio: float
    passed: bool
    reason: str = ""


def evaluate_speedup_gates(
    report: Dict[str, object]
) -> List[SpeedupGateResult]:
    """Check the report's fast-vs-slow speedup requirements.

    Unlike the baseline gate (this run vs a committed past run), a
    speedup gate compares two engines *within* the report — the bmc
    profile uses it to require the incremental session sweep to stay a
    ``min_ratio`` geomean factor ahead of the one-shot sweep.  A fast
    cell whose status differs from the slow engine's on the same
    instance fails the gate (a speedup between different answers is
    meaningless).
    """
    results: List[SpeedupGateResult] = []
    geomeans: Dict[str, Optional[float]] = report.get("geomean", {})  # type: ignore[assignment]
    for gate in report.get("speedup_gates", []):  # type: ignore[union-attr]
        fast = gate["fast"]
        slow = gate["slow"]
        min_ratio = float(gate.get("min_ratio", 1.0))
        fast_geo = geomeans.get(fast)
        slow_geo = geomeans.get(slow)
        problems: List[str] = []
        if fast_geo is None:
            problems.append(f"engine {fast!r} has no scorable geomean")
        if slow_geo is None:
            problems.append(f"engine {slow!r} has no scorable geomean")
        fast_statuses = _cell_statuses(report, fast)
        slow_statuses = _cell_statuses(report, slow)
        for key in sorted(set(fast_statuses) | set(slow_statuses)):
            a = fast_statuses.get(key)
            b = slow_statuses.get(key)
            if a != b:
                case, bound = key
                problems.append(
                    f"status mismatch at {case}({bound}): "
                    f"{fast} {a or 'absent'} vs {slow} {b or 'absent'}"
                )
        if problems:
            results.append(
                SpeedupGateResult(
                    fast=fast,
                    slow=slow,
                    fast_geomean=fast_geo,
                    slow_geomean=slow_geo,
                    ratio=None,
                    min_ratio=min_ratio,
                    passed=False,
                    reason="; ".join(problems),
                )
            )
            logger.error(
                "speedup gate [%s vs %s]: %s", fast, slow, "; ".join(problems)
            )
            continue
        assert fast_geo is not None and slow_geo is not None
        ratio = slow_geo / max(fast_geo, _GEOMEAN_FLOOR)
        results.append(
            SpeedupGateResult(
                fast=fast,
                slow=slow,
                fast_geomean=fast_geo,
                slow_geomean=slow_geo,
                ratio=ratio,
                min_ratio=min_ratio,
                passed=ratio >= min_ratio,
            )
        )
    return results


def format_speedup_gates(gates: Sequence[SpeedupGateResult]) -> str:
    lines = []
    for gate in gates:
        if gate.ratio is None:
            lines.append(
                f"speedup[{gate.fast} vs {gate.slow}]: FAILED — {gate.reason}"
            )
            continue
        verdict = "ok" if gate.passed else "TOO SLOW"
        lines.append(
            f"speedup[{gate.fast} vs {gate.slow}]: "
            f"{gate.slow_geomean:.3f}s / {gate.fast_geomean:.3f}s = "
            f"{gate.ratio:.2f}x (required >= {gate.min_ratio:.1f}x) {verdict}"
        )
    return "\n".join(lines)


def default_baseline_path(profile: str) -> Path:
    return Path("benchmarks") / "perf" / f"baseline_{profile}.json"


def load_report(path: Path) -> Optional[Dict[str, object]]:
    if not path.exists():
        return None
    with path.open("r", encoding="utf-8") as handle:
        return json.load(handle)


def write_report(report: Dict[str, object], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def format_report(report: Dict[str, object]) -> str:
    lines = [
        f"{'instance':14s} {'engine':10s} {'st':4s} {'secs':>8s} "
        f"{'props':>9s} {'props/s':>9s} {'wakeups':>9s} {'visits':>9s} "
        f"{'moves':>8s}"
    ]
    for run in report["runs"]:  # type: ignore[union-attr]
        counters = run["counters"]
        # Derived at format time so the stored report stays
        # deterministic across execution modes (see COUNTER_FIELDS).
        props = int(counters.get("propagations", 0))
        wall = run["wall_time"]
        rate = f"{props / wall:>9,.0f}" if props and wall else f"{'-':>9s}"
        lines.append(
            f"{run['case'] + '(' + str(run['bound']) + ')':14s} "
            f"{run['engine']:10s} "
            f"{run['status']:4s} "
            f"{run['wall_time']:>8.3f} "
            f"{props:>9d} "
            f"{rate} "
            f"{int(counters.get('propagator_wakeups', 0)):>9d} "
            f"{int(counters.get('clause_visits', 0)):>9d} "
            f"{int(counters.get('watch_moves', 0)):>8d}"
        )
    lines.append("")
    for engine, value in report["geomean"].items():  # type: ignore[union-attr]
        if value is None:
            lines.append(f"geomean[{engine}] = n/a (no scorable cells)")
        else:
            lines.append(f"geomean[{engine}] = {value:.3f}s")
    return "\n".join(lines)


def format_gates(gates: Sequence[GateResult], tolerance: float) -> str:
    if not gates:
        return "no baseline comparison (baseline missing or not gated)"
    lines = []
    for gate in gates:
        if gate.ratio is None:
            lines.append(f"gate[{gate.engine}]: FAILED — {gate.reason}")
            continue
        assert gate.baseline is not None and gate.current is not None
        speedup = gate.baseline / gate.current if gate.current else float("inf")
        verdict = "ok" if gate.passed else "REGRESSION"
        lines.append(
            f"gate[{gate.engine}]: baseline {gate.baseline:.3f}s -> "
            f"current {gate.current:.3f}s  (speedup {speedup:.2f}x, "
            f"tolerance +{tolerance:.0%}) {verdict}"
        )
    return "\n".join(lines)
