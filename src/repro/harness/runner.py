"""Instance runner: one (engine, instance) measurement.

Engines are addressed by the names used in the paper's tables plus the
extra baselines this reproduction adds:

========  ====================================================
name      solver
========  ====================================================
hdpll     HDPLL (activity decisions, hybrid learning) [9]
hdpll+p   HDPLL + predicate learning (Table 1)
hdpll+s   HDPLL + structural decisions (Table 2, "+S")
hdpll+sp  HDPLL + both (Table 2, "+S+P")
uclid     lazy-SMT comparator substitute (Table 2, UCLID)
ics       eager-CDP comparator substitute (Table 2, ICS)
bitblast  CNF translation + CDCL (the introduction's baseline)
portfolio cube-and-conquer portfolio with clause sharing (PR 5)
serve-cold  solver daemon, fresh process state per request (PR 8)
serve-warm  solver daemon, warm session reuse across requests (PR 8)
========  ====================================================

The ``bmc-*``, ``prop``, ``serve-*`` and ``dist-*`` engines are the
cells of the within-run ratio gates in
``benchmarks/perf/test_ratio_gates.py``.

``run_engine(optimize=True)`` rewrites an HDPLL engine's circuit with
:func:`repro.rtl.optimize` before compiling; the node counts around the
pass land in ``optimize_nodes_before`` / ``optimize_nodes_after``.

Any HDPLL-family engine (including ``bmc-session``/``bmc-oneshot``,
``portfolio`` and the ``prop`` drill) runs the library's default
propagation core (``SolverConfig.engine_impl``, the generated kernels);
a ``-ref`` suffix runs the reference core, the oracle, instead.  The two
cores are bit-for-bit equivalent, so the suffix only changes wall time,
never statuses or counters.

Counter fields on :class:`RunRecord` are filled from the solver's
:meth:`~repro.core.SolverStats.as_dict` snapshot — any stats metric
whose name matches a record field (modulo :data:`_STAT_FIELD_ALIASES`)
is copied, so a new solver counter only needs a record field of the
same name to surface in reports.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.baselines import (
    solve_by_bitblasting,
    solve_eager_cdp,
    solve_lazy_smt,
)
from repro.bmc.property import BmcInstance
from repro.core import (
    SolverConfig,
    SolverResult,
    SolverStats,
    Status,
    solve_circuit,
)
from repro.obs import Observation

logger = logging.getLogger(__name__)

ENGINE_NAMES = (
    "hdpll",
    "hdpll+p",
    "hdpll+s",
    "hdpll+sp",
    "uclid",
    "ics",
    "bitblast",
    #: BMC bound sweeps 1..bound (the incremental-solving comparison):
    #: one persistent session vs a fresh solver per bound.
    "bmc-session",
    "bmc-oneshot",
    #: Single-query cube-and-conquer portfolio (``jobs`` sets its width).
    "portfolio",
    #: Raw-propagation microbench (no search; see :func:`run_prop_drill`).
    "prop",
    #: Solver-daemon cells (PR 8): each request goes through a real
    #: daemon over a unix socket; ``serve-cold`` restarts the daemon per
    #: request, ``serve-warm`` reuses one warm session (see
    #: ``repro.serve.bench``).
    "serve-cold",
    "serve-warm",
    #: Distributed cube-and-conquer cells (PR 9): the query runs through
    #: a cube hub plus N worker hosts (each ``jobs`` wide), the
    #: ``repro-hdpll dist-serve``/``dist-work`` protocol on one machine,
    #: with the hosts as threads (see ``repro.dist.run``).
    "dist-1h",
    "dist-2h",
)


#: Engine-name suffix selecting the reference propagation core.
REFERENCE_SUFFIX = "-ref"


def split_engine_impl(engine: str) -> tuple:
    """``("hdpll+sp", "reference")`` for ``"hdpll+sp-ref"``.

    Names without the suffix map to the library default
    ``SolverConfig.engine_impl``.
    """
    if engine.endswith(REFERENCE_SUFFIX):
        return engine[: -len(REFERENCE_SUFFIX)], "reference"
    return engine, SolverConfig.engine_impl


@dataclass
class RunRecord:
    """One timed solver run on one instance."""

    case: str
    bound: int
    engine: str
    status: str              # "S", "U", "-to-" (timeout) or "-A-" (abort)
    seconds: float
    #: Solver-reported search seconds (excludes compile and learn).
    solve_seconds: float = 0.0
    learn_seconds: float = 0.0
    learned_relations: int = 0
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    propagator_wakeups: int = 0
    clause_visits: int = 0
    watch_moves: int = 0
    interval_cache_hit_rate: float = 0.0
    #: Incremental-session counters (bmc-session engine; zero elsewhere).
    session_solves: int = 0
    clauses_shifted: int = 0
    probe_cache_hits: int = 0
    probe_cache_misses: int = 0
    probe_cache_hit_rate: float = 0.0
    clauses_evicted: int = 0
    #: Clause-quality engine (LBD tiers + minimization, PR 9).
    clauses_demoted: int = 0
    literals_minimized: int = 0
    clause_db_core: int = 0
    clause_db_mid: int = 0
    clause_db_local: int = 0
    learned_lbd_mean: float = 0.0
    #: Decision-heap health (all HDPLL engines).
    heap_picks: int = 0
    heap_stale_pops: int = 0
    #: Portfolio counters (portfolio engine; zero elsewhere).
    cubes_generated: int = 0
    cubes_solved: int = 0
    cubes_refuted: int = 0
    clauses_exported: int = 0
    clauses_imported: int = 0
    share_import_hit_rate: float = 0.0
    #: Distributed counters (dist-Nh engines; zero elsewhere).
    dist_hosts: int = 0
    dist_requeues: int = 0
    dist_clauses_relayed: int = 0
    #: Node counts around the optional ``rtl.optimize`` pre-pass.
    optimize_nodes_before: int = 0
    optimize_nodes_after: int = 0
    #: Propagation-core throughput (all HDPLL engines).
    narrowings: int = 0
    props_per_sec: float = 0.0
    narrowings_per_sec: float = 0.0
    arith_ops: int = 0
    bool_ops: int = 0
    note: str = ""

    @property
    def timed_out(self) -> bool:
        return self.status == "-to-"


#: Stats-metric name -> RunRecord field name, where they differ.
_STAT_FIELD_ALIASES = {
    "learn_time": "learn_seconds",
    "solve_time": "solve_seconds",
}

_RECORD_FIELD_NAMES = frozenset(
    f.name for f in dataclasses.fields(RunRecord)
)


def apply_stats(record: RunRecord, stats) -> None:
    """Fill every matching counter field of ``record`` from ``stats``.

    This is the single point where solver metrics flow into run
    records; there is deliberately no field-by-field copying anywhere
    else in the harness.  ``stats`` is a :class:`SolverStats` or any
    plain stats dataclass (the baseline engines' ``SatStats``).
    """
    if isinstance(stats, SolverStats):
        snapshot = stats.as_dict(include_histograms=False)
    elif dataclasses.is_dataclass(stats):
        snapshot = dataclasses.asdict(stats)
    else:
        snapshot = vars(stats)
    for name, value in snapshot.items():
        field_name = _STAT_FIELD_ALIASES.get(name, name)
        if field_name in _RECORD_FIELD_NAMES:
            setattr(record, field_name, value)


def _status_letter(result: SolverResult) -> str:
    if result.status is Status.SAT:
        return "S"
    if result.status is Status.UNSAT:
        return "U"
    return "-to-"


#: The paper's HDPLL configurations (Tables 1 and 2).  Matched exactly,
#: so a stale or misspelt name aborts instead of running plain HDPLL.
_HDPLL_ENGINES = ("hdpll", "hdpll+p", "hdpll+s", "hdpll+sp")


def _hdpll_config(
    engine: str,
    timeout: Optional[float],
    learning_threshold: Optional[int],
    engine_impl: str = SolverConfig.engine_impl,
) -> SolverConfig:
    return SolverConfig(
        structural_decisions=engine in ("hdpll+s", "hdpll+sp"),
        predicate_learning=engine in ("hdpll+p", "hdpll+sp"),
        learning_threshold=learning_threshold,
        timeout=timeout,
        engine_impl=engine_impl,
    )


#: Probe-sweep repetitions for the raw-propagation microbench.
#: Chosen so the smallest ITC'99 unrollings still spend >100ms inside
#: the fixpoint, keeping per-run timer noise under a few percent.
PROP_DRILL_REPEATS = 10


def run_prop_drill(
    instance: BmcInstance,
    engine_impl: str = SolverConfig.engine_impl,
    repeats: int = PROP_DRILL_REPEATS,
) -> RunRecord:
    """Raw-propagation microbench: the BCP+ICP fixpoint in isolation.

    Builds the solver for ``instance`` but never searches.  One timed
    region covers the root fixpoint (assumptions asserted at level 0,
    then ``enqueue_all`` + ``propagate``) followed by ``repeats`` probe
    sweeps modelled on the BMC session's probe pass: for every variable
    left unfixed at the root, push a decision level, split its domain to
    the lower half, propagate the fanout cone to fixpoint, and backtrack
    to the root.  Every repetition redoes identical narrowing work, so
    the drill measures propagation-core throughput with zero search,
    conflict-analysis, or learning share — the denominator of the
    propagation-core ratio gate (``prop`` against ``prop-ref``).

    Status is deterministic ("U" iff the root fixpoint conflicts, else
    "S"; probe conflicts are expected and merely end that probe), so
    per-instance status parity across engine impls is meaningful and
    gated exactly like the full-solve gates.
    """
    from repro.constraints.store import DECISION, Conflict
    from repro.core.hdpll import HdpllSolver
    from repro.intervals.interval import Interval

    record = RunRecord(
        case=instance.name.rsplit("(", 1)[0],
        bound=instance.bound,
        engine="prop",
        status="-A-",
        seconds=0.0,
    )
    solver = HdpllSolver(
        instance.circuit, SolverConfig(engine_impl=engine_impl)
    )
    store, engine = solver.store, solver.engine
    narrow_bounds = store.narrow_bounds
    propagate = engine.propagate
    conflicted = False
    start = time.perf_counter()
    for name, value in instance.assumptions.items():
        interval = (
            value if isinstance(value, Interval) else Interval.point(value)
        )
        outcome = store.assume(solver.system.var_by_name(name), interval)
        if isinstance(outcome, Conflict):
            conflicted = True
            break
    if not conflicted:
        engine.enqueue_all()
        conflicted = propagate() is not None
    if not conflicted:
        # Probe targets are fixed by the root fixpoint, identical for
        # every impl; the half-split lower bound stays the current lo so
        # each probe narrows (never widens) and always fires an event.
        probes = [
            (var, store.lo[var.index],
             (store.lo[var.index] + store.hi[var.index]) // 2)
            for var in solver.system.variables
            if store.lo[var.index] < store.hi[var.index]
        ]
        for _ in range(repeats):
            for var, lo, mid in probes:
                store.push_level()
                outcome = narrow_bounds(var, lo, mid, DECISION)
                if not isinstance(outcome, Conflict):
                    propagate()
                store.backtrack_to(0)
                engine.notify_backtrack()
    seconds = time.perf_counter() - start
    record.status = "U" if conflicted else "S"
    record.seconds = seconds
    record.solve_seconds = seconds
    record.propagations = engine.propagation_count
    record.propagator_wakeups = engine.wakeup_count
    record.narrowings = store.narrowings
    record.clause_visits = engine.clause_db.clause_visits
    if seconds > 0.0:
        record.props_per_sec = engine.propagation_count / seconds
        record.narrowings_per_sec = store.narrowings / seconds
    return record


def run_engine(
    instance: BmcInstance,
    engine: str,
    timeout: Optional[float] = None,
    learning_threshold: Optional[int] = None,
    observation: Optional[Observation] = None,
    jobs: int = 1,
    optimize: bool = False,
    telemetry_dir: Optional[str] = None,
) -> RunRecord:
    """Run one engine on a BMC instance, catching aborts.

    ``observation`` (tracing / profiling) applies to the HDPLL engines
    only; baseline engines ignore it.  ``jobs`` is the portfolio width
    (``portfolio`` engine only); ``optimize`` runs the ``rtl.optimize``
    pre-pass.  ``telemetry_dir`` enables cross-process telemetry for the
    portfolio pool (other engines run in-process and ignore it).
    """
    stats = instance.circuit.stats()
    record = RunRecord(
        case=instance.name.rsplit("(", 1)[0],
        bound=instance.bound,
        engine=engine,
        status="-A-",
        seconds=0.0,
        arith_ops=stats.arith_ops,
        bool_ops=stats.bool_ops,
    )
    #: Engine-measured wall time overriding the harness stopwatch (the
    #: serve cells time only their requests, not daemon startup).
    measured_seconds: Optional[float] = None
    base_engine, engine_impl = split_engine_impl(engine)
    logger.debug("run begin: %s engine=%s", instance.name, engine)
    start = time.perf_counter()
    try:
        if base_engine == "portfolio":
            from repro.itc99 import available_cases
            from repro.portfolio import ProblemSpec, solve_portfolio

            spec = (
                ProblemSpec("instance", record.case, instance.bound)
                if record.case in available_cases()
                else None
            )
            result = solve_portfolio(
                instance.circuit,
                instance.assumptions,
                spec=spec,
                jobs=jobs,
                timeout=timeout,
                base_config=SolverConfig(
                    learning_threshold=learning_threshold,
                    engine_impl=engine_impl,
                ),
                optimize=optimize,
                observation=observation,
                telemetry_dir=telemetry_dir,
            )
            record.status = _status_letter(result)
            apply_stats(record, result.stats)
            record.note = result.note
        elif base_engine in ("dist-1h", "dist-2h"):
            from repro.dist import solve_dist
            from repro.itc99 import available_cases

            if record.case not in available_cases():
                raise ValueError(
                    "dist engines need a registry instance "
                    f"(got {record.case!r})"
                )
            hosts = int(base_engine[5])
            result = solve_dist(
                record.case,
                instance.bound,
                hosts=hosts,
                jobs=jobs,
                timeout=timeout,
                base_config=SolverConfig(
                    learning_threshold=learning_threshold,
                    engine_impl=engine_impl,
                ),
            )
            record.status = _status_letter(result)
            apply_stats(record, result.stats)
            record.note = result.note
        elif base_engine in _HDPLL_ENGINES:
            circuit = instance.circuit
            if optimize:
                from repro.rtl.optimize import optimize as optimize_circuit

                record.optimize_nodes_before = len(circuit.nodes)
                circuit = optimize_circuit(circuit)
                record.optimize_nodes_after = len(circuit.nodes)
            result = solve_circuit(
                circuit,
                instance.assumptions,
                _hdpll_config(
                    base_engine, timeout, learning_threshold, engine_impl
                ),
                observation=observation,
            )
            record.status = _status_letter(result)
            optimize_before = record.optimize_nodes_before
            optimize_after = record.optimize_nodes_after
            apply_stats(record, result.stats)
            record.optimize_nodes_before = optimize_before
            record.optimize_nodes_after = optimize_after
            record.note = result.note
        elif engine == "uclid":
            result = solve_lazy_smt(
                instance.circuit, instance.assumptions, timeout=timeout
            )
            record.status = _status_letter(result)
            apply_stats(record, result.stats)
            record.note = result.note
        elif engine == "ics":
            result = solve_eager_cdp(
                instance.circuit, instance.assumptions, timeout=timeout
            )
            record.status = _status_letter(result)
            apply_stats(record, result.stats)
            record.note = result.note
        elif base_engine in ("bmc-session", "bmc-oneshot"):
            from repro.bmc.session import (
                bmc_sweep_oneshot,
                bmc_sweep_session,
            )

            # The sweep solves bounds 1..instance.bound on the original
            # sequential circuit; ``timeout`` budgets the whole sweep.
            config = SolverConfig(
                predicate_learning=True, engine_impl=engine_impl
            )
            if base_engine == "bmc-session":
                results = bmc_sweep_session(
                    instance.sequential,
                    instance.prop,
                    instance.bound,
                    config,
                    observation=observation,
                    timeout=timeout,
                )
            else:
                results = bmc_sweep_oneshot(
                    instance.sequential,
                    instance.prop,
                    instance.bound,
                    config,
                    timeout=timeout,
                )
            complete = len(results) == instance.bound and all(
                r.status is not Status.UNKNOWN for r in results
            )
            if complete:
                record.status = _status_letter(results[-1])
                # The final query's stats carry the session-cumulative
                # counters (probe cache, clause shifting) stamped by the
                # session layer; per-query search counters are summed so
                # the record reflects the whole sweep.
                apply_stats(record, results[-1].stats)
                for name in ("decisions", "conflicts", "propagations"):
                    setattr(
                        record,
                        name,
                        sum(getattr(r.stats, name) for r in results),
                    )
                record.solve_seconds = sum(
                    r.stats.solve_time for r in results
                )
                record.note = results[-1].note
            else:
                record.status = "-to-"
                record.note = (
                    f"sweep incomplete: {len(results)}/{instance.bound} "
                    "bounds solved"
                )
        elif base_engine == "prop":
            # Raw-propagation drill; ``record`` is rebuilt wholesale so
            # the engine label keeps its impl suffix.
            drill = run_prop_drill(instance, engine_impl)
            drill.engine = engine
            drill.arith_ops = record.arith_ops
            drill.bool_ops = record.bool_ops
            record = drill
        elif base_engine in ("serve-cold", "serve-warm"):
            from repro.serve.bench import run_serve_cell

            cell = run_serve_cell(
                record.case, instance.bound, base_engine, timeout=timeout
            )
            record.status = str(cell["status"])
            record.note = str(cell["note"])
            record.solve_seconds = float(cell["solve_seconds"])
            record.session_solves = int(cell["session_solves"])
            for name, value in dict(cell["stats"]).items():
                if name in _RECORD_FIELD_NAMES:
                    setattr(record, name, value)
            measured_seconds = float(cell["seconds"])
        elif engine == "bitblast":
            satisfiable, _model, sat_result = solve_by_bitblasting(
                instance.circuit, instance.assumptions, timeout=timeout
            )
            if satisfiable is True:
                record.status = "S"
            elif satisfiable is False:
                record.status = "U"
            else:
                record.status = "-to-"
            apply_stats(record, sat_result.stats)
        else:
            raise ValueError(f"unknown engine {engine!r}")
    except Exception as error:  # aborts are data, not crashes (cf. -A-)
        record.status = "-A-"
        record.note = f"{type(error).__name__}: {error}"
        logger.warning(
            "run aborted: %s engine=%s: %s", instance.name, engine, record.note
        )
    record.seconds = (
        measured_seconds
        if measured_seconds is not None
        else time.perf_counter() - start
    )
    logger.debug(
        "run end: %s engine=%s status=%s seconds=%.3f",
        instance.name,
        engine,
        record.status,
        record.seconds,
    )
    return record
