"""Portfolio entry points: one query, many diversified solvers.

:func:`solve_portfolio` is the single-query API the harness and CLI
call.  It generates cubes (:mod:`repro.portfolio.cubes`), prepends the
*root cube* (the unsplit problem — index 0), and then either

* fans the cube list out to worker processes forked from the
  preloaded fork server (:mod:`repro.portfolio.pool`,
  :mod:`repro.procs`) with live clause sharing, or
* runs the **deterministic in-process mode**: the same diversified
  configurations as sequential :class:`SolverSession`\\ s with clause
  sharing between cube solves — bit-for-bit reproducible, used by the
  tests and as the automatic fallback when the problem cannot be
  described by a picklable :class:`ProblemSpec` or when the current
  process is itself a daemonic pool worker (which may not start
  children).

Both modes record per-cube answers in a
:class:`~repro.portfolio.ledger.CubeLedger`, and
:func:`cube_solver_result` (shared with the distributed driver) turns
the ledger's result into the reported one.  Every SAT model — wherever
it was found — is replayed through the concrete simulator against the
base assumptions before it is reported; a replay failure raises (a
portfolio soundness bug must never pass silently as SAT).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import SolverConfig
from repro.core.result import SolverResult, SolverStats, Status
from repro.core.session import SolverSession
from repro.errors import SolverError
from repro.intervals import Interval
from repro.obs import Observation
from repro.portfolio.cubes import Cube, CubeReport, generate_cubes
from repro.portfolio.diversify import worker_config
from repro.portfolio.ledger import CubeLedger, CubeOutcome, CubeResult
from repro.portfolio.pool import run_pool
from repro.portfolio.share import (
    ClauseExporter,
    ClauseImporter,
    ShareChannel,
)
from repro.portfolio.worker import ProblemSpec, build_problem
from repro.rtl.circuit import Circuit
from repro.rtl.simulate import simulate_combinational

#: Per-cube solver counters summed into the aggregate stats.
_SUM_COUNTERS = (
    "decisions",
    "conflicts",
    "propagations",
    "learned_clauses",
    "restarts",
    "fme_checks",
    "fme_conflicts",
    "structural_decisions",
    "j_conflicts",
    "learned_relations",
    "propagator_wakeups",
    "clause_visits",
    "watch_moves",
    "clauses_evicted",
    "clauses_demoted",
    "literals_minimized",
    "heap_picks",
    "heap_stale_pops",
)


def default_cube_depth(jobs: int) -> int:
    """Splitting depth giving roughly ``2 * jobs`` cubes."""
    return max(1, math.ceil(math.log2(max(2, 2 * jobs))))


def replay_model(
    circuit: Circuit,
    model: Mapping[str, int],
    assumptions: Mapping[str, object],
) -> bool:
    """Re-simulate ``model``'s inputs and check the base assumptions."""
    input_values = {net.name: model[net.name] for net in circuit.inputs}
    values = simulate_combinational(circuit, input_values)
    for name, value in assumptions.items():
        interval = (
            value if isinstance(value, Interval) else Interval.point(value)
        )
        if not interval.lo <= values[name] <= interval.hi:
            return False
    return True


def _solve_inline(
    circuit: Circuit,
    assumptions: Mapping[str, object],
    cubes: List[Cube],
    jobs: int,
    base_config: SolverConfig,
    timeout: Optional[float],
    root_index: Optional[int],
) -> CubeResult:
    """Deterministic in-process portfolio (see module docstring).

    Cube order is fixed: split cubes first (round-robin over the
    diversified sessions), then the root cube on session 0, stopping as
    soon as the ledger's verdict settles.  Clauses exported by one cube
    solve are imported by every later solve on a *different* session.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None

    def remaining() -> Optional[float]:
        if deadline is None:
            return base_config.timeout
        return max(0.0, deadline - time.monotonic())

    batches: List[Tuple[int, list]] = []
    sessions: Dict[int, Tuple[SolverSession, ClauseExporter, ClauseImporter]] = {}

    def get_worker(index: int):
        if index not in sessions:
            config = worker_config(base_config, index)
            session = SolverSession(circuit, config)
            if config.predicate_learning and not session.root_conflict:
                session.learn(None)
            exporter = ClauseExporter(
                sink=lambda batch, i=index: batches.append((i, batch))
            )
            importer = ClauseImporter(session._var_by_name)
            cursor = [0]

            def receive(i=index, cursor=cursor):
                fresh = []
                while cursor[0] < len(batches):
                    origin, batch = batches[cursor[0]]
                    cursor[0] += 1
                    if origin != i:
                        fresh.append(batch)
                return fresh

            session.solver.share = ShareChannel(
                exporter, importer, receive=receive
            )
            sessions[index] = (session, exporter, importer)
        return sessions[index]

    ledger = CubeLedger(len(cubes), root_index)
    split = [i for i in range(len(cubes)) if i != root_index]
    order = [(position % jobs, index) for position, index in enumerate(split)]
    if root_index is not None:
        order.append((0, root_index))
    status: Optional[str] = None
    note = ""
    for worker_index, cube_index in order:
        budget = remaining()
        if deadline is not None and budget <= 0.0:
            note = f"portfolio timeout after {timeout:.1f}s"
            break
        session, exporter, importer = get_worker(worker_index)
        cube = cubes[cube_index]
        exporter.cube_names = cube.names()
        merged: Dict[str, object] = dict(assumptions)
        merged.update(cube.as_assumptions())
        solved = session.solve(merged, timeout=budget)
        exporter.cube_names = frozenset()
        exporter.flush()
        ledger.record(
            worker_index,
            CubeOutcome(
                index=cube_index,
                status=solved.status.value,
                model=solved.model if solved.is_sat else None,
                stats=solved.stats.as_dict(include_histograms=False),
                worker=worker_index,
            ),
            {
                "exported": exporter.exported,
                "suppressed": exporter.suppressed,
                "received": importer.received,
                "installed": importer.installed,
            },
        )
        status = ledger.verdict()
        if status is not None:
            break
    return ledger.result(status or "unknown", note)


def cube_solver_result(
    label: str,
    report: CubeReport,
    result: Optional[CubeResult],
    circuit: Circuit,
    assumptions: Mapping[str, object],
    start: float,
) -> SolverResult:
    """Turn a cube solve into the :class:`SolverResult` callers see.

    Sums the per-cube counters, derives the share rates, replays a SAT
    model through the concrete simulator against the base assumptions
    (a replay failure raises :class:`SolverError`: a soundness bug must
    never pass silently as SAT), and writes the verdict note, prefixed
    with ``label``.  ``result`` is None when cube generation itself
    settled the query (``report.status``); ``start`` is the
    ``perf_counter`` reading the solve time counts from.
    """
    stats = SolverStats()
    stats.cubes_generated = len(report.cubes) + len(report.refuted)
    stats.cubes_refuted = len(report.refuted)
    if result is None:
        stats.solve_time = time.perf_counter() - start
        return SolverResult(
            status=report.status or Status.UNKNOWN,
            stats=stats,
            note=report.note,
        )
    for outcome in result.outcomes.values():
        for name in _SUM_COUNTERS:
            setattr(
                stats,
                name,
                getattr(stats, name) + int(outcome.stats.get(name, 0)),
            )
        stats.max_decision_level = max(
            stats.max_decision_level,
            int(outcome.stats.get("max_decision_level", 0)),
        )
    stats.cubes_solved = len(result.outcomes)
    totals = result.share_totals
    stats.clauses_exported = totals.get("exported", 0)
    stats.clauses_imported = totals.get("installed", 0)
    received = totals.get("received", 0)
    stats.share_import_hit_rate = (
        stats.clauses_imported / received if received else 0.0
    )
    stats.solve_time = time.perf_counter() - start
    status = Status(result.status)
    model = None
    note = result.note
    if status is Status.SAT:
        solver = f"worker {result.winning_worker}"
        if result.winning_host is not None:
            solver += f" of host {result.winning_host}"
        model = result.model
        if model is None or not replay_model(circuit, model, assumptions):
            raise SolverError(
                f"{label} SAT model failed simulator replay "
                f"(cube {result.winning_cube}, {solver})"
            )
        note = f"{label}: cube {result.winning_cube} SAT on {solver}"
    elif status is Status.UNSAT and not note:
        root = result.outcomes.get(0)
        if root is not None and root.status == "unsat":
            note = f"{label}: root cube UNSAT"
        else:
            note = f"{label}: all {len(report.cubes)} cubes UNSAT"
    if result.requeues and note:
        note += f" ({result.requeues} cube requeues)"
    return SolverResult(status=status, model=model, stats=stats, note=note)


def solve_portfolio(
    circuit: Optional[Circuit] = None,
    assumptions: Optional[Mapping[str, object]] = None,
    *,
    spec: Optional[ProblemSpec] = None,
    jobs: int = 4,
    timeout: Optional[float] = None,
    base_config: Optional[SolverConfig] = None,
    cube_depth: Optional[int] = None,
    deterministic: bool = False,
    optimize: bool = False,
    observation: Optional[Observation] = None,
    crash_cubes: Optional[Dict[int, Tuple[int, ...]]] = None,
    telemetry_dir: Optional[str] = None,
) -> SolverResult:
    """Cube-and-conquer portfolio solve of one satisfiability query.

    Give either a ``(circuit, assumptions)`` pair, a :class:`ProblemSpec`
    (required for the multi-process pool — workers rebuild the problem
    from it), or both (the pair then skips a rebuild on the master).

    ``telemetry_dir`` enables cross-process telemetry for the
    multi-process pool: every worker writes a clock-aligned shard there
    and the merged ``timeline.jsonl`` + metrics exports are produced
    before returning.  The deterministic/inline modes run in one
    process and ignore it (the ordinary ``observation`` covers them).
    """
    base_config = base_config or SolverConfig()
    jobs = max(1, jobs)
    start = time.perf_counter()
    if circuit is None:
        if spec is None:
            raise ValueError(
                "solve_portfolio needs a circuit or a ProblemSpec"
            )
        circuit, assumptions = build_problem(spec)
    assert assumptions is not None
    tracer = observation.tracer if observation is not None else None

    optimize_before = optimize_after = 0
    if optimize:
        from repro.rtl.optimize import optimize as optimize_circuit

        optimize_before = len(circuit.nodes)
        circuit = optimize_circuit(circuit)
        optimize_after = len(circuit.nodes)

    depth = cube_depth if cube_depth is not None else default_cube_depth(jobs)
    report = generate_cubes(
        circuit,
        assumptions,
        depth,
        max_cubes=4 * jobs,
        tracer=tracer,
    )

    pool_result: Optional[CubeResult] = None  # None: generation settled
    cubes: List[Cube] = [Cube(())] + list(report.cubes)
    inline = (
        deterministic
        or jobs <= 1
        or spec is None
        or multiprocessing.current_process().daemon
    )
    if report.status is None and inline:
        pool_result = _solve_inline(
            circuit,
            assumptions,
            cubes,
            jobs=jobs,
            base_config=base_config,
            timeout=timeout,
            root_index=0,
        )
    elif report.status is None:
        hub = None
        if telemetry_dir is not None:
            from repro.obs.telemetry import TelemetryHub

            hub = TelemetryHub(telemetry_dir)
        pool_result = run_pool(
            spec,
            cubes,
            jobs=jobs,
            base_config=base_config,
            timeout=timeout,
            optimize=optimize,
            root_index=0,
            crash_cubes=crash_cubes,
            telemetry=hub,
        )
        if hub is not None:
            hub.merge()
    solved = cube_solver_result(
        "portfolio", report, pool_result, circuit, assumptions, start
    )
    if optimize:
        solved.stats.optimize_nodes_before = optimize_before
        solved.stats.optimize_nodes_after = optimize_after
    if tracer is not None and pool_result is not None:
        tracer.event(
            "share", dl=0, action="export",
            clauses=solved.stats.clauses_exported,
        )
        tracer.event(
            "share", dl=0, action="import",
            clauses=solved.stats.clauses_imported,
        )
    return solved


def prove_by_induction_portfolio(
    case: str,
    max_k: int = 10,
    jobs: int = 4,
    timeout: Optional[float] = None,
    base_config: Optional[SolverConfig] = None,
    deterministic: bool = False,
):
    """k-induction with every base/step query answered by the portfolio.

    Mirrors :func:`repro.bmc.induction.prove_by_induction`'s loop and
    result type; ``case`` must name a registry property (``b13_1``).
    """
    from repro.bmc.induction import InductionResult, InductionStatus

    config = base_config or SolverConfig()
    deadline = time.monotonic() + timeout if timeout is not None else None

    def remaining() -> Optional[float]:
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    result = InductionResult(status=InductionStatus.UNDECIDED)
    for k in range(1, max_k + 1):
        if deadline is not None and time.monotonic() > deadline:
            result.note = f"timeout before depth {k}"
            return result
        depth_entry: Dict[str, object] = {
            "k": k,
            "base_decisions": 0,
            "base_conflicts": 0,
            "step_decisions": 0,
            "step_conflicts": 0,
            "probe_cache_hit_rate": 0.0,
        }
        result.depth_stats.append(depth_entry)

        start = time.monotonic()
        base = solve_portfolio(
            spec=ProblemSpec("base", case, k),
            jobs=jobs,
            timeout=remaining(),
            base_config=config,
            deterministic=deterministic,
        )
        result.base_seconds.append(time.monotonic() - start)
        depth_entry["base_decisions"] = base.stats.decisions
        depth_entry["base_conflicts"] = base.stats.conflicts
        if base.is_sat:
            result.status = InductionStatus.VIOLATED
            result.k = k
            result.counterexample = base.model
            return result
        if base.status is Status.UNKNOWN:
            result.note = f"base case budget exhausted at depth {k}"
            return result

        start = time.monotonic()
        step = solve_portfolio(
            spec=ProblemSpec("step", case, k),
            jobs=jobs,
            timeout=remaining(),
            base_config=config,
            deterministic=deterministic,
        )
        result.step_seconds.append(time.monotonic() - start)
        depth_entry["step_decisions"] = step.stats.decisions
        depth_entry["step_conflicts"] = step.stats.conflicts
        if step.is_unsat:
            result.status = InductionStatus.PROVED
            result.k = k
            return result
        if step.status is Status.UNKNOWN:
            result.note = f"inductive step budget exhausted at depth {k}"
            return result
    result.note = f"not inductive up to k = {max_k}"
    return result
