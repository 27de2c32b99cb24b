"""Portfolio entry points: one query, many diversified solvers.

:func:`solve_portfolio` is the single-query API the harness and CLI
call.  It generates cubes (:mod:`repro.portfolio.cubes`), prepends the
*root cube* (the unsplit problem — index 0), and then either

* serves the cube list from a one-host cube hub
  (:class:`~repro.dist.hub.CubeHub`, attached in-process over a
  socketpair by :func:`repro.dist.run.run_hosts`) whose ``jobs``
  workers fork from the preloaded fork server (:mod:`repro.procs`)
  and share clauses live, or
* runs the **deterministic in-process mode**: the same diversified
  configurations as sequential persistent
  :class:`~repro.core.hdpll.HdpllSolver`\\ s with clause sharing
  between cube solves — bit-for-bit reproducible, used by the
  tests and as the automatic fallback when the problem cannot be
  described by a picklable :class:`ProblemSpec` or when the current
  process is itself a daemonic pool worker (which may not start
  children).

Both modes record per-cube answers in a
:class:`~repro.portfolio.ledger.CubeLedger` (the hub keeps one too),
and :func:`cube_solver_result` (shared with the distributed driver)
turns the ledger's result into the reported one.  Every SAT model —
wherever it was found — is replayed through the concrete simulator
against the base assumptions before it is reported; a replay failure
raises (a portfolio soundness bug must never pass silently as SAT).
"""

from __future__ import annotations

import math
import multiprocessing
import time
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.config import SolverConfig
from repro.core.hdpll import HdpllSolver
from repro.core.result import SolverResult, SolverStats, Status
from repro.errors import SolverError
from repro.intervals import Interval
from repro.obs import Observation
from repro.portfolio.cubes import Cube, CubeReport, generate_cubes
from repro.portfolio.diversify import worker_config
from repro.portfolio.ledger import CubeLedger, CubeOutcome, CubeResult
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
    sessions: Dict[int, Tuple[HdpllSolver, ClauseExporter, ClauseImporter]] = {}

    def get_worker(index: int):
        if index not in sessions:
            config = worker_config(base_config, index)
            session = HdpllSolver(circuit, config, persistent=True)
            session.learn()
            exporter = ClauseExporter(
                sink=lambda batch, i=index: batches.append((i, batch))
            )
            importer = ClauseImporter(session.var_by_name)
            cursor = [0]

            def receive(i=index, cursor=cursor):
                fresh = []
                while cursor[0] < len(batches):
                    origin, batch = batches[cursor[0]]
                    cursor[0] += 1
                    if origin != i:
                        fresh.append(batch)
                return fresh

            session.share = ShareChannel(
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
            note = f"timeout after {timeout:.1f}s"
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
        if result.hosts_seen > 1:
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
    elif note:
        note = f"{label} {note}"  # e.g. "portfolio timeout after 5.0s"
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
    deterministic: bool = False,
    optimize: bool = False,
    observation: Optional[Observation] = None,
    crash_cubes: Optional[Dict[int, Tuple[int, ...]]] = None,
    telemetry_dir: Optional[str] = None,
) -> SolverResult:
    """Cube-and-conquer portfolio solve of one satisfiability query.

    Give either a ``(circuit, assumptions)`` pair, a :class:`ProblemSpec`
    (required for the multi-process mode — workers rebuild the problem
    from it), or both (the pair then skips a rebuild on the master).

    ``telemetry_dir`` enables cross-process telemetry for the
    multi-process mode: every worker writes a clock-aligned shard there
    and the merged ``timeline.jsonl`` + metrics exports are produced
    before returning.  The deterministic/inline modes run in one
    process and ignore it (the ordinary ``observation`` covers them).
    ``crash_cubes`` is the workers' crash test hook (see
    :func:`repro.dist.worker.run_worker_host`).
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

    report = generate_cubes(
        circuit,
        assumptions,
        default_cube_depth(jobs),
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
        # Imported here: the cube hub builds on this package.
        from repro.dist.hub import CubeHub
        from repro.dist.run import run_hosts

        telemetry = None
        if telemetry_dir is not None:
            from repro.obs.telemetry import TelemetryHub

            telemetry = TelemetryHub(telemetry_dir)
        pool_result = run_hosts(
            CubeHub(spec, cubes, base_config, root_index=0, timeout=timeout),
            hosts=1,
            jobs=jobs,
            optimize=optimize,
            crash_cubes=crash_cubes,
            telemetry=telemetry,
        )
        if telemetry is not None:
            telemetry.merge()
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

    Runs :func:`repro.bmc.induction.induction_loop`, the depth loop of
    :func:`~repro.bmc.induction.prove_by_induction`, and returns its
    result type; ``case`` must name a registry property (``b13_1``).
    """
    from repro.bmc.induction import induction_loop

    config = base_config or SolverConfig()

    def query(kind: str, k: int, budget: Optional[float]) -> SolverResult:
        return solve_portfolio(
            spec=ProblemSpec(kind, case, k),
            jobs=jobs,
            timeout=budget,
            base_config=config,
            deterministic=deterministic,
        )

    return induction_loop(max_k, timeout, query)
