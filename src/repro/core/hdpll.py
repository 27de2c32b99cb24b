"""HDPLL: the hybrid DPLL solver of Algorithm 1.

The loop interleaves decisions on Boolean variables with hybrid deduction
(``Ddeduce``: Boolean + interval constraint propagation to bounds
consistency).  Conflicts are analysed on the hybrid implication graph and
learned as clauses with non-chronological backtracking.  When every
decision variable is assigned and the box is bounds-consistent, the
integer-linear leaf check (:mod:`repro.core.fme_leaf`) certifies or
refutes a point solution, exactly as in Section 2.4 of the paper.

Optional strategies (the paper's contributions):

* ``predicate_learning`` — Section 3 static learning pre-processing, run
  before search (see :mod:`repro.core.predlearn`).
* ``structural_decisions`` — Section 4 justification-driven ``Decide``
  (see :mod:`repro.core.justify`).

Sessions: a solver built with ``persistent=True`` answers many queries
over one compiled system.  It keeps the constraint network, the learned
clauses, the activities and the interval-interning state alive across
``solve(assumptions)`` calls, asserts each query's assumptions at
retractable decision levels (re-asserted lazily after backjumps and
restarts, MiniSat-style) and retracts them before returning.  Level 0
therefore only ever holds consequences of the problem itself, which is
what makes the learned clauses sound to keep and to shift to later
time frames (:mod:`repro.bmc.session`).  :meth:`HdpllSolver.extend`
compiles appended circuit nodes into the live system, and
:meth:`HdpllSolver.learn` runs predicate learning over an explicit
candidate list, so a BMC driver probes only the appended frame.  The
generated propagation kernels survive extension, and so does their
parity with the reference core.

Observability: pass an :class:`repro.obs.Observation` to stream a
structured JSONL trace of every decision / propagation batch / conflict
/ restart / J-frontier action / FME leaf, and to collect a hierarchical
phase profile (learn / search / BCP / ICP / conflict / FME).  Without
one, every instrumentation point is a single ``is None`` test — the
stats-identity tests (``tests/obs``) hold the disabled path to the
uninstrumented search, and the end-to-end benchmark's ``compare``
judges its wall time.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ResourceLimitError, SolverError
from repro.intervals import Interval, interval_cache_stats
from repro.constraints.clause import Clause
from repro.constraints.compile import (
    CompiledExtension,
    CompiledSystem,
    compile_circuit,
    extend_compiled,
)
from repro.constraints.engine import PropagationEngine
from repro.constraints.store import ASSUMPTION, Conflict, DomainStore
from repro.constraints.variable import Variable
from repro.core.config import SolverConfig
from repro.core.conflict import analyze_conflict
from repro.core.decide import ActivityOrder
from repro.core.fme_leaf import check_solution_box
from repro.core.predlearn import (
    LearnReport,
    ProbeWindows,
    run_predicate_learning,
)
from repro.core.result import SolverResult, SolverStats, Status
from repro.obs import Observation
from repro.obs.trace import TRACE_SCHEMA_VERSION
from repro.rtl.circuit import Circuit
from repro.rtl.simulate import simulate_combinational

logger = logging.getLogger(__name__)

AssumptionValue = Union[int, Interval]

#: Sentinel decision: the J-frontier just emptied; try certifying early.
_EARLY_LEAF = object()
#: Sentinel result: early certification inconclusive; resume decisions.
_FALLBACK = object()

#: Returned by ``_assert_assumption_prefix`` when an assumption directly
#: contradicts the accumulated domain: UNSAT under the current
#: assumptions, with no clause to learn.
_ASSUMPTION_REFUTED = object()

#: Recognised ``SolverConfig.restart_strategy`` values.
RESTART_STRATEGIES = ("geometric", "luby")
#: Growth factor of the geometric restart interval.
RESTART_MULTIPLIER = 1.5
#: Reduce the learned-clause database (drop the worse half of the local
#: tier) every this many learned clauses.
CLAUSE_DB_REDUCE_INTERVAL = 4000


def luby(index: int) -> int:
    """The ``index``-th term (1-based) of the Luby restart sequence.

    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ... — the universally
    optimal schedule of Luby, Sinclair and Zuckerman, used by MiniSat's
    descendants.  Multiplied by ``restart_interval`` to get a budget.
    """
    if index < 1:
        raise ValueError(f"luby index must be >= 1, got {index}")
    size = 1
    sequence = 0
    while size < index:
        sequence += 1
        size = 2 * size + 1
    while size - 1 != index - 1:
        size = (size - 1) // 2
        sequence -= 1
        index = ((index - 1) % size) + 1
    return 1 << sequence


class HdpllSolver:
    """Satisfiability of a combinational RTL circuit under assumptions."""

    def __init__(
        self,
        circuit: Circuit,
        config: Optional[SolverConfig] = None,
        observation: Optional[Observation] = None,
        persistent: bool = False,
    ):
        self.circuit = circuit
        self.config = config or SolverConfig()
        if self.config.restart_strategy not in RESTART_STRATEGIES:
            raise SolverError(
                f"unknown restart strategy "
                f"{self.config.restart_strategy!r}; "
                f"expected one of {RESTART_STRATEGIES}"
            )
        #: Persistent (session) mode: the solver answers repeated
        #: ``solve`` calls, asserting assumptions at retractable decision
        #: levels and undoing them afterwards, and its constraint system
        #: can grow via :meth:`extend`.  Predicate learning is then the
        #: caller's to run, through :meth:`learn`.
        self.persistent = persistent
        tracer = observation.tracer if observation is not None else None
        #: Trace emitter, or None when tracing is off (the common case);
        #: every emission site guards on this being non-None.
        self._trace = tracer if tracer is not None and tracer.enabled else None
        self._prof = observation.profiler if observation is not None else None
        self.system: CompiledSystem = compile_circuit(
            circuit,
            mux_select_implication=self.config.mux_select_implication,
        )
        self.store = DomainStore(self.system.variables)
        self.engine = PropagationEngine(
            self.store, self.system.propagators, impl=self.config.engine_impl
        )
        if self._prof is not None:
            self.engine.enable_timing()
        self.order = ActivityOrder(
            self.system,
            self.store,
            default_phase=self.config.default_phase,
            decay=self.config.activity_decay,
        )
        self.stats = SolverStats()
        self._structural = None
        if self.config.structural_decisions:
            from repro.core.justify import StructuralDecide

            self._structural = StructuralDecide(
                self.system, self.store, self.order, tracer=self._trace
            )
        self._deadline: Optional[float] = None
        #: The current query's time budget (for its timeout note).
        self._timeout: Optional[float] = None
        #: A solver instance answers exactly one query (unless persistent).
        self._consumed = False
        #: Pending interval assumptions, one per retractable decision
        #: level (persistent mode); the search loop re-asserts the prefix
        #: lazily after every backjump or restart, MiniSat-style.
        self._assumption_plan: Optional[
            List[Tuple["Variable", Interval]]
        ] = None
        #: Cumulative engine/order counters at the start of the current
        #: solve; ``_finish`` reports deltas so persistent sessions get
        #: per-query stats.  All zero in single-shot mode.
        self._counter_marks: Dict[str, int] = {}
        #: (hits, misses) of the interval interning cache at solve start,
        #: so the reported hit rate covers only this solve.
        self._cache_mark = interval_cache_stats()
        # Attempt an early solution-box certification whenever the
        # J-frontier has just emptied (the paper's Decide() == done with
        # free don't-care variables remaining).
        self._early_leaf_pending = True
        #: How the most recent (var, value) decision was chosen
        #: ("activity" or "structural") — trace metadata only.
        self._decision_kind = "activity"
        #: Engine BCP/ICP clocks when the current search began, so the
        #: profiler attributes only this search's propagation to it.
        self._search_bcp = 0.0
        self._search_icp = 0.0
        #: Frame spans of the propagators, for frame-local learning
        #: probes (built at the first learning pass, grown by
        #: :meth:`extend`).
        self._windows = None
        #: Optional clause-sharing channel (the portfolio layer): an
        #: object with ``export(clause)`` — called with every learned
        #: clause — ``poll() -> list[Clause]`` — drained at the top of
        #: the search loop; returned clauses are installed against the
        #: *current* trail (re-watched, re-checked) as learned clauses —
        #: and ``drain()`` — called throughout a leaf check's integer
        #: search, where nothing can be installed: it takes in what has
        #: arrived for the next ``poll`` and may raise to end the solve.
        #: ``None`` keeps the hot path a single attribute test.
        self.share = None
        #: name -> variable over net *and* auxiliary variables (the
        #: compiled system's ``var_by_name`` resolves nets only); clause
        #: importers and clause shifting rename through it.
        self.var_by_name: Dict[str, Variable] = {
            var.name: var for var in self.system.variables
        }
        #: Lifetime counters: queries asked, relations learned and
        #: seconds spent learning.  A persistent solver stamps them onto
        #: every query's stats.
        self.session_solves = 0
        self.relations_learned = 0
        self.learn_seconds = 0.0
        #: Level 0 is refuted (at construction, by learning, by an
        #: extension or by a clause installed at level 0): every later
        #: query is UNSAT.
        self.root_conflict = False
        if persistent:
            self.engine.enqueue_all()
            self._saturate_level0()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Mapping[str, AssumptionValue],
        timeout: Optional[float] = None,
    ) -> SolverResult:
        """Check satisfiability under net-name assumptions.

        ``assumptions`` maps net names to required values (ints) or
        intervals.  The solver instance is single-shot unless constructed
        with ``persistent=True``, in which case assumptions are asserted
        at retractable decision levels and fully undone before returning,
        keeping learned clauses and activities for the next query.
        ``timeout`` budgets this query alone (default: the configured
        ``timeout``), so one short-deadline request to a shared session
        never shortens the budget of later ones.
        """
        if self._consumed and not self.persistent:
            raise SolverError(
                "HdpllSolver is single-shot; construct a new instance "
                "per query"
            )
        self._consumed = True
        if self.persistent:
            self.session_solves += 1
            if self.root_conflict:
                result = SolverResult(
                    status=Status.UNSAT,
                    model=None,
                    stats=SolverStats(),
                    note="level-0 refutation during session setup",
                )
                self._stamp(result.stats)
                return result
            self._begin_persistent_solve()
        self._cache_mark = interval_cache_stats()
        tracer = self._trace
        start = time.perf_counter()
        self._timeout = self.config.timeout if timeout is None else timeout
        if self._timeout is not None:
            self._deadline = start + self._timeout
        if tracer is not None:
            tracer.event(
                "solve_begin",
                dl=0,
                schema=TRACE_SCHEMA_VERSION,
                vars=len(self.system.variables),
                propagators=len(self.system.propagators),
            )
        logger.debug(
            "solve begin: circuit=%s vars=%d propagators=%d",
            self.circuit.name,
            len(self.system.variables),
            len(self.system.propagators),
        )

        try:
            result = self._solve(assumptions, start)
        finally:
            if self.persistent:
                # Retract every assumption level so the session is back
                # at the shared level-0 state for the next query.
                self._backtrack(0)
                self._assumption_plan = None

        # Throughput gauges; computed here (not in _finish) because the
        # time split is only final once _solve returned.  The learning
        # phase drives the same propagation engine (and typically most
        # of the propagations), so the denominator covers both phases.
        engine_seconds = self.stats.solve_time + self.stats.learn_time
        if engine_seconds > 0:
            self.stats.props_per_sec = (
                self.stats.propagations / engine_seconds
            )
            self.stats.narrowings_per_sec = (
                self.stats.narrowings / engine_seconds
            )

        if self._prof is not None:
            self._attribute_engine_phases()
        if tracer is not None:
            # The profile snapshot precedes solve_end: a complete trace
            # always *ends* with its solve_end event.
            if self._prof is not None:
                tracer.event(
                    "profile", dl=0, phases=self._prof.report()["phases"]
                )
            tracer.event(
                "solve_end",
                dl=0,
                status=result.status.value,
                decisions=self.stats.decisions,
                conflicts=self.stats.conflicts,
                solve_time=self.stats.solve_time,
                learn_time=self.stats.learn_time,
            )
            tracer.flush()
        logger.debug(
            "solve end: %s decisions=%d conflicts=%d solve_time=%.3fs",
            result.status.value,
            self.stats.decisions,
            self.stats.conflicts,
            self.stats.solve_time,
        )
        if self.persistent:
            self._stamp(result.stats)
            if tracer is not None:
                tracer.event(
                    "session-solve",
                    dl=0,
                    n=self.session_solves,
                    status=result.status.value,
                    assumptions=len(assumptions),
                    seconds=time.perf_counter() - start,
                )
        return result

    def _solve(
        self, assumptions: Mapping[str, AssumptionValue], start: float
    ) -> SolverResult:
        if not self.persistent:
            # One-shot order: learning, then the level-0 fixpoint, then
            # the assumptions at level 0 (``_apply_assumptions``).
            self.learn(deadline=self._deadline)
            self.stats.learned_relations = self.relations_learned
            self.stats.learn_time = self.learn_seconds
            self._search_bcp = self.engine.bcp_time
            self._search_icp = self.engine.icp_time
            if self.root_conflict:
                self.stats.solve_time = time.perf_counter() - start
                return self._finish(Status.UNSAT)

        if self._prof is not None:
            with self._prof.phase("search"):
                return self._search(assumptions, start)
        return self._search(assumptions, start)

    def learn(
        self, candidates=None, deadline: Optional[float] = None
    ) -> LearnReport:
        """Section 3 predicate learning over ``candidates`` (default:
        every predicate candidate of the circuit), one-shot and session
        alike; a no-op when ``predicate_learning`` is off or level 0 is
        already refuted.

        ``deadline`` is a ``time.perf_counter()`` instant threaded into
        the probes' cooperative budget: a serve request that triggers a
        cold session warm-up still honours its own deadline.  The pass
        runs as the ``learn`` profile phase (with its BCP/ICP split),
        adds to the lifetime relation and seconds counters, emits one
        ``learn_done`` event and records a root conflict.
        """
        if not self.config.predicate_learning or self.root_conflict:
            return LearnReport()
        if self._windows is None:
            self._windows = ProbeWindows(self.system.propagators)
        prof = self._prof
        start = time.perf_counter()
        bcp, icp = self.engine.bcp_time, self.engine.icp_time
        with prof.phase("learn") if prof is not None else nullcontext():
            report = run_predicate_learning(
                self.system,
                self.store,
                self.engine,
                self.order,
                threshold=self.config.learning_threshold,
                deadline=deadline,
                phase_hints=self.config.learned_phase_hints,
                tracer=self._trace,
                candidates=candidates,
                windows=self._windows,
            )
        seconds = time.perf_counter() - start
        self.learn_seconds += seconds
        self.relations_learned += report.relations_learned
        if prof is not None:
            bcp = self.engine.bcp_time - bcp
            icp = self.engine.icp_time - icp
            if bcp or icp:
                prof.add("learn/bcp", bcp)
                prof.add("learn/icp", icp)
        if self._trace is not None:
            self._trace.event(
                "learn_done",
                dl=0,
                relations=report.relations_learned,
                probes=report.probes,
                seconds=seconds,
            )
        if report.root_conflict:
            self.root_conflict = True
        return report

    def _search(
        self, assumptions: Mapping[str, AssumptionValue], start: float
    ) -> SolverResult:
        if self.persistent:
            self._assumption_plan = [
                (
                    self.system.var_by_name(name),
                    value
                    if isinstance(value, Interval)
                    else Interval.point(value),
                )
                for name, value in assumptions.items()
            ]
        elif self._apply_assumptions(assumptions) is not None:
            self.stats.solve_time = (
                time.perf_counter() - start - self.stats.learn_time
            )
            return self._finish(Status.UNSAT)
        result = self._search_loop(assumptions)
        self.stats.solve_time = (
            time.perf_counter() - start - self.stats.learn_time
        )
        return result

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _apply_assumptions(
        self, assumptions: Mapping[str, AssumptionValue]
    ) -> Optional[Conflict]:
        # Reach the circuit-only level-0 fixpoint first: it is the
        # baseline against which structural justification measures
        # requirements (narrowings caused by the proposition and by
        # search, not by the circuit or static learning).
        self.engine.enqueue_all()
        conflict = self._propagate()
        if conflict is not None:
            return conflict
        if self._structural is not None:
            self._structural.snapshot_baseline()
        for name, value in assumptions.items():
            var = self.system.var_by_name(name)
            interval = (
                value if isinstance(value, Interval) else Interval.point(value)
            )
            outcome = self.store.assume(var, interval)
            if isinstance(outcome, Conflict):
                return outcome
        self.engine.enqueue_all()
        return self._propagate()

    # ------------------------------------------------------------------
    # Persistent-session support
    # ------------------------------------------------------------------
    def extend(self, nodes) -> CompiledExtension:
        """Compile appended circuit nodes into the live system and reach
        the new level-0 fixpoint (the frame-extension path).

        New variables join the store at their initial domains and the
        name table, new propagators are registered and scheduled, and
        Boolean net variables join the decision order.  Only the new
        propagators are scheduled, and they reach the whole fixpoint;
        a refutation sets :attr:`root_conflict`.
        """
        if self.store.decision_level != 0:
            raise SolverError("extension is only legal at level 0")
        nodes = list(nodes)
        extension = extend_compiled(
            self.system,
            nodes,
            mux_select_implication=self.config.mux_select_implication,
        )
        self.store.add_variables(extension.variables)
        self.engine.extend(extension.propagators)
        if self._windows is not None:
            self._windows.extend(extension.propagators)
        self.order.add_candidates(self.system, extension.variables)
        if self._structural is not None:
            self._structural.extend(nodes)
        self.var_by_name.update(
            (var.name, var) for var in extension.variables
        )
        self._saturate_level0()
        return extension

    def add_clause(self, clause: Clause) -> bool:
        """Install ``clause`` at level 0 and propagate it.

        Returns False, and sets :attr:`root_conflict`, when the clause
        refutes level 0; the clause stays in the database either way.
        """
        conflict = self.engine.add_clause(clause)
        if conflict is None:
            conflict = self.engine.propagate()
        if conflict is not None:
            self.root_conflict = True
        return conflict is None

    def _stamp(self, stats: SolverStats) -> None:
        """Fold the lifetime counters into a persistent query's stats."""
        stats.session_solves = self.session_solves
        stats.learned_relations = self.relations_learned
        stats.learn_time = self.learn_seconds

    def _begin_persistent_solve(self) -> None:
        """Per-query reset: fresh stats, delta marks, budget, search state."""
        if self.store.decision_level != 0:
            raise SolverError(
                "persistent solve must start at level 0 (previous query "
                "not fully retracted)"
            )
        self.stats = SolverStats()
        self._counter_marks = {
            "propagations": self.engine.propagation_count,
            "propagator_wakeups": self.engine.wakeup_count,
            "clause_visits": self.engine.clause_db.clause_visits,
            "watch_moves": self.engine.clause_db.watch_moves,
            "heap_picks": self.order.picks,
            "heap_stale_pops": self.order.stale_pops,
            "narrowings": self.store.narrowings,
        }
        # Engine clock snapshot so profiler attribution stays per-query;
        # session learning accounts for its own propagation time.
        self._search_bcp = self.engine.bcp_time
        self._search_icp = self.engine.icp_time
        self._early_leaf_pending = True
        self._decision_kind = "activity"
        self._deadline = None

    def _saturate_level0(self) -> None:
        """Bring level 0 to the circuit fixpoint after creation or
        extension and take the structural-decision baseline there.

        Propagates only what is scheduled: the constructor schedules
        every propagator, ``engine.extend`` an extension's own.  A
        refutation sets :attr:`root_conflict`.
        """
        if self._propagate() is not None:
            self.root_conflict = True
        elif self._structural is not None:
            self._structural.snapshot_baseline()

    def _assert_assumption_prefix(self):
        """Assert pending assumptions, one retractable level each.

        Called whenever the current decision level is inside the
        assumption prefix (query start, after backjumps, after
        restarts).  A level is pushed even when the assumption is
        already entailed, keeping level k <=> assumption k-1 alignment.

        Returns ``None`` when the whole prefix is asserted, a
        :class:`Conflict` from propagation (the caller analyses it — the
        learned clause is globally valid because assumption events enter
        it as literals), or :data:`_ASSUMPTION_REFUTED` when an
        assumption directly contradicts the accumulated domain.  The
        refutation case must NOT go through conflict analysis: the
        failed ``narrow`` leaves no event for the assumption side, so
        any clause built from the remaining antecedents would elide the
        assumption and claim unconditional validity (MiniSat likewise
        answers final-conflict analysis without learning).
        """
        plan = self._assumption_plan
        store = self.store
        while store.decision_level < len(plan):
            var, interval = plan[store.decision_level]
            store.push_level()
            outcome = store.narrow(var, interval, ASSUMPTION)
            if isinstance(outcome, Conflict):
                return _ASSUMPTION_REFUTED
            conflict = self._propagate()
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _search_loop(
        self, assumptions: Mapping[str, AssumptionValue]
    ) -> SolverResult:
        tracer = self._trace
        prof = self._prof
        restart_budget = self.config.restart_interval
        conflicts_since_restart = 0

        while True:
            if self._out_of_budget():
                return self._finish(Status.UNKNOWN, note=self._budget_note())

            if self.share is not None:
                conflict = self._absorb_shared()
                if conflict is not None:
                    final, resolved = self._resolve_conflicts(
                        conflict, bump_source=True
                    )
                    if final is not None:
                        return final
                    conflicts_since_restart += resolved
                    continue

            if (
                self._assumption_plan
                and self.store.decision_level < len(self._assumption_plan)
            ):
                conflict = self._assert_assumption_prefix()
                if conflict is _ASSUMPTION_REFUTED:
                    return self._finish(
                        Status.UNSAT,
                        note="assumption contradicts implied domain",
                    )
                if conflict is not None:
                    final, resolved = self._resolve_conflicts(
                        conflict, bump_source=True
                    )
                    if final is not None:
                        return final
                    conflicts_since_restart += resolved
                    continue

            if prof is not None:
                begin = prof.now()
                decision = self._next_decision()
                prof.add("search/decide", prof.now() - begin)
            else:
                decision = self._next_decision()
            if decision is _EARLY_LEAF:
                # J-frontier empty but free don't-care variables remain:
                # try certifying the box over the active constraints.
                # Success must survive model verification; otherwise fall
                # back to assigning the remaining variables.
                leaf_result = self._leaf_check(assumptions, strict=False)
                if leaf_result is _FALLBACK:
                    continue
                if leaf_result is not None:
                    return leaf_result
                conflict = None  # box refuted; clause installed, continue
            elif decision is None:
                # Decide() == done: certify the solution box.
                leaf_result = self._leaf_check(assumptions)
                assert leaf_result is not _FALLBACK
                if leaf_result is not None:
                    return leaf_result
                conflict = None  # leaf refuted; clause installed, continue
            elif isinstance(decision, Conflict):
                conflict = decision
            else:
                var, value = decision
                self.store.decide_bool(var, value)
                self.order.save_phase(var, value)
                self.stats.decisions += 1
                self.stats.max_decision_level = max(
                    self.stats.max_decision_level, self.store.decision_level
                )
                if tracer is not None:
                    tracer.event(
                        "decision",
                        dl=self.store.decision_level,
                        var=var.name,
                        value=value,
                        kind=self._decision_kind,
                    )
                conflict = self._propagate()

            final, resolved = self._resolve_conflicts(
                conflict, bump_source=True
            )
            if final is not None:
                return final
            conflicts_since_restart += resolved

            if (
                self.config.restart_interval
                and conflicts_since_restart >= restart_budget
            ):
                self.stats.restarts += 1
                conflicts_since_restart = 0
                if self.config.restart_strategy == "luby":
                    restart_budget = self.config.restart_interval * luby(
                        self.stats.restarts + 1
                    )
                else:
                    restart_budget = int(restart_budget * RESTART_MULTIPLIER)
                if tracer is not None:
                    tracer.event(
                        "restart",
                        dl=self.store.decision_level,
                        n=self.stats.restarts,
                        conflicts=self.stats.conflicts,
                        strategy=self.config.restart_strategy,
                    )
                self._backtrack(0)

    def _next_decision(self):
        """Next decision: (var, value), a J-conflict, the early-leaf
        marker, or None when every decision variable is assigned."""
        if self._structural is not None:
            outcome = self._structural.next_decision()
            if outcome is not None:
                if isinstance(outcome, Conflict):
                    self.stats.j_conflicts += 1
                else:
                    self.stats.structural_decisions += 1
                    self._decision_kind = "structural"
                self._early_leaf_pending = True
                return outcome
            if self._early_leaf_pending:
                self._early_leaf_pending = False
                if self.order.pick() is not None:
                    return _EARLY_LEAF
        self._decision_kind = "activity"
        return self.order.pick()

    # ------------------------------------------------------------------
    # Propagation / conflict bookkeeping
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[Conflict]:
        """``engine.propagate()`` plus optional batch trace/profiling."""
        tracer = self._trace
        prof = self._prof
        if tracer is None and prof is None:
            return self.engine.propagate()
        engine = self.engine
        props_before = engine.propagation_count
        trail_before = len(self.store.trail)
        begin = time.perf_counter()
        conflict = engine.propagate()
        elapsed = time.perf_counter() - begin
        if prof is not None:
            prof.add("search/propagate", elapsed)
        if tracer is not None:
            tracer.event(
                "propagate",
                dl=self.store.decision_level,
                props=engine.propagation_count - props_before,
                events=len(self.store.trail) - trail_before,
                conflict=conflict is not None,
            )
        return conflict

    def _absorb_shared(self) -> Optional[Conflict]:
        """Install clauses arriving on the sharing channel.

        Installation happens against the *current* trail:
        :meth:`ClauseDatabase.add_clause` re-watches the literals and
        detects unit/false clauses, so an imported clause may propagate
        immediately or surface a conflict — the caller resolves it like
        any other.  Sound because every shared clause is globally valid
        (conflict analysis keeps assumption events as literals).
        """
        clauses = self.share.poll()
        if not clauses:
            return None
        for clause in clauses:
            self.stats.clauses_imported += 1
            conflict = self.engine.add_clause(clause)
            if conflict is None:
                conflict = self._propagate()
            if conflict is not None:
                return conflict
        return None

    def _clause_lbd(self, clause: Clause) -> int:
        """Literal-block distance: distinct decision levels in the clause
        (computed before backtracking, while the literals' levels are
        still on the trail)."""
        levels = set()
        level_of = self.store.level_of_var
        for literal in clause.literals:
            level = level_of(literal.var)
            if level:
                levels.add(level)
        return len(levels)

    def _resolve_conflicts(
        self, conflict: Optional[Conflict], bump_source: bool
    ) -> Tuple[Optional[SolverResult], int]:
        """Drain a conflict chain: analyse, learn, backtrack, re-propagate.

        Returns ``(final_result, resolved_count)``; the result is None
        when search can resume.  ``bump_source`` preserves the historical
        asymmetry that only main-loop conflicts bump the activity of a
        conflicting source clause (FME refutation chains do not).
        """
        tracer = self._trace
        prof = self._prof
        resolved = 0
        while conflict is not None:
            if self._out_of_budget():
                return (
                    self._finish(Status.UNKNOWN, note=self._budget_note()),
                    resolved,
                )
            self.stats.conflicts += 1
            resolved += 1
            if bump_source and isinstance(conflict.source, Clause):
                conflict.source.activity += 1.0
            if prof is not None:
                begin = prof.now()
                analysis = analyze_conflict(
                    conflict,
                    self.store,
                    hybrid_word_literals=self.config.hybrid_learned_clauses,
                    minimize=self.config.clause_minimization,
                )
                prof.add("search/conflict", prof.now() - begin)
            else:
                analysis = analyze_conflict(
                    conflict,
                    self.store,
                    hybrid_word_literals=self.config.hybrid_learned_clauses,
                    minimize=self.config.clause_minimization,
                )
            if analysis is None:
                return self._finish(Status.UNSAT), resolved
            self.stats.literals_minimized += analysis.literals_minimized
            analysis.clause.lbd = self._clause_lbd(analysis.clause)
            if tracer is not None:
                tracer.event(
                    "conflict",
                    dl=self.store.decision_level,
                    n=self.stats.conflicts,
                    size=len(analysis.clause.literals),
                    words=analysis.word_literal_count,
                    backtrack=analysis.backtrack_level,
                    lbd=analysis.clause.lbd,
                    minimized=analysis.literals_minimized,
                )
            if self.share is not None:
                self.share.export(analysis.clause)
            self.order.bump_clause(analysis.clause)
            self.order.decay()
            conflict = self._install_learned(
                analysis.clause, analysis.backtrack_level
            )
        return None, resolved

    def _backtrack(self, level: int) -> None:
        popped = self.store.backtrack_to(level)
        self.engine.notify_backtrack()
        self.order.backtracked(popped)
        if self._structural is not None:
            self._structural.backtracked(popped)

    def _install_learned(
        self, clause: Clause, backtrack_level: int
    ) -> Optional[Conflict]:
        """Backtrack, add the clause, and re-propagate."""
        self._backtrack(backtrack_level)
        self.stats.learned_clauses += 1
        self.stats.registry.histogram("learned_clause_size").observe(
            len(clause.literals)
        )
        if self.stats.learned_clauses % CLAUSE_DB_REDUCE_INTERVAL == 0:
            self.engine.clause_db.reduce_learned()
        cap = self.config.clause_db_max_learned
        if cap and self.stats.learned_clauses % 512 == 0:
            self.engine.clause_db.enforce_cap(cap)
        conflict = self.engine.add_clause(clause)
        if conflict is not None:
            return conflict
        conflict = self._propagate()
        self.stats.propagations = (
            self.engine.propagation_count
            - self._counter_marks.get("propagations", 0)
        )
        return conflict

    # ------------------------------------------------------------------
    # Leaf certification
    # ------------------------------------------------------------------
    def _leaf_check(
        self, assumptions: Mapping[str, AssumptionValue], strict: bool = True
    ):
        """Certify SAT, or install a refutation clause and return None.

        With ``strict=False`` (early certification while don't-care
        variables remain free) a feasible box whose extracted model fails
        verification returns the ``_FALLBACK`` sentinel instead of being
        an error: the skipped (inactive) constraints were genuinely
        needed, so search resumes.  An *infeasible* box is a valid
        refutation either way, since the active constraints are a subset
        of the full problem.
        """
        self.stats.fme_checks += 1
        begin = time.perf_counter()
        try:
            leaf = check_solution_box(
                self.store,
                self.system,
                branch_budget=self.config.omega_branch_budget,
                interrupt=self._leaf_interrupt,
            )
        except ResourceLimitError as error:
            leaf, note = None, str(error)
        elapsed = time.perf_counter() - begin
        self.stats.fme_time += elapsed
        if self._prof is not None:
            self._prof.add("search/fme", elapsed)
        if leaf is None:
            # Out of branch budget or past the deadline: neither SAT
            # nor UNSAT can be concluded from this box.
            return self._finish(Status.UNKNOWN, note=note)
        if self._trace is not None:
            self._trace.event(
                "leaf",
                dl=self.store.decision_level,
                mode="full" if strict else "early",
                feasible=leaf.feasible,
                components=leaf.components,
                constraints=leaf.constraints,
                seconds=elapsed,
            )
        if leaf.feasible:
            model = self._build_model(leaf.witness, assumptions, strict)
            if model is None:
                return _FALLBACK
            return self._finish(Status.SAT, model=model)

        self.stats.fme_conflicts += 1
        analysis = self._analyze_fme_refutation(leaf)
        if analysis is None:
            # The refutation depends on level-0 facts alone: UNSAT.
            return self._finish(Status.UNSAT)
        clause, backtrack_level = analysis.clause, analysis.backtrack_level
        self.stats.literals_minimized += analysis.literals_minimized
        clause.lbd = self._clause_lbd(clause)
        self.order.bump_clause(clause)
        self.order.decay()
        self.stats.conflicts += 1
        conflict = self._install_learned(clause, backtrack_level)
        final, _resolved = self._resolve_conflicts(conflict, bump_source=False)
        return final

    def _leaf_interrupt(self) -> None:
        """Run throughout a leaf check's integer search (see
        :class:`~repro.fme.omega.OmegaSolver`), where the search loop's
        budget test and share poll cannot run.

        Past the deadline it raises :class:`ResourceLimitError`, so the
        check ends UNKNOWN as it does on the branch budget.  The share
        hook's ``drain`` takes in what arrived on its channel, and a
        worker's stop or cube cancel raised there unwinds the solve as
        it does from the search loop.
        """
        deadline = self._deadline
        if deadline is not None and time.perf_counter() > deadline:
            raise ResourceLimitError(self._budget_note())
        if self.share is not None:
            self.share.drain()

    def _analyze_fme_refutation(self, leaf):
        """Conflict analysis of an arithmetic refutation (the [9] hybrid
        learning): the refuted component's variable bounds and the
        control assignments that activated its constraints are the
        antecedents; tracing them through the implication graph yields
        the learned clause.  Returns ``None`` when the refutation rests
        on level-0 facts alone (the instance is UNSAT)."""
        from repro.constraints.propagators import ComparatorProp

        antecedents = set()
        for var_index in leaf.failing_var_indices:
            event_id = self.store.latest_event[var_index]
            if event_id is not None:
                antecedents.add(event_id)
        for prop in leaf.failing_sources:
            control = prop.pred if isinstance(prop, ComparatorProp) else prop.sel
            event_id = self.store.latest_event[control.index]
            if event_id is not None:
                antecedents.add(event_id)
        conflict = Conflict(
            source="fme-refutation", antecedents=tuple(sorted(antecedents))
        )
        return analyze_conflict(
            conflict,
            self.store,
            hybrid_word_literals=self.config.hybrid_learned_clauses,
            minimize=self.config.clause_minimization,
        )

    def _build_model(
        self,
        witness: Dict[int, int],
        assumptions: Mapping[str, AssumptionValue],
        strict: bool = True,
    ) -> Optional[Dict[str, int]]:
        """Full net-valued model from the leaf witness, verified.

        Verification failure raises in strict mode (an internal
        inconsistency at a fully assigned leaf) and returns ``None`` in
        early-certification mode (the witness ignored a constraint that
        mattered after all).
        """
        input_values: Dict[str, int] = {}
        for net in self.circuit.inputs:
            var = self.system.var(net)
            input_values[net.name] = witness[var.index]
        model = simulate_combinational(self.circuit, input_values)
        for name, value in assumptions.items():
            interval = (
                value if isinstance(value, Interval) else Interval.point(value)
            )
            actual = model[name]
            if actual not in interval:
                if strict:
                    raise SolverError(
                        f"model verification failed: {name} = {actual} "
                        f"not in {interval}"
                    )
                return None
        return model

    # ------------------------------------------------------------------
    # Budgets and results
    # ------------------------------------------------------------------
    def _out_of_budget(self) -> bool:
        if (
            self.config.max_conflicts is not None
            and self.stats.conflicts >= self.config.max_conflicts
        ):
            return True
        return (
            self._deadline is not None
            and time.perf_counter() > self._deadline
        )

    def _budget_note(self) -> str:
        if self._deadline is not None and time.perf_counter() > self._deadline:
            return f"timeout after {self._timeout}s"
        return f"conflict budget {self.config.max_conflicts} exhausted"

    def _attribute_engine_phases(self) -> None:
        """Fold the engine's BCP/ICP clocks since this search began into
        ``search/propagate/*`` (:meth:`learn` books its own share under
        ``learn/*``)."""
        prof = self._prof
        assert prof is not None
        prof.add(
            "search/propagate/bcp", self.engine.bcp_time - self._search_bcp
        )
        prof.add(
            "search/propagate/icp", self.engine.icp_time - self._search_icp
        )

    def _finish(
        self,
        status: Status,
        model: Optional[Dict[str, int]] = None,
        note: str = "",
    ) -> SolverResult:
        marks = self._counter_marks
        self.stats.propagations = (
            self.engine.propagation_count - marks.get("propagations", 0)
        )
        self.stats.propagator_wakeups = (
            self.engine.wakeup_count - marks.get("propagator_wakeups", 0)
        )
        self.stats.clause_visits = (
            self.engine.clause_db.clause_visits
            - marks.get("clause_visits", 0)
        )
        self.stats.watch_moves = (
            self.engine.clause_db.watch_moves - marks.get("watch_moves", 0)
        )
        # Decision-heap health counters (auto-registered extensions —
        # the metrics registry is the one place they need declaring).
        self.stats.heap_picks = self.order.picks - marks.get("heap_picks", 0)
        self.stats.heap_stale_pops = (
            self.order.stale_pops - marks.get("heap_stale_pops", 0)
        )
        clause_db = self.engine.clause_db
        self.stats.clauses_evicted = clause_db.clauses_evicted
        self.stats.clauses_demoted = clause_db.clauses_demoted
        core, mid, local = clause_db.tier_sizes()
        self.stats.clause_db_core = core
        self.stats.clause_db_mid = mid
        self.stats.clause_db_local = local
        self.stats.learned_lbd_mean = clause_db.mean_lbd()
        self.stats.narrowings = (
            self.store.narrowings - marks.get("narrowings", 0)
        )
        hits, misses = interval_cache_stats()
        delta_hits = hits - self._cache_mark[0]
        delta_total = delta_hits + misses - self._cache_mark[1]
        self.stats.interval_cache_hit_rate = (
            delta_hits / delta_total if delta_total else 0.0
        )
        return SolverResult(
            status=status, model=model, stats=self.stats, note=note
        )


def solve_circuit(
    circuit: Circuit,
    assumptions: Mapping[str, AssumptionValue],
    config: Optional[SolverConfig] = None,
    observation: Optional[Observation] = None,
) -> SolverResult:
    """One-shot convenience wrapper around :class:`HdpllSolver`."""
    return HdpllSolver(circuit, config, observation).solve(assumptions)
