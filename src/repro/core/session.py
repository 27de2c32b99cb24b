"""Incremental solver sessions: one compiled system, many queries.

A :class:`SolverSession` wraps a persistent :class:`HdpllSolver` and
keeps everything expensive alive across repeated ``solve(assumptions)``
calls: the compiled constraint network, the learned-clause database,
variable activities/phases, and the interval-interning state.  Each
query asserts its assumptions at *retractable* decision levels (one per
assumption, re-asserted lazily after backjumps and restarts) and fully
undoes them before returning, so level 0 only ever holds facts that are
consequences of the problem itself — which is exactly what makes the
learned clauses sound to keep, and to re-instantiate at later time
frames (see :mod:`repro.bmc.session`).

The session also owns the growth path: :meth:`extend` compiles a node
suffix of the (mutated-in-place) circuit into the live system, and
:meth:`learn` runs predicate learning restricted to an explicit
candidate list, so BMC drivers can probe only the appended frame.

The generated propagation kernels survive extension: the engine builds
kernels for just the appended propagators (see
``HdpllSolver.extend_system``) from the per-family factories the
process already compiled, and the parity contract with the reference
core (same trail, same counters) holds across ``extend`` boundaries
exactly as it does for a fresh solver.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.constraints.clause import BoolLit, Clause, Literal, WordLit
from repro.constraints.compile import CompiledExtension
from repro.constraints.variable import Variable
from repro.core.config import SolverConfig
from repro.core.hdpll import AssumptionValue, HdpllSolver
from repro.core.predlearn import LearnReport, _clause_key
from repro.core.result import SolverResult, SolverStats, Status
from repro.obs import Observation
from repro.rtl.circuit import Circuit


class SolverSession:
    """Repeated satisfiability queries over a growing compiled system."""

    def __init__(
        self,
        circuit: Circuit,
        config: Optional[SolverConfig] = None,
        observation: Optional[Observation] = None,
    ):
        self.config = config or SolverConfig()
        self.solver = HdpllSolver(
            circuit, self.config, observation, persistent=True
        )
        self._trace = self.solver._trace
        self._prof = self.solver._prof
        #: name -> variable, covering net *and* auxiliary variables (the
        #: compiled system only resolves nets); clause shifting renames
        #: through this map.
        self._var_by_name: Dict[str, Variable] = {}
        self._absorb_names(self.solver.system.variables)
        #: Dedup keys of session-installed (shifted) clauses.
        self._installed_keys: Set[Tuple] = set()
        #: Session counters, stamped onto every result's stats.
        self.session_solves = 0
        self.clauses_shifted = 0
        self.probe_cache_hits = 0
        self.probe_cache_misses = 0
        self.relations_learned = 0
        self.learn_seconds = 0.0
        #: Level-0 refutation found during extension/learning: every
        #: subsequent query is unconditionally UNSAT.
        self.root_conflict = False
        self.solver.engine.enqueue_all()
        conflict = self.solver._saturate_level0()
        if conflict is not None:
            self.root_conflict = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Mapping[str, AssumptionValue],
        timeout: Optional[float] = None,
    ) -> SolverResult:
        """One satisfiability query; assumptions are fully retracted
        before returning."""
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
        # Per-call timeout override: applied for this query only and
        # restored afterwards, so one short-deadline request can never
        # shorten the session default for later callers (which pass
        # ``timeout=None`` expecting the session's configured budget).
        # Fatal for a shared warm-session cache otherwise.
        saved_config = self.solver.config
        if timeout is not None and timeout != saved_config.timeout:
            self.solver.config = saved_config.with_overrides(
                timeout=timeout
            )
        start = time.perf_counter()
        try:
            result = self.solver.solve(assumptions)
        finally:
            self.solver.config = saved_config
        self._stamp(result.stats)
        if self._trace is not None:
            self._trace.event(
                "session-solve",
                dl=0,
                n=self.session_solves,
                status=result.status.value,
                assumptions=len(assumptions),
                seconds=time.perf_counter() - start,
            )
        return result

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def extend(self, nodes) -> CompiledExtension:
        """Compile appended circuit nodes and reach the new level-0
        fixpoint (frame-extension compile path)."""
        extension = self.solver.extend_system(nodes)
        self._absorb_names(extension.variables)
        conflict = self.solver._saturate_level0()
        if conflict is not None:
            self.root_conflict = True
        return extension

    def learn(
        self, candidates, deadline: Optional[float] = None
    ) -> LearnReport:
        """Predicate learning restricted to ``candidates`` (net list).

        ``deadline`` is a ``time.perf_counter()`` instant threaded into
        the probe phase's cooperative :class:`ProbeDeadline` budget —
        the serve daemon uses it so a request that triggers a cold
        session warm-up still honours its per-request deadline.
        """
        start = time.perf_counter()
        if self._prof is not None:
            with self._prof.phase("learn"):
                report = self.solver._run_learning(candidates, deadline)
        else:
            report = self.solver._run_learning(candidates, deadline)
        self.learn_seconds += time.perf_counter() - start
        self.relations_learned += report.relations_learned
        if report.root_conflict:
            self.root_conflict = True
        return report

    # ------------------------------------------------------------------
    # Clause shifting
    # ------------------------------------------------------------------
    def learned_clauses(self) -> List[Clause]:
        """Live learned clauses in the session's database."""
        return [
            clause
            for clause in self.solver.engine.clause_db.clauses
            if clause.learned
        ]

    def install_shifted(
        self,
        clauses: Iterable[Clause],
        rename: Callable[[str], str],
    ) -> int:
        """Re-instantiate learned clauses under a variable renaming.

        Every literal's variable is mapped through ``rename`` and the
        session's name table; a clause is skipped when any renamed
        variable does not exist (the target frame lacks that net) or
        when an identical clause was already installed by the session.
        Installation happens at level 0, so shifted unit facts become
        permanent domain narrowings — sound, because shifting is a
        syntactic embedding of the constraint system into itself (see
        docs/performance.md).  Returns the number installed.
        """
        engine = self.solver.engine
        installed = 0
        for clause in clauses:
            literals = self._rename_literals(clause.literals, rename)
            if literals is None:
                continue
            key = _clause_key(literals)
            if key in self._installed_keys:
                continue
            self._installed_keys.add(key)
            origin = (
                "predicate-shifted"
                if clause.origin.startswith("predicate")
                else "conflict-shifted"
            )
            copy = Clause(literals=literals, learned=True, origin=origin)
            conflict = engine.add_clause(copy)
            if conflict is None:
                conflict = engine.propagate()
            if conflict is not None:
                # The clause is in the database (a root refutation, so
                # every later query is UNSAT); count it and fall through
                # to the shared accounting below — an early return here
                # would leave ``clauses_shifted`` undercounting and skip
                # the clause-DB cap on exactly this path.
                installed += 1
                self.root_conflict = True
                break
            installed += 1
        self.clauses_shifted += installed
        cap = self.config.clause_db_max_learned
        if cap:
            self.solver.engine.clause_db.enforce_cap(cap)
        return installed

    def _rename_literals(
        self,
        literals: Tuple[Literal, ...],
        rename: Callable[[str], str],
    ) -> Optional[Tuple[Literal, ...]]:
        renamed: List[Literal] = []
        for literal in literals:
            target = self._var_by_name.get(rename(literal.var.name))
            if target is None:
                return None
            if isinstance(literal, BoolLit):
                renamed.append(BoolLit(target, positive=literal.positive))
            elif isinstance(literal, WordLit):
                renamed.append(
                    WordLit(
                        target, literal.interval, positive=literal.positive
                    )
                )
            else:  # pragma: no cover - new literal kinds must be handled
                return None
        return tuple(renamed)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _absorb_names(self, variables: Iterable[Variable]) -> None:
        for var in variables:
            self._var_by_name[var.name] = var

    def _stamp(self, stats: SolverStats) -> None:
        """Fold session-lifetime counters into a query's stats."""
        stats.session_solves = self.session_solves
        stats.clauses_shifted = self.clauses_shifted
        stats.probe_cache_hits = self.probe_cache_hits
        stats.probe_cache_misses = self.probe_cache_misses
        lookups = self.probe_cache_hits + self.probe_cache_misses
        stats.probe_cache_hit_rate = (
            self.probe_cache_hits / lookups if lookups else 0.0
        )
        stats.learned_relations = self.relations_learned
        stats.learn_time = self.learn_seconds
