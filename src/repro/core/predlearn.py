"""Predicate-based static learning (Section 3 of the paper).

Pre-processing before search:

1. Level-order the circuit; extract the predicate logic controlling the
   datapath (cone-of-influence, :mod:`repro.rtl.predicates`).
2. Probe the controlling value of each candidate gate, lowest level
   first, with level-1 recursive learning extended by interval
   constraint propagation across the datapath.  On an unrolled
   instance each probe is frame-local: it runs only the propagators
   whose frame span meets the candidate's frame ± :data:`PROBE_WINDOW`
   (:class:`ProbeWindows`; clause BCP is not restricted).  The window
   only leaves propagation out, so whatever a windowed probe implies —
   a conflict, a hull, a common implication — the full system implies
   too (see :mod:`repro.core.recursive`).  Circuits without frame tags
   probe over the whole system.
3. Common implications become learned clauses — Boolean 2-literal
   relations like the paper's ``(b5 ∨ ¬b6)`` and hybrid clauses with
   word literals for common interval narrowings.
4. Learned relations are stored in the clause database, so later probes
   reuse them (exactly how Figure 2 learns ``(¬b8 ∨ b9)`` from the
   earlier ``b5``/``b6`` relations).
5. A threshold caps the number of relations (Section 3.1: "a threshold
   on the number of relations learned is used to control run-time").
6. Variables in learned relations get extra decision weight, and their
   preferred phase is set to the value satisfying the most relations
   (Section 4.4).
"""

from __future__ import annotations

import logging
import re
import time
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.intervals import Interval
from repro.constraints.clause import BoolLit, Clause, Literal, WordLit
from repro.constraints.compile import CompiledSystem
from repro.constraints.engine import PropagationEngine
from repro.constraints.propagators import Propagator
from repro.constraints.store import Conflict, DomainStore
from repro.constraints.variable import Variable
from repro.core.decide import ActivityOrder
from repro.core.recursive import (
    ProbeDeadline,
    RecursiveLearner,
    justification_options,
)
from repro.rtl.predicates import extract_predicates

logger = logging.getLogger(__name__)

#: The paper's default cap (Section 5.2): min(#predicate gates, 2000).
DEFAULT_THRESHOLD_CAP = 2000

#: Conditional relations kept per probe.  A single branching probe can
#: imply hundreds of forward-chain narrowings; emitting them all starves
#: the global threshold before learning reaches the deeper time frames,
#: where the per-frame case-split facts (the potent ones for the UNSAT
#: families) are mined.  Boolean-Boolean relations are kept first — they
#: are the paper's Figure 2(b) shape — then the tightest word relations.
CONDITIONALS_PER_PROBE = 8

#: Frames on each side of a probed candidate's own frame whose
#: propagators the probe runs.  The facts that carry Table 1 are
#: frame-local (the per-frame case-split chains of b02_1 and b13_1),
#: while an unrestricted probe's narrowings run the length of the
#: unrolling, so the pass grew with the square of the bound.  Width 1
#: keeps a frame's links to its neighbours' registers: width 0 was
#: faster still but lost relations on b13_1(100) and gained conflicts
#: on b03_1, width 2 cost more and filled b13_1(100)'s relation cap
#: before its deep frames (docs/performance.md, "Frame-local probes").
PROBE_WINDOW = 1

#: Frame tag embedded in unrolled variable names (``net@3``,
#: ``net@3__carry``).
_FRAME_RE = re.compile(r"@(\d+)")


def shift_name(name: str, delta: int) -> str:
    """Rename every ``@frame`` occurrence ``delta`` frames later
    (shifting a clause in time is a pure rename)."""
    return _FRAME_RE.sub(
        lambda match: f"@{int(match.group(1)) + delta}", name
    )


def frame_of(name: str) -> Tuple[str, Optional[int]]:
    """An unrolled net's base name and frame: ``n@3`` -> ``("n", 3)``;
    a name without a frame tag -> ``(name, None)``."""
    match = _FRAME_RE.search(name)
    if match is None:
        return name, None
    return name[: match.start()], int(match.group(1))


def frame_span(
    names: Iterable[str], skip_untagged: bool = False
) -> Optional[Tuple[int, int]]:
    """(min, max) frame referenced by the names.  A name without a frame
    tag makes it None (such a clause cannot be shifted), or is skipped
    with ``skip_untagged``; None also when no name carries a tag."""
    frames: List[int] = []
    for name in names:
        tags = _FRAME_RE.findall(name)
        if not tags and not skip_untagged:
            return None
        frames.extend(map(int, tags))
    if not frames:
        return None
    return min(frames), max(frames)


class ProbeWindows:
    """Frame spans of a compiled system's propagators, and the probe
    masks built from them (one byte per propagator).

    A propagator's span is the (min, max) ``@frame`` tag over its
    variables' names.  Untagged variables are ignored, and a
    propagator with no tagged variable is never suspended, so a circuit
    without frame tags probes exactly as without windows.  The memory
    is O(propagators): the spans, one index list entry per propagator
    and the mask of the last window asked for (candidates come in level
    order, which keeps a frame's candidates mostly together).
    """

    def __init__(self, propagators: Iterable[Propagator] = ()):
        #: Position -> highest frame of its span (unused when untagged).
        self._hi = array("i")
        #: Lowest frame of a span -> the positions whose span starts there.
        self._by_lo: Dict[int, List[int]] = {}
        #: Widest span seen (``hi - lo``).
        self._reach = 0
        #: 1 for every tagged position: the mask before the window's
        #: positions are cleared.
        self._template = bytearray()
        self._key: Optional[Tuple[int, int]] = None
        self._mask = b""
        self.extend(propagators)

    def extend(self, propagators: Iterable[Propagator]) -> None:
        """Add the spans of appended propagators (frame extension)."""
        for propagator in propagators:
            position = len(self._template)
            span = frame_span(
                (var.name for var in propagator.variables),
                skip_untagged=True,
            )
            if span is None:
                self._template.append(0)
                self._hi.append(-1)
                continue
            lo, hi = span
            self._template.append(1)
            self._hi.append(hi)
            self._by_lo.setdefault(lo, []).append(position)
            self._reach = max(self._reach, hi - lo)
        self._key = None

    def mask_for(self, var) -> Optional[bytes]:
        """Suspend mask for probing ``var``: 1 at every propagator whose
        span misses ``var``'s frames widened by :data:`PROBE_WINDOW` on
        each side.  None when ``var`` carries no frame tag."""
        span = frame_span((var.name,))
        if span is None:
            return None
        if span != self._key:
            lo = span[0] - PROBE_WINDOW
            hi = span[1] + PROBE_WINDOW
            mask = bytearray(self._template)
            his = self._hi
            by_lo = self._by_lo
            for start in range(lo - self._reach, hi + 1):
                for position in by_lo.get(start, ()):
                    if his[position] >= lo:
                        mask[position] = 0
            self._key = span
            self._mask = bytes(mask)
        return self._mask


@dataclass
class LearnReport:
    """Outcome of the pre-processing pass."""

    relations_learned: int = 0
    probes: int = 0
    candidates: int = 0
    #: True when learning alone proved the circuit internally
    #: inconsistent (a probe value and its complement both impossible).
    root_conflict: bool = False
    #: The learned clauses, in learning order (for tests/diagnostics).
    clauses: List[Clause] = field(default_factory=list)
    #: net index -> clauses learned while probing that candidate.  A key
    #: is present only for candidates the loop actually processed, so
    #: probe caches can distinguish "probed, nothing learned" from
    #: "skipped by threshold/deadline".
    clauses_by_candidate: Dict[int, List[Clause]] = field(
        default_factory=dict
    )


def clause_key(literals: Tuple[Literal, ...]) -> Tuple:
    """Order-free identity of a clause's literals (dedup key)."""
    return tuple(
        sorted(
            (
                lit.var.index,
                lit.positive,
                getattr(lit, "interval", None),
            )
            for lit in literals
        )
    )


def run_predicate_learning(
    system: CompiledSystem,
    store: DomainStore,
    engine: PropagationEngine,
    order: Optional[ActivityOrder] = None,
    threshold: Optional[int] = None,
    deadline: Optional[float] = None,
    phase_hints: bool = False,
    include_direct_relations: bool = False,
    tracer=None,
    candidates=None,
    windows: Optional[ProbeWindows] = None,
) -> LearnReport:
    """Run the Section 3 pre-processing pass on a live solver state.

    Must be called at decision level 0 before any assumptions; learned
    clauses are installed into ``engine``'s clause database.  A
    :class:`repro.obs.TraceEmitter` in ``tracer`` gets one
    ``learn_probe`` event per recursive-learning probe.  ``deadline`` is
    a ``time.perf_counter()`` instant (the solver's budget clock); it is
    enforced between candidates *and inside each probe's branch
    enumeration*, so a single pathological probe cannot overrun the
    solver's budget.

    ``candidates`` restricts probing to an explicit net list (the
    frame-extension path probes only the appended frame); by default the
    candidates are extracted from the whole circuit.  ``windows`` holds
    the propagators' frame spans; a solver that learns more than once
    keeps its own and grows it with the system, and by default they
    are built from ``system.propagators`` for this pass.
    """
    report = LearnReport()
    if candidates is None:
        predicates = extract_predicates(system.circuit)
        candidates = predicates.learning_candidates
    report.candidates = len(candidates)
    if threshold is None:
        threshold = min(len(candidates), DEFAULT_THRESHOLD_CAP)

    if windows is None:
        windows = ProbeWindows(system.propagators)
    learner = RecursiveLearner(
        system, store, engine, deadline=deadline, windows=windows
    )
    seen_clauses: Set[Tuple] = set()
    phase_votes: Dict[int, List[int]] = {}

    try:
        _probe_candidates(
            system,
            store,
            engine,
            learner,
            candidates,
            threshold,
            deadline,
            include_direct_relations,
            tracer,
            report,
            seen_clauses,
            phase_votes,
        )
    except ProbeDeadline:
        # The probe left its levels on the way out; keep whatever was
        # learned so far — partial learning is sound.
        logger.debug(
            "predicate learning stopped at deadline after %d relations",
            report.relations_learned,
        )

    report.probes = learner.probes
    if report.root_conflict:
        return report
    logger.debug(
        "predicate learning: %d relations from %d probes "
        "(%d candidates, threshold %d)",
        report.relations_learned,
        report.probes,
        report.candidates,
        threshold,
    )
    if order is not None:
        # Phase hints (Section 4.4's "pick the value satisfying the most
        # learned relations") are off by default: on SAT instances they
        # bias the search towards typical circuit behaviour and away
        # from counterexamples — the ablation benchmark quantifies this.
        _export_weights(
            order, report.clauses, phase_votes if phase_hints else {}
        )
    return report


def _probe_candidates(
    system: CompiledSystem,
    store: DomainStore,
    engine: PropagationEngine,
    learner: RecursiveLearner,
    candidates,
    threshold: int,
    deadline: Optional[float],
    include_direct_relations: bool,
    tracer,
    report: LearnReport,
    seen_clauses: Set[Tuple],
    phase_votes: Dict[int, List[int]],
) -> None:
    """The candidate/probe loop body of :func:`run_predicate_learning`.

    Separated so the deadline can abort it from arbitrarily deep inside
    a probe (:class:`ProbeDeadline`) with one catch site.  Sets
    ``report.root_conflict`` and returns early when learning alone
    refutes the circuit.
    """
    for net in candidates:
        if report.relations_learned >= threshold:
            break
        if deadline is not None and time.perf_counter() > deadline:
            break
        var = system.var(net)
        node = net.driver
        assert node is not None
        clause_mark = len(report.clauses)
        probe_results: Dict[int, Optional[Dict[int, Interval]]] = {}
        for probe_value in (0, 1):
            if report.relations_learned >= threshold:
                break
            if store.is_assigned(var):
                break
            if deadline is not None and time.perf_counter() > deadline:
                return
            options = justification_options(system, node, probe_value)
            implications = learner.probe(var, probe_value, depth=1)
            probe_results[probe_value] = implications
            if tracer is not None:
                tracer.event(
                    "learn_probe",
                    dl=0,
                    var=net.name,
                    value=probe_value,
                    outcome=(
                        "impossible" if implications is None else "ok"
                    ),
                    implications=(
                        0 if implications is None else len(implications)
                    ),
                )
            if implications is None:
                # The probe value is impossible: learn it as a fact
                # (failed-literal detection / all options conflicting).
                conflict = _install(
                    engine,
                    report,
                    seen_clauses,
                    phase_votes,
                    (BoolLit(var, positive=(probe_value == 0)),),
                )
                if conflict is not None:
                    report.root_conflict = True
                    return
                continue
            if not options or len(options) < 2:
                # No branching justification: the per-value implications
                # are plain propagation consequences (search rediscovers
                # them, so they are skipped when learning feeds the
                # solver) — but consumers like predicate abstraction
                # want them spelled out as explicit relations.
                if not include_direct_relations:
                    continue
            probe_literal = BoolLit(var, positive=(probe_value == 0))
            ranked = sorted(
                implications.items(),
                key=lambda item: (
                    not store.variables[item[0]].is_bool,  # booleans first
                    item[1].size,                          # then tightest
                ),
            )
            emitted = 0
            for index, interval in ranked:
                if emitted >= CONDITIONALS_PER_PROBE:
                    break
                implied_var = store.variables[index]
                literal = _implication_literal(implied_var, interval)
                if literal is None or implied_var is var:
                    continue
                conflict = _install(
                    engine,
                    report,
                    seen_clauses,
                    phase_votes,
                    (probe_literal, literal),
                )
                if conflict is not None:
                    report.root_conflict = True
                    return
                emitted += 1
                if report.relations_learned >= threshold:
                    break

        # Case-split learning: {var = 0} and {var = 1} cover all cases,
        # so an implication common to both probes holds unconditionally
        # — a level-0 fact.  This is how learning captures facts like
        # "the guarded increment never leaves <0, 6>" that no single
        # Boolean relation can express.
        zero_result = probe_results.get(0)
        one_result = probe_results.get(1)
        if zero_result is not None and one_result is not None:
            for index in zero_result.keys() & one_result.keys():
                if report.relations_learned >= threshold:
                    break
                hull = zero_result[index].union_hull(one_result[index])
                implied_var = store.variables[index]
                if hull.contains_interval(store.domains[index]):
                    continue
                literal = _implication_literal(implied_var, hull)
                if literal is None:
                    continue
                conflict = _install(
                    engine, report, seen_clauses, phase_votes, (literal,)
                )
                if conflict is not None:
                    report.root_conflict = True
                    return

        # Candidate fully processed: attribute its clauses (early exits
        # above deliberately skip this, so partially probed candidates
        # are never cached as complete).
        report.clauses_by_candidate[net.index] = report.clauses[clause_mark:]


def _implication_literal(
    var: Variable, interval: Interval
) -> Optional[Literal]:
    """Literal expressing ``var ∈ interval``."""
    if var.is_bool:
        if not interval.is_point:
            return None
        return BoolLit(var, positive=bool(interval.lo))
    return WordLit(var, interval, positive=True)


def _install(
    engine: PropagationEngine,
    report: LearnReport,
    seen: Set[Tuple],
    phase_votes: Dict[int, List[int]],
    literals: Tuple[Literal, ...],
) -> Optional[Conflict]:
    """Add one learned relation; returns a conflict on level-0 refutation."""
    key = clause_key(literals)
    if key in seen:
        return None
    seen.add(key)
    clause = Clause(
        literals=literals, learned=True, origin="predicate-learning"
    )
    conflict = engine.add_clause(clause)
    if conflict is None:
        conflict = engine.propagate()
    if conflict is not None:
        return conflict
    report.relations_learned += 1
    report.clauses.append(clause)
    # Phase votes (Section 4.4): count only *implied* literals — the
    # probe literal of a conditional relation is a hypothesis, not a
    # preferred value.  Unit facts vote with their single literal.
    implied = literals[1:] if len(literals) > 1 else literals
    for literal in implied:
        if isinstance(literal, BoolLit):
            votes = phase_votes.setdefault(literal.var.index, [0, 0])
            votes[1 if literal.positive else 0] += 1
    return None


def _export_weights(
    order: ActivityOrder,
    clauses: List[Clause],
    phase_votes: Dict[int, List[int]],
) -> None:
    """Feed learned-relation weights into the decision heuristic."""
    counts: Dict[int, int] = {}
    by_index: Dict[int, Variable] = {}
    for clause in clauses:
        for literal in clause.literals:
            counts[literal.var.index] = counts.get(literal.var.index, 0) + 1
            by_index[literal.var.index] = literal.var
    for index, count in counts.items():
        order.add_static_weight(by_index[index], float(count))
    for index, votes in phase_votes.items():
        if votes[0] != votes[1]:
            order.phase[index] = 1 if votes[1] > votes[0] else 0
