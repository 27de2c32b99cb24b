"""Hybrid conflict analysis over the implication graph (Section 2.4).

Starting from the antecedents of a conflict, the analysis walks the
hybrid implication graph backwards to find a *cut*: a set of value
assignments whose conjunction is sufficient for the conflict.  The
negation of the cut is the learned (conflict-avoiding) clause.

The cut is the first unique implication point (1-UIP) generalised to the
hybrid trail: events at the conflict level are resolved with their
antecedents until a single Boolean assignment remains; events from lower
levels become literals directly when Boolean, and are either expanded to
their Boolean causes or (optionally) kept as *word literals* — the
paper's hybrid learned clauses.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.constraints.clause import BoolLit, Clause, Literal, WordLit
from repro.constraints.store import Conflict, DomainStore, Event


@dataclass
class AnalysisResult:
    """A learned clause and where to backtrack to."""

    clause: Clause
    backtrack_level: int
    #: The literal asserted by the clause after backtracking (may be None
    #: in the rare no-UIP corner).
    asserting_literal: Optional[Literal]
    #: Literals removed from the first-UIP clause by recursive
    #: minimization (0 when minimization is off or found nothing).
    literals_minimized: int = 0

    @property
    def word_literal_count(self) -> int:
        """Word (interval) literals in the learned clause — the hybrid
        share of the cut, reported in trace ``conflict`` events."""
        return sum(
            1 for lit in self.clause.literals if isinstance(lit, WordLit)
        )

    @property
    def bool_literal_count(self) -> int:
        return len(self.clause.literals) - self.word_literal_count


def _negate_event_literal(event: Event) -> BoolLit:
    """The Boolean literal falsified by this point assignment."""
    value = event.new.lo
    return BoolLit(event.var, positive=(value == 0))


def _is_bool_point(event: Event) -> bool:
    return event.var.is_bool and event.new.is_point


def _minimize_clause(
    lits_by_var: Dict[int, "Literal"],
    lit_levels: Dict[int, int],
    event_by_var: Dict[int, int],
    seen: Set[int],
    store: DomainStore,
) -> int:
    """Recursive (self-subsuming) clause minimization; returns removals.

    A clause literal is redundant when the trail event it was derived
    from is *implied* by the remaining clause literals' facts plus level
    0: every antecedent of the event is — transitively — marked from the
    analysis walk (``seen``), at level 0, or itself so supported.  The
    recursion fails at unmarked decisions/assumptions (no antecedents).

    Soundness rests on the implication graph being acyclic with
    antecedent event ids strictly below the event's own id: every
    support chain strictly descends, so proofs ground out in level-0
    facts and kept literals even when several candidates are removed
    (no circular "A supports B supports A").  Events marked during the
    analysis are themselves implied by the clause literals + level 0 —
    conflict-level marked events all lie between the 1-UIP and the
    conflict (the heap drains in descending event id, so an older
    conflict-level event would still be pending when the UIP is
    identified), and lower-level marked events either became literals
    or had all their antecedents marked.
    """
    trail = store.trail
    clause_levels = frozenset(lit_levels.values())
    #: event id -> supported? (memoized across candidates).
    cache: Dict[int, bool] = {}

    def supported(top: int) -> bool:
        # Iterative post-order DFS (implication chains can exceed the
        # Python recursion limit on deep trails).
        stack = [top]
        while stack:
            event_id = stack[-1]
            if event_id in cache:
                stack.pop()
                continue
            if event_id in seen:
                cache[event_id] = True
                stack.pop()
                continue
            event = trail[event_id]
            if event.level == 0:
                cache[event_id] = True
                stack.pop()
                continue
            if not event.antecedents or event.level not in clause_levels:
                # Unmarked decision/assumption, or a level the clause
                # does not even mention (cheap abstraction filter —
                # keeping the literal is always sound).
                cache[event_id] = False
                stack.pop()
                continue
            pending = [a for a in event.antecedents if a not in cache]
            if pending:
                stack.extend(pending)
                continue
            cache[event_id] = all(
                cache[a] for a in event.antecedents
            )
            stack.pop()
        return cache[top]

    removed = 0
    for var_index, event_id in list(event_by_var.items()):
        event = trail[event_id]
        if not event.antecedents:
            continue
        if all(supported(a) for a in event.antecedents):
            del lits_by_var[var_index]
            del lit_levels[var_index]
            del event_by_var[var_index]
            removed += 1
    return removed


def analyze_conflict(
    conflict: Conflict,
    store: DomainStore,
    hybrid_word_literals: bool = False,
    minimize: bool = True,
) -> Optional[AnalysisResult]:
    """1-UIP conflict analysis; ``None`` means the problem is UNSAT.

    ``None`` is returned when the conflict does not depend on any
    decision (it follows from the problem plus level-0 assumptions).
    """
    seen: Set[int] = set()
    heap: List[int] = []

    def mark(event_id: int) -> None:
        if event_id not in seen:
            seen.add(event_id)
            heapq.heappush(heap, -event_id)

    for antecedent in conflict.antecedents:
        mark(antecedent)

    live = [eid for eid in seen if store.trail[eid].level > 0]
    if not live:
        return None
    conflict_level = max(store.trail[eid].level for eid in live)
    pending_at_level = sum(
        1 for eid in live if store.trail[eid].level == conflict_level
    )

    lits_by_var: Dict[int, Literal] = {}
    #: var index -> level at which its literal became false (the level
    #: of the trail event it was derived from).
    lit_levels: Dict[int, int] = {}
    #: var index -> trail event the literal was derived from, for the
    #: minimization pass (the UIP is deliberately absent: the asserting
    #: literal is never a removal candidate).
    event_by_var: Dict[int, int] = {}
    uip_literal: Optional[Literal] = None

    while heap:
        event_id = -heapq.heappop(heap)
        event = store.trail[event_id]
        if event.level == 0:
            continue
        if event.level < conflict_level:
            if _is_bool_point(event):
                lit = _negate_event_literal(event)
                lits_by_var[event.var.index] = lit
                lit_levels[event.var.index] = event.level
                event_by_var[event.var.index] = event_id
            elif hybrid_word_literals or not event.antecedents:
                # Keep the narrowing itself as a (negative) word literal:
                # "not (var in event.new)".  Events with no antecedents
                # (word decisions and retractable assumptions) MUST be
                # kept even when hybrid literals are disabled — dropping
                # them would make the clause depend on an assumption it
                # does not mention, which is unsound once the assumption
                # is retracted.
                if event.var.index not in lits_by_var:
                    lits_by_var[event.var.index] = WordLit(
                        event.var, event.new, positive=False
                    )
                    lit_levels[event.var.index] = event.level
                    event_by_var[event.var.index] = event_id
            else:
                for antecedent in event.antecedents:
                    mark(antecedent)
            continue
        # Event at the conflict level.
        pending_at_level -= 1
        if (
            pending_at_level == 0
            and _is_bool_point(event)
            and uip_literal is None
        ):
            # UIP found; keep draining the heap so lower-level causes
            # still become literals.
            uip_literal = _negate_event_literal(event)
            continue
        if not event.antecedents:
            # A decision at the conflict level that is not the UIP (this
            # happens when several decisions share a level, e.g. the
            # lazy-SMT theory check): keep it as a clause literal.  A
            # word-valued event with no antecedents (an interval
            # assumption) becomes a negative word literal — it has no
            # causes to expand into, so eliding it would be unsound.
            if _is_bool_point(event):
                lits_by_var[event.var.index] = _negate_event_literal(event)
                lit_levels[event.var.index] = event.level
            elif event.var.index not in lits_by_var:
                lits_by_var[event.var.index] = WordLit(
                    event.var, event.new, positive=False
                )
                lit_levels[event.var.index] = event.level
            continue
        for antecedent in event.antecedents:
            if antecedent not in seen:
                ante_event = store.trail[antecedent]
                if ante_event.level == conflict_level:
                    pending_at_level += 1
                mark(antecedent)

    minimized = 0
    if minimize and event_by_var:
        minimized = _minimize_clause(
            lits_by_var, lit_levels, event_by_var, seen, store
        )

    literals = list(lits_by_var.values())
    if uip_literal is not None:
        literals.append(uip_literal)

    if not literals:
        return None

    if uip_literal is not None:
        backtrack_level = max(lit_levels.values(), default=0)
    else:
        # No asserting literal (conflict resolved entirely into lower
        # levels): back off one level below the deepest literal so the
        # clause re-opens.
        backtrack_level = max(0, max(lit_levels.values()) - 1)

    clause = Clause(
        literals=tuple(literals), learned=True, origin="conflict"
    )
    return AnalysisResult(
        clause=clause,
        backtrack_level=backtrack_level,
        asserting_literal=uip_literal,
        literals_minimized=minimized,
    )
