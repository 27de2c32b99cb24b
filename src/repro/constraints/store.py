"""The domain store and trail: hybrid assignments with reasons.

Every change to a variable's domain — a Boolean assignment or an interval
narrowing — is recorded as an :class:`Event` on a trail, together with the
decision level and the *antecedent events* that caused it.  The events and
their antecedent edges form exactly the hybrid implication graph of
Section 2.4 of the paper ("a node represents a value assignment to a
variable ... a directed edge exists from n_a to n_c if n_a is part of the
value assignments that imply n_c"); conflict analysis walks it backwards.

Narrowing is monotonic (Section 2.2): an event's ``new`` interval is
always a strict subset of its ``old`` interval, so backtracking simply
restores ``old`` in reverse trail order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.errors import SolverError
from repro.intervals import Interval
from repro.constraints.variable import Variable

#: Reason tags for events that are not implied by a constraint.
DECISION = "decision"
ASSUMPTION = "assumption"

#: Event-kind bits: which aspect of the domain a narrowing changed.
#: Propagators declare which kinds they wake on per watched variable, so
#: the engine can skip wakeups for irrelevant bound movements.
EVENT_LOWER = 1   #: lower bound raised
EVENT_UPPER = 2   #: upper bound dropped
EVENT_FIXED = 4   #: domain collapsed to a single point
EVENT_BOOL = 8    #: a Boolean variable was assigned (implies FIXED)
EVENT_ANY = EVENT_LOWER | EVENT_UPPER | EVENT_FIXED | EVENT_BOOL


@dataclass(eq=False, slots=True)
class Event:
    """One domain change on the trail (a node of the implication graph)."""

    id: int
    var: Variable
    old: Interval
    new: Interval
    level: int
    #: The constraint object (propagator or clause) that implied this
    #: event, or the string tags DECISION / ASSUMPTION.
    reason: object
    #: Ids of the events this one was derived from (implication edges).
    antecedents: Tuple[int, ...]
    #: EVENT_* bits describing the change (for wakeup filtering).
    kinds: int = EVENT_ANY
    #: Id of this variable's previous event at narrow time (None when
    #: this is the variable's first narrowing) — lets backtracking
    #: restore ``latest_event`` in O(1) per popped event.
    prev_on_var: Optional[int] = None

    @property
    def is_decision(self) -> bool:
        return self.reason is DECISION

    @property
    def is_assumption(self) -> bool:
        return self.reason is ASSUMPTION

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Event#{self.id}({self.var.name}: {self.old} -> {self.new} "
            f"@L{self.level})"
        )


@dataclass(eq=False)
class Conflict:
    """An empty domain found during deduction.

    ``source`` is the constraint that detected it; ``antecedents`` are the
    trail events whose conjunction is sufficient for the conflict (the cut
    starting point for conflict analysis).
    """

    source: object
    antecedents: Tuple[int, ...]
    var: Optional[Variable] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        name = self.var.name if self.var is not None else "?"
        return f"Conflict({name} via {self.source!r})"


NarrowOutcome = Union[None, Event, Conflict]


class DomainStore:
    """Current domains of all variables plus the trail."""

    def __init__(self, variables: Sequence[Variable]):
        self.variables = list(variables)
        for position, var in enumerate(self.variables):
            if var.index != position:
                raise SolverError("variable indices must be dense and ordered")
        self.domains: List[Interval] = [v.initial_domain for v in self.variables]
        #: Flat bound arrays — the hot-path representation.  ``domains``
        #: holds the equivalent interned :class:`Interval` objects for
        #: callers that want value objects; ``narrow``/``backtrack_to``
        #: keep all three in lockstep.
        self.lo: List[int] = [d.lo for d in self.domains]
        self.hi: List[int] = [d.hi for d in self.domains]
        self._is_bool: List[bool] = [v.is_bool for v in self.variables]
        self.trail: List[Event] = []
        #: Latest event id per variable (or None if never narrowed).
        self.latest_event: List[Optional[int]] = [None] * len(self.variables)
        self.decision_level = 0
        #: trail length at the start of each level; _level_marks[0] == 0.
        self._level_marks: List[int] = [0]
        #: Monotone count of narrowing events ever recorded (backtracking
        #: does not decrement) — the denominator-free throughput counter
        #: behind the harness's narrowings/sec metric.
        self.narrowings = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def domain(self, var: Variable) -> Interval:
        """Current interval of ``var``."""
        return self.domains[var.index]

    def is_assigned(self, var: Variable) -> bool:
        """True when the domain is a single value."""
        index = var.index
        return self.lo[index] == self.hi[index]

    def value(self, var: Variable) -> Optional[int]:
        """The assigned value, or ``None`` when not yet a point."""
        index = var.index
        lo = self.lo[index]
        return lo if lo == self.hi[index] else None

    def bool_value(self, var: Variable) -> Optional[int]:
        """Value of a Boolean variable (0/1) or ``None``."""
        index = var.index
        lo = self.lo[index]
        return lo if lo == self.hi[index] else None

    def event(self, event_id: int) -> Event:
        return self.trail[event_id]

    def level_of_var(self, var: Variable) -> Optional[int]:
        """Level of the latest event on ``var`` (None if at initial domain)."""
        latest = self.latest_event[var.index]
        return None if latest is None else self.trail[latest].level

    def events_at_level(self, level: int) -> Iterable[Event]:
        start = self._level_marks[level]
        end = (
            self._level_marks[level + 1]
            if level + 1 < len(self._level_marks)
            else len(self.trail)
        )
        return self.trail[start:end]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def _antecedents_for(
        self, var: Variable, reason: object, involved: Optional[Sequence[Variable]]
    ) -> Tuple[int, ...]:
        """Collect implication-graph edges for a new event on ``var``.

        The antecedents are the latest events of every variable involved
        in the implying constraint (including the narrowed variable's own
        previous event, whose interval was part of the derivation).
        """
        if reason is DECISION or reason is ASSUMPTION:
            return ()
        antecedents: List[int] = []
        own_previous = self.latest_event[var.index]
        if own_previous is not None:
            antecedents.append(own_previous)
        if involved is not None:
            for other in involved:
                if other is var:
                    continue
                latest = self.latest_event[other.index]
                if latest is not None:
                    antecedents.append(latest)
        return tuple(antecedents)

    def narrow(
        self,
        var: Variable,
        new_domain: Interval,
        reason: object,
        involved: Optional[Sequence[Variable]] = None,
    ) -> NarrowOutcome:
        """Shrink ``var``'s domain to ``domain ∩ new_domain``.

        Returns ``None`` when nothing changed, the recorded :class:`Event`
        when the domain shrank, or a :class:`Conflict` when the
        intersection is empty.  ``involved`` lists the other variables of
        the implying constraint (for implication-graph edges); pass the
        constraint's variable tuple.
        """
        return self.narrow_bounds(
            var, new_domain.lo, new_domain.hi, reason, involved
        )

    def narrow_bounds(
        self,
        var: Variable,
        new_lo: int,
        new_hi: int,
        reason: object,
        involved: Optional[Sequence[Variable]] = None,
    ) -> NarrowOutcome:
        """:meth:`narrow` taking raw bounds — the allocation-free entry
        point for propagators that compute bounds as plain ints."""
        index = var.index
        cur_lo = self.lo[index]
        cur_hi = self.hi[index]
        meet_lo = cur_lo if cur_lo >= new_lo else new_lo
        meet_hi = cur_hi if cur_hi <= new_hi else new_hi
        if meet_lo == cur_lo and meet_hi == cur_hi:
            # No change — the overwhelmingly common case, decided here on
            # four int comparisons without allocating an interval.
            return None
        antecedents = self._antecedents_for(var, reason, involved)
        if meet_lo > meet_hi:
            return Conflict(source=reason, antecedents=antecedents, var=var)
        kinds = 0
        if meet_lo > cur_lo:
            kinds |= EVENT_LOWER
        if meet_hi < cur_hi:
            kinds |= EVENT_UPPER
        if meet_lo == meet_hi:
            kinds |= EVENT_FIXED
            if self._is_bool[index]:
                kinds |= EVENT_BOOL
        meet = Interval.make(meet_lo, meet_hi)
        event = Event(
            id=len(self.trail),
            var=var,
            old=self.domains[index],
            new=meet,
            level=self.decision_level,
            reason=reason,
            antecedents=antecedents,
            kinds=kinds,
            prev_on_var=self.latest_event[index],
        )
        self.trail.append(event)
        self.narrowings += 1
        self.domains[index] = meet
        self.lo[index] = meet_lo
        self.hi[index] = meet_hi
        self.latest_event[index] = event.id
        return event

    def assign_bool(
        self,
        var: Variable,
        value: int,
        reason: object,
        involved: Optional[Sequence[Variable]] = None,
    ) -> NarrowOutcome:
        """Assign a Boolean variable to 0 or 1."""
        if value not in (0, 1):
            raise SolverError(f"Boolean assignment must be 0/1, got {value}")
        return self.narrow(var, Interval.point(value), reason, involved)

    def decide_bool(self, var: Variable, value: int) -> Event:
        """Open a new decision level and assign ``var``."""
        self.push_level()
        outcome = self.assign_bool(var, value, DECISION)
        if not isinstance(outcome, Event):
            raise SolverError(
                f"decision on {var.name} had no effect or conflicted "
                f"(domain {self.domain(var)})"
            )
        return outcome

    def assume(self, var: Variable, domain: Interval) -> NarrowOutcome:
        """Level-0 assumption (the proposition being checked)."""
        if self.decision_level != 0:
            raise SolverError("assumptions must be made at level 0")
        return self.narrow(var, domain, ASSUMPTION)

    def add_variables(self, variables: Sequence[Variable]) -> None:
        """Append freshly compiled variables (frame-extension path).

        Only legal at level 0: extension must not interleave with an open
        search, and the new variables start at their initial domains with
        no trail history.
        """
        if self.decision_level != 0:
            raise SolverError("variables can only be added at level 0")
        for var in variables:
            if var.index != len(self.variables):
                raise SolverError(
                    f"extension variable {var.name} has index {var.index}, "
                    f"expected {len(self.variables)}"
                )
            self.variables.append(var)
            domain = var.initial_domain
            self.domains.append(domain)
            self.lo.append(domain.lo)
            self.hi.append(domain.hi)
            self._is_bool.append(var.is_bool)
            self.latest_event.append(None)

    # ------------------------------------------------------------------
    # Levels and backtracking
    # ------------------------------------------------------------------
    def push_level(self) -> int:
        """Open a new decision level."""
        self.decision_level += 1
        self._level_marks.append(len(self.trail))
        return self.decision_level

    def backtrack_to(self, level: int) -> List[Event]:
        """Undo every event above ``level`` (which becomes current).

        Returns the popped trail segment, oldest first, so decision
        heuristics can update their bookkeeping for exactly the
        variables the backjump unassigned.
        """
        if level < 0 or level > self.decision_level:
            raise SolverError(
                f"cannot backtrack to level {level} from {self.decision_level}"
            )
        if level == self.decision_level:
            return []
        keep = self._level_marks[level + 1]
        popped = self.trail[keep:]
        for event in reversed(popped):
            index = event.var.index
            old = event.old
            self.domains[index] = old
            self.lo[index] = old.lo
            self.hi[index] = old.hi
            # ``prev_on_var`` was recorded at narrow() time, so restoring
            # the per-variable event chain is O(1) per popped event
            # instead of a scan over the event's antecedents.
            self.latest_event[index] = event.prev_on_var
        del self.trail[keep:]
        del self._level_marks[level + 1 :]
        self.decision_level = level
        return popped

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def num_assigned(self) -> int:
        return sum(1 for lo, hi in zip(self.lo, self.hi) if lo == hi)

    def snapshot(self) -> List[Interval]:
        """Copy of all current domains (for tests and diagnostics)."""
        return list(self.domains)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DomainStore({len(self.variables)} vars, level "
            f"{self.decision_level}, {len(self.trail)} events)"
        )
