"""Hybrid clauses: disjunctions of Boolean and word literals.

Section 2.1 of the paper: a *hybrid clause* is a disjunction of Boolean
literals and word literals, where a word literal pairs a word variable
with a finite interval.  A positive word literal ``{w, b}`` asserts that
``w`` takes a value in ``b``; a negative literal asserts a value in
``D(w) \\ b``.

Against a monotonically narrowing domain store, literal status is
three-valued and monotone (unassigned can become true or false, and then
never changes), which is what makes watched-literal propagation sound for
hybrid clauses exactly as for Boolean ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import SolverError
from repro.intervals import Interval
from repro.constraints.store import Conflict, DomainStore, Event
from repro.constraints.variable import Variable

TRUE = 1
FALSE = 0
UNASSIGNED = -1

#: Sentinel: a falsified watch migrated to another literal.
_MOVED = object()


@dataclass(frozen=True)
class BoolLit:
    """A Boolean literal: ``var`` (positive) or ``¬var`` (negative)."""

    var: Variable
    positive: bool = True

    def negated(self) -> "BoolLit":
        return BoolLit(self.var, not self.positive)

    def status(self, store: DomainStore) -> int:
        value = store.bool_value(self.var)
        if value is None:
            return UNASSIGNED
        satisfied = bool(value) == self.positive
        return TRUE if satisfied else FALSE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        prefix = "" if self.positive else "~"
        return f"{prefix}{self.var.name}"


@dataclass(frozen=True)
class WordLit:
    """A word literal ``{var, interval}`` or its negation.

    Positive: true when ``D(var) ⊆ interval``; false when
    ``D(var) ∩ interval = ∅``.  Negative literals are the dual.
    """

    var: Variable
    interval: Interval
    positive: bool = True

    def negated(self) -> "WordLit":
        return WordLit(self.var, self.interval, not self.positive)

    def status(self, store: DomainStore) -> int:
        domain = store.domain(self.var)
        if self.positive:
            if self.interval.contains_interval(domain):
                return TRUE
            if not self.interval.intersects(domain):
                return FALSE
            return UNASSIGNED
        if not self.interval.intersects(domain):
            return TRUE
        if self.interval.contains_interval(domain):
            return FALSE
        return UNASSIGNED

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        relation = "in" if self.positive else "notin"
        return f"({self.var.name} {relation} {self.interval})"


Literal = Union[BoolLit, WordLit]


def make_bool_lit(var: Variable, value: int) -> BoolLit:
    """The literal satisfied when ``var == value``."""
    return BoolLit(var, positive=bool(value))


#: Clause-database tiers (Glucose-style).  Core clauses ("glue", LBD at
#: or below the core threshold) are never evicted; mid clauses survive
#: routine reductions but are demoted to local when stale; local clauses
#: are the eviction pool.
TIER_CORE = 0
TIER_MID = 1
TIER_LOCAL = 2


@dataclass(eq=False)
class Clause:
    """A hybrid clause with optional learned-clause bookkeeping."""

    literals: Tuple[Literal, ...]
    learned: bool = False
    #: Provenance tag: "predicate-learning", "conflict", "j-conflict",
    #: "shared" (imported from a portfolio peer), ...
    origin: str = "problem"
    activity: float = 0.0
    #: Literal-block distance at learning time (0 = not computed);
    #: the portfolio export filter caps on it.
    lbd: int = 0
    #: Database tier (:data:`TIER_CORE` / :data:`TIER_MID` /
    #: :data:`TIER_LOCAL`), assigned from ``lbd`` at install time.
    tier: int = TIER_LOCAL
    #: Reductions this (mid-tier) clause sat through without its
    #: activity moving; at the staleness limit it is demoted.
    stale_rounds: int = 0
    #: Activity level at the last staleness check.
    activity_mark: float = 0.0

    def __post_init__(self) -> None:
        if not self.literals:
            raise SolverError("empty clause constructed directly")
        seen = set()
        unique: List[Literal] = []
        for literal in self.literals:
            key = (
                literal.var.index,
                literal.positive,
                getattr(literal, "interval", None),
            )
            if key not in seen:
                seen.add(key)
                unique.append(literal)
        self.literals = tuple(unique)

    def status(self, store: DomainStore) -> int:
        """TRUE if any literal true, FALSE if all false, else UNASSIGNED."""
        any_unassigned = False
        for literal in self.literals:
            state = literal.status(store)
            if state == TRUE:
                return TRUE
            if state == UNASSIGNED:
                any_unassigned = True
        return UNASSIGNED if any_unassigned else FALSE

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = " | ".join(repr(literal) for literal in self.literals)
        return f"Clause[{body}]"


def _propagate_literal(
    clause: Clause, literal: Literal, store: DomainStore
) -> object:
    """Make the last unassigned literal of a unit clause true."""
    involved = [lit.var for lit in clause.literals]
    if isinstance(literal, BoolLit):
        return store.assign_bool(
            literal.var, 1 if literal.positive else 0, clause, involved
        )
    if literal.positive:
        return store.narrow(literal.var, literal.interval, clause, involved)
    # Negative word literal: remove the interval where representable.
    remainder = store.domain(literal.var).difference(literal.interval)
    if remainder is None:
        # Domain entirely inside the excluded interval: conflict.
        antecedents = tuple(
            event_id
            for var in involved
            if (event_id := store.latest_event[var.index]) is not None
        )
        return Conflict(source=clause, antecedents=antecedents, var=literal.var)
    return store.narrow(literal.var, remainder, clause, involved)


class ClauseDatabase:
    """Clause storage with two-watched-literal propagation.

    Every clause watches two of its literals; a clause is only *visited*
    when a watched variable's domain changes, and only *examined* when
    that event actually falsified the watched literal.  Because literal
    status is monotone under narrowing, the standard invariant (watch two
    non-false literals, or the clause is satisfied / was handled when a
    watch fell) carries over unchanged from Boolean CDCL: a kept-false
    watch is only ever kept when the other watch is true or the clause
    was unit-propagated, and in both cases the falsifying event is at the
    current decision level, so backtracking unassigns it no later than
    the fact that justified keeping it.

    Watch lists are maintained in place: a moved watch is appended to its
    new variable's list and swap-removed from the old one in O(1), never
    via a linear pop-scan.
    """

    def __init__(self, store: DomainStore):
        self.store = store
        self.clauses: List[Clause] = []
        #: var index -> list of [clause, watch position] entries.
        self.watches: Dict[int, List[List[object]]] = {}
        #: id(clause) -> its two watched literal positions.
        self._watch_positions: Dict[int, Tuple[int, int]] = {}
        #: Perf counters: watch-list entries inspected / watches moved.
        self.clause_visits = 0
        self.watch_moves = 0
        #: Learned clauses dropped by reduction/cap eviction.
        self.clauses_evicted = 0
        #: Mid-tier clauses demoted to the local tier for staleness.
        self.clauses_demoted = 0
        #: Tier thresholds (see :class:`repro.core.config.SolverConfig`);
        #: the owning solver overrides these from its config.
        self.core_lbd_max = 2
        self.mid_lbd_max = 6
        self.mid_staleness = 2

    # ------------------------------------------------------------------
    # Literal status against the flat domain arrays
    # ------------------------------------------------------------------
    def _lit_status(self, literal: Literal) -> int:
        """Status of one literal, read off ``store.lo``/``store.hi``."""
        store = self.store
        index = literal.var.index
        lo = store.lo[index]
        hi = store.hi[index]
        if type(literal) is BoolLit:
            if lo != hi:
                return UNASSIGNED
            return TRUE if bool(lo) == literal.positive else FALSE
        interval = literal.interval
        if literal.positive:
            if interval.lo <= lo and hi <= interval.hi:
                return TRUE
            if interval.hi < lo or hi < interval.lo:
                return FALSE
            return UNASSIGNED
        if interval.hi < lo or hi < interval.lo:
            return TRUE
        if interval.lo <= lo and hi <= interval.hi:
            return FALSE
        return UNASSIGNED

    # ------------------------------------------------------------------
    # Clause installation
    # ------------------------------------------------------------------
    def add_clause(self, clause: Clause) -> Optional[Conflict]:
        """Install a clause; may immediately propagate or conflict.

        The clause may be unit or even false under the current trail
        (learned clauses usually are); the caller must then backtrack
        and re-propagate as appropriate.  Watches are placed on non-false
        literals whenever any exist, establishing the invariant at entry.
        """
        if clause.learned and clause.origin in self._DISPOSABLE_ORIGINS:
            self._assign_tier(clause)
        self.clauses.append(clause)
        literals = clause.literals
        true_pos = -1
        open1 = -1
        open2 = -1
        for position, literal in enumerate(literals):
            status = self._lit_status(literal)
            if status == TRUE:
                true_pos = position
                break
            if status == UNASSIGNED:
                if open1 < 0:
                    open1 = position
                elif open2 < 0:
                    open2 = position
        if true_pos >= 0:
            other = open1 if open1 >= 0 else (true_pos + 1) % len(literals)
            self._attach(clause, true_pos, other)
            return None
        if open1 < 0:
            # Every literal false under the current trail.
            self._attach(clause, 0, min(1, len(literals) - 1))
            return self._conflict(clause)
        if open2 < 0:
            # Unit: assert the single open literal.
            other = (open1 + 1) % len(literals) if len(literals) > 1 else open1
            self._attach(clause, open1, other)
            outcome = _propagate_literal(clause, literals[open1], self.store)
            if isinstance(outcome, Conflict):
                return outcome
            return None
        self._attach(clause, open1, open2)
        return None

    def _attach(self, clause: Clause, first: int, second: int) -> None:
        """Register fresh watch entries for a newly installed clause."""
        self._watch_positions[id(clause)] = (first, second)
        for position in {first, second}:
            var = clause.literals[position].var
            self.watches.setdefault(var.index, []).append([clause, position])

    def _set_watches(self, clause: Clause, first: int, second: int) -> None:
        """Repoint both watches (slow path, used by the reference scan)."""
        self._detach(clause)
        self._attach(clause, first, second)

    def _detach(self, clause: Clause) -> None:
        positions = self._watch_positions.pop(id(clause), None)
        if positions is None:
            return
        for position in set(positions):
            var = clause.literals[position].var
            entries = self.watches.get(var.index, [])
            for i, entry in enumerate(entries):
                if entry[0] is clause and entry[1] == position:
                    last = entries.pop()
                    if i < len(entries):
                        entries[i] = last
                    break

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def on_var_event(self, var: Variable) -> Optional[Conflict]:
        """Visit the clauses watching ``var``; returns a conflict or None.

        Only clauses whose *watched literal on this variable* was
        falsified by the event are examined; everything else is a
        two-int-compare skip.
        """
        entries = self.watches.get(var.index)
        if not entries:
            return None
        i = 0
        visits = 0
        lo_arr = self.store.lo
        hi_arr = self.store.hi
        while i < len(entries):
            entry = entries[i]
            clause: Clause = entry[0]  # type: ignore[assignment]
            position: int = entry[1]  # type: ignore[assignment]
            visits += 1
            # Inlined ``_lit_status(...) == FALSE`` — the overwhelmingly
            # common skip must not pay a method call per entry.
            literal = clause.literals[position]
            index = literal.var.index
            vlo = lo_arr[index]
            vhi = hi_arr[index]
            if type(literal) is BoolLit:
                falsified = vlo == vhi and bool(vlo) != literal.positive
            else:
                interval = literal.interval
                if literal.positive:
                    falsified = interval.hi < vlo or vhi < interval.lo
                else:
                    falsified = interval.lo <= vlo and vhi <= interval.hi
            if not falsified:
                i += 1
                continue
            outcome = self._on_watch_falsified(clause, position, entries, i)
            if outcome is _MOVED:
                # Entry i was swap-replaced; re-examine the same slot.
                continue
            if outcome is not None:
                self.clause_visits += visits
                return outcome
            i += 1
        self.clause_visits += visits
        return None

    def _on_watch_falsified(
        self,
        clause: Clause,
        position: int,
        entries: List[List[object]],
        entry_index: int,
    ) -> object:
        """Handle one falsified watch: rewatch, satisfy, unit, or conflict.

        Returns ``_MOVED`` when the watch migrated (the caller's entry was
        swap-removed), ``None`` when the clause is satisfied or was unit
        propagated (watches kept), or a :class:`Conflict`.
        """
        first, second = self._watch_positions[id(clause)]
        other = second if position == first else first
        literals = clause.literals
        if other != position:
            other_status = self._lit_status(literals[other])
            if other_status == TRUE:
                # Satisfied; the kept-false watch is at the current level,
                # which cannot outlive the satisfying assignment.
                return None
        else:
            other_status = FALSE
        for replacement in range(len(literals)):
            if replacement == position or replacement == other:
                continue
            if self._lit_status(literals[replacement]) == FALSE:
                continue
            # Move this watch to the non-false replacement literal.
            self.watch_moves += 1
            if position == first:
                self._watch_positions[id(clause)] = (replacement, second)
            else:
                self._watch_positions[id(clause)] = (first, replacement)
            target = literals[replacement].var.index
            self.watches.setdefault(target, []).append([clause, replacement])
            # Swap-remove the old entry.  When the replacement is on the
            # same variable, the pop below grabs the entry just appended
            # and lands it in the vacated slot — still correct.
            last = entries.pop()
            if entry_index < len(entries):
                entries[entry_index] = last
            return _MOVED
        # No replacement: the clause is unit on ``other`` or conflicting.
        if other == position or other_status == FALSE:
            return self._conflict(clause)
        outcome = _propagate_literal(clause, literals[other], self.store)
        if isinstance(outcome, Conflict):
            return outcome
        return None

    def _examine(self, clause: Clause) -> Optional[Conflict]:
        """Reference full scan: satisfied, unit, conflicting, or rewatch.

        Used by :meth:`recheck_all` (the naive reference path the
        differential tests compare against) and safe in any watch state.
        """
        literals = clause.literals
        open1 = -1
        open2 = -1
        for position, literal in enumerate(literals):
            status = self._lit_status(literal)
            if status == TRUE:
                return None
            if status == UNASSIGNED:
                if open1 < 0:
                    open1 = position
                elif open2 < 0:
                    open2 = position
        if open1 < 0:
            return self._conflict(clause)
        if open2 < 0:
            outcome = _propagate_literal(clause, literals[open1], self.store)
            if isinstance(outcome, Conflict):
                return outcome
            return None
        self._set_watches(clause, open1, open2)
        return None

    def _conflict(self, clause: Clause) -> Conflict:
        antecedents = tuple(
            event_id
            for literal in clause.literals
            if (event_id := self.store.latest_event[literal.var.index])
            is not None
        )
        return Conflict(source=clause, antecedents=antecedents)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def recheck_all(self) -> Optional[Conflict]:
        """Examine every clause (used after backtracking past watches)."""
        for clause in self.clauses:
            conflict = self._examine(clause)
            if conflict is not None:
                return conflict
        return None

    def remove_clause(self, clause: Clause) -> None:
        """Detach a clause from the database and its watch lists."""
        self._detach(clause)
        try:
            self.clauses.remove(clause)
        except ValueError:  # pragma: no cover - defensive
            pass

    #: Learned-clause origins eligible for eviction.  Problem clauses,
    #: static-learning relations and their shifted copies stay.
    _DISPOSABLE_ORIGINS = (
        "conflict",
        "fme-conflict",
        "j-conflict",
        "conflict-shifted",
        "shared",
    )

    def _reason_clauses(self) -> Set[int]:
        """Ids of clauses currently serving as a trail-event reason.

        These are never evicted: while deletion would still be sound
        (conflict analysis references trail events, not clause objects),
        keeping the reason alive preserves the invariant that every
        implied event's justification is inspectable for the lifetime of
        the assignment — long incremental sessions rely on it.
        """
        return {
            id(event.reason)
            for event in self.store.trail
            if isinstance(event.reason, Clause)
        }

    def _disposable(self, include_core: bool = False) -> List[Clause]:
        """Eviction-eligible learned clauses.

        Core-tier ("glue") clauses are excluded unless ``include_core``
        — they are never evicted, but the tier-size and mean-LBD
        accessors still want to see them.
        """
        protected = self._reason_clauses()
        return [
            clause
            for clause in self.clauses
            if clause.learned
            and len(clause.literals) > 1
            and clause.origin in self._DISPOSABLE_ORIGINS
            and (include_core or clause.tier != TIER_CORE)
            and id(clause) not in protected
        ]

    def _assign_tier(self, clause: Clause) -> None:
        """Place a learned clause in its LBD tier at install time.

        An LBD of 0 means "not computed" (e.g. predicate or shifted clauses);
        such clauses go to the local tier rather than masquerading as
        glue.  Binary clauses are core regardless of recorded LBD —
        they are cheap to keep and as strong as glue.
        """
        if len(clause.literals) <= 2 or (
            0 < clause.lbd <= self.core_lbd_max
        ):
            clause.tier = TIER_CORE
        elif clause.lbd <= self.mid_lbd_max:
            clause.tier = TIER_MID
            clause.activity_mark = clause.activity
        else:
            clause.tier = TIER_LOCAL

    def tier_sizes(self) -> Tuple[int, int, int]:
        """(core, mid, local) sizes of the disposable learned set."""
        core = mid = local = 0
        for clause in self._disposable(include_core=True):
            if clause.tier == TIER_CORE:
                core += 1
            elif clause.tier == TIER_MID:
                mid += 1
            else:
                local += 1
        return core, mid, local

    def mean_lbd(self) -> float:
        """Mean recorded LBD over disposable learned clauses (0.0 when
        none carry one)."""
        total = 0
        count = 0
        for clause in self._disposable(include_core=True):
            if clause.lbd > 0:
                total += clause.lbd
                count += 1
        return total / count if count else 0.0

    def _demote_stale(self, candidates: List[Clause]) -> None:
        """Demote mid-tier clauses whose activity stopped moving.

        Called once per reduction round: a mid clause that sat through
        ``mid_staleness`` consecutive rounds without a single activity
        bump joins the local (evictable) tier.
        """
        for clause in candidates:
            if clause.tier != TIER_MID:
                continue
            if clause.activity > clause.activity_mark:
                clause.activity_mark = clause.activity
                clause.stale_rounds = 0
                continue
            clause.stale_rounds += 1
            if clause.stale_rounds >= self.mid_staleness:
                clause.tier = TIER_LOCAL
                self.clauses_demoted += 1

    #: Eviction order inside the eligible set: local before mid, then
    #: highest LBD first, lowest activity first.
    @staticmethod
    def _evict_key(clause: Clause) -> Tuple[int, int, float]:
        return (-clause.tier, -clause.lbd, clause.activity)

    def _evict(self, candidates: List[Clause], drop_count: int) -> int:
        if drop_count <= 0:
            return 0
        candidates.sort(key=self._evict_key)
        for clause in candidates[:drop_count]:
            self.remove_clause(clause)
        self.clauses_evicted += drop_count
        return drop_count

    def reduce_learned(self, keep_fraction: float = 0.5) -> int:
        """One clause-database reduction round.

        Mid-tier staleness is aged first (stale mid clauses drop to
        local), then the worse ``1 - keep_fraction`` of the *local* tier
        is evicted (highest LBD, then lowest activity).  Core clauses
        and the surviving mid tier are untouched.  Only multi-literal
        conflict-learned clauses are ever candidates: problem clauses,
        static-learning relations and unit facts stay, as does any
        clause currently justifying a trail event.  Deletion is always
        sound (learned clauses are consequences).  Returns the number
        removed.
        """
        candidates = self._disposable()
        self._demote_stale(candidates)
        local = [c for c in candidates if c.tier == TIER_LOCAL]
        if len(local) < 8:
            return 0
        drop_count = int(len(local) * (1.0 - keep_fraction))
        return self._evict(local, drop_count)

    def enforce_cap(self, max_learned: int) -> int:
        """Tiered eviction down to ``max_learned`` evictable (mid +
        local) disposable clauses (0 disables).  Core-tier clauses never
        count toward the cap and are never dropped.  Used by long-lived
        sessions so the clause database cannot drown in dead lemmas as
        frames accumulate.  Returns the number removed."""
        if max_learned <= 0:
            return 0
        candidates = self._disposable()
        overshoot = len(candidates) - max_learned
        if overshoot <= 0:
            return 0
        # Drop down to half the cap so the cap is not re-hit immediately.
        drop_count = min(
            len(candidates), overshoot + max_learned // 2
        )
        return self._evict(candidates, drop_count)

    def __len__(self) -> int:
        return len(self.clauses)
