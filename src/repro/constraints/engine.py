"""Event-driven hybrid constraint propagation (the paper's ``Ddeduce``).

The engine maintains a two-tier worklist of propagators.  Whenever a
variable's domain changes (by decision, assumption, clause propagation or
another propagator) the propagators registered on that variable whose
*wake mask* matches the event's kind bits are enqueued; the loop runs
until no further narrowing is possible (bounds consistency, Section 2.2)
or a conflict is found.

Two scheduling disciplines keep the fixpoint loop off the slow path:

* **Event-kind filtering** — each propagator declares, per watched
  variable, which domain changes matter to it (``EVENT_LOWER``,
  ``EVENT_UPPER``, ``EVENT_FIXED``, ``EVENT_BOOL``); non-matching events
  cost one mask test.  A propagator that just narrowed a variable is not
  re-woken by its own event: every propagator family leaves its
  constraint at a local fixpoint before returning (``idempotent``).
* **Two queue tiers** — cheap Boolean propagation (tier 0) drains fully
  before any expensive ICP propagator (tier 1) runs, so interval
  propagators always see the largest consistent set of Boolean facts and
  run fewer times.  Clause (BCP) propagation happens inline during event
  dispatch and therefore ahead of both tiers.

The inner loop comes in two bit-for-bit equivalent implementations
(same trail, same conflicts, same counters) selected by
``SolverConfig.engine_impl``:

* ``"specialized"`` (the default) — per-propagator kernels generated by
  :func:`repro.constraints.compile.build_kernels` (direct array
  indexing, no Interval churn).
* ``"reference"`` — the oracle the tests compare against: dynamic
  dispatch through each propagator's ``propagate`` method.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.errors import SolverError
from repro.constraints.clause import Clause, ClauseDatabase
from repro.constraints.compile import build_kernels
from repro.constraints.propagators import Propagator
from repro.constraints.store import Conflict, DomainStore
from repro.constraints.variable import Variable

#: Recognised values of ``SolverConfig.engine_impl``, default first.
ENGINE_IMPLS = ("specialized", "reference")


class PropagationEngine:
    """Runs BCP + ICP to a fixpoint over propagators and hybrid clauses."""

    def __init__(
        self,
        store: DomainStore,
        propagators: Sequence[Propagator],
        impl: str = ENGINE_IMPLS[0],
    ):
        if impl not in ENGINE_IMPLS:
            raise SolverError(
                f"unknown engine_impl {impl!r}; expected one of {ENGINE_IMPLS}"
            )
        self.store = store
        self.propagators: List[Propagator] = list(propagators)
        self.clause_db = ClauseDatabase(store)
        #: var index -> [(propagator position, wake mask)].
        self._watchers: Dict[int, List[Tuple[int, int]]] = {}
        for position, propagator in enumerate(self.propagators):
            for var in propagator.variables:
                self._watchers.setdefault(var.index, []).append(
                    (position, propagator.wake_mask(var))
                )
        #: Tier queues: 0 = cheap Boolean, 1 = expensive ICP.
        self._queues: Tuple[Deque[int], Deque[int]] = (deque(), deque())
        self._tier: List[int] = [p.priority for p in self.propagators]
        #: Queued-membership flags, indexed by position (a flat byte per
        #: propagator is measurably cheaper than a set on the hot loop).
        self._queued = bytearray(len(self.propagators))
        #: position -> the propagator when idempotent else None; folds
        #: the self-wake test into one identity compare per candidate.
        self._idem: List[Optional[Propagator]] = [
            p if p.idempotent else None for p in self.propagators
        ]
        #: Trail index up to which events have been dispatched.
        self._dispatched = 0
        #: Statistics.
        self.propagation_count = 0
        self.wakeup_count = 0
        #: Wall-time split (only accrued once :meth:`enable_timing` ran):
        #: ``bcp_time`` covers event dispatch (clause propagation) plus
        #: tier-0 Boolean propagators, ``icp_time`` the tier-1 interval
        #: propagators.
        self.bcp_time = 0.0
        self.icp_time = 0.0
        self._timed = False
        #: position -> callable(store) -> Optional[Conflict]; None on the
        #: reference path.
        self._fns: Optional[List] = (
            build_kernels(self.propagators, store)
            if impl == "specialized"
            else None
        )

    def enable_timing(self) -> None:
        """Switch :meth:`propagate` to the timed path (phase profiling).

        The untimed path stays completely free of clock reads; enabling
        is one-way for the lifetime of the engine.
        """
        self._timed = True

    # ------------------------------------------------------------------
    # Worklist management
    # ------------------------------------------------------------------
    def _enqueue(self, position: int) -> None:
        if not self._queued[position]:
            self._queued[position] = 1
            self.wakeup_count += 1
            self._queues[self._tier[position]].append(position)

    def enqueue_watchers_of(self, var: Variable) -> None:
        """Schedule every propagator watching ``var`` (mask-agnostic)."""
        for position, _mask in self._watchers.get(var.index, ()):
            self._enqueue(position)

    def enqueue_all(self) -> None:
        """Schedule every propagator (initial deduction / after learning)."""
        for position in range(len(self.propagators)):
            self._enqueue(position)

    def extend(self, propagators: Sequence[Propagator]) -> None:
        """Register freshly compiled propagators (frame-extension path).

        The new propagators are scheduled immediately so the next
        :meth:`propagate` folds the appended frame into the fixpoint.
        With kernels, the appended suffix gets its own.
        """
        appended = list(propagators)
        base = len(self.propagators)
        self._queued.extend(bytes(len(appended)))
        for offset, propagator in enumerate(appended):
            position = base + offset
            self.propagators.append(propagator)
            self._tier.append(propagator.priority)
            self._idem.append(propagator if propagator.idempotent else None)
            for var in propagator.variables:
                self._watchers.setdefault(var.index, []).append(
                    (position, propagator.wake_mask(var))
                )
            self._enqueue(position)
        if self._fns is not None:
            self._fns.extend(build_kernels(appended, self.store))

    def notify_backtrack(self) -> None:
        """Reset dispatch bookkeeping after the trail shrank.

        Also lifts every :meth:`suspend` mark.
        """
        self._dispatched = min(self._dispatched, len(self.store.trail))
        self._queues[0].clear()
        self._queues[1].clear()
        self._queued[:] = bytes(len(self._queued))

    def suspend(self, mask: bytes) -> None:
        """Keep the propagators flagged in ``mask`` asleep until the next
        :meth:`notify_backtrack`.

        ``mask`` holds one byte per propagator position, 1 for a
        position to suspend.  A suspended position is marked queued
        without entering a queue, so every wake-up path (the event
        dispatch of all three loops, :meth:`_enqueue`) skips it and no
        loop pays a test of its own.  The worklist must be empty: a
        flag cleared here would let a queued position enter twice.
        """
        if len(mask) != len(self._queued):
            raise SolverError(
                f"suspend mask covers {len(mask)} of "
                f"{len(self._queued)} propagators"
            )
        assert not (self._queues[0] or self._queues[1])
        self._queued[:] = mask

    # ------------------------------------------------------------------
    # Clause installation
    # ------------------------------------------------------------------
    def add_clause(self, clause: Clause) -> Optional[Conflict]:
        """Install a clause and fold its consequences into the worklist."""
        conflict = self.clause_db.add_clause(clause)
        if conflict is not None:
            return conflict
        return None

    # ------------------------------------------------------------------
    # Fixpoint loop
    # ------------------------------------------------------------------
    def _dispatch_new_events(self) -> Optional[Conflict]:
        """Process trail events added since the last dispatch.

        Each new event triggers clause propagation (which may append more
        events) and schedules the propagators whose wake mask matches the
        event's kind bits — except the propagator that produced the event,
        which is already at its local fixpoint.
        """
        store = self.store
        trail = store.trail
        clause_db = self.clause_db
        watchers = self._watchers
        queued = self._queued
        queues = self._queues
        tier = self._tier
        while self._dispatched < len(trail):
            event = trail[self._dispatched]
            self._dispatched += 1
            conflict = clause_db.on_var_event(event.var)
            if conflict is not None:
                return conflict
            watching = watchers.get(event.var.index)
            if not watching:
                continue
            kinds = event.kinds
            reason = event.reason
            propagators = self.propagators
            for position, mask in watching:
                if mask & kinds and not queued[position]:
                    propagator = propagators[position]
                    if propagator is reason and propagator.idempotent:
                        continue
                    queued[position] = 1
                    self.wakeup_count += 1
                    queues[tier[position]].append(position)
        return None

    def propagate(self) -> Optional[Conflict]:
        """Run to bounds consistency; returns the first conflict or None."""
        if self._timed:
            return self._propagate_timed()
        if self._fns is None:
            return self._propagate_reference()
        return self._propagate_specialized()

    def _propagate_reference(self) -> Optional[Conflict]:
        """The oracle loop: dynamic dispatch through ``propagate``."""
        conflict = self._dispatch_new_events()
        if conflict is not None:
            return conflict
        cheap, expensive = self._queues
        while cheap or expensive:
            position = cheap.popleft() if cheap else expensive.popleft()
            self._queued[position] = 0
            self.propagation_count += 1
            conflict = self.propagators[position].propagate(self.store)
            if conflict is not None:
                return conflict
            conflict = self._dispatch_new_events()
            if conflict is not None:
                return conflict
        return None

    def _propagate_specialized(self) -> Optional[Conflict]:
        """Reference loop over the pre-bound kernel closures.

        The event-dispatch loop is inlined with hoisted locals — at
        kernel speeds the per-run method call and attribute reloads of
        :meth:`_dispatch_new_events` are a measurable fraction of the
        fixpoint — but the logic mirrors that method statement for
        statement, so trail order, wakeups and counters stay identical.
        """
        store = self.store
        trail = store.trail
        on_var_event = self.clause_db.on_var_event
        cwatch_get = self.clause_db.watches.get
        watchers_get = self._watchers.get
        queued = self._queued
        idem = self._idem
        cheap, expensive = self._queues
        cheap_append = cheap.append
        expensive_append = expensive.append
        cheap_pop = cheap.popleft
        expensive_pop = expensive.popleft
        tier = self._tier
        fns = self._fns
        dispatched = self._dispatched
        count = 0
        wakeups = 0
        try:
            while True:
                while dispatched < len(trail):
                    event = trail[dispatched]
                    dispatched += 1
                    vidx = event.var.index
                    # ``on_var_event`` on a var with no watched clauses
                    # returns immediately and touches no counters; skip
                    # the call when the watch table says it would.
                    if cwatch_get(vidx):
                        conflict = on_var_event(event.var)
                        if conflict is not None:
                            return conflict
                    watching = watchers_get(vidx)
                    if not watching:
                        continue
                    kinds = event.kinds
                    reason = event.reason
                    for position, mask in watching:
                        if mask & kinds and not queued[position]:
                            if idem[position] is reason:
                                continue
                            queued[position] = 1
                            wakeups += 1
                            if tier[position]:
                                expensive_append(position)
                            else:
                                cheap_append(position)
                if cheap:
                    position = cheap_pop()
                elif expensive:
                    position = expensive_pop()
                else:
                    return None
                queued[position] = 0
                count += 1
                conflict = fns[position](store)
                if conflict is not None:
                    return conflict
        finally:
            self._dispatched = dispatched
            self.propagation_count += count
            self.wakeup_count += wakeups

    def _propagate_timed(self) -> Optional[Conflict]:
        """The fixpoint loop with per-phase clocks (profiling only).

        Works for both implementations: kernels replace the dynamic
        dispatch when present.
        """
        perf = time.perf_counter
        fns = self._fns
        start = perf()
        conflict = self._dispatch_new_events()
        self.bcp_time += perf() - start
        if conflict is not None:
            return conflict
        cheap, expensive = self._queues
        while cheap or expensive:
            if cheap:
                position = cheap.popleft()
                expensive_tier = False
            else:
                position = expensive.popleft()
                expensive_tier = True
            self._queued[position] = 0
            self.propagation_count += 1
            start = perf()
            if fns is not None:
                conflict = fns[position](self.store)
            else:
                conflict = self.propagators[position].propagate(self.store)
            elapsed = perf() - start
            if expensive_tier:
                self.icp_time += elapsed
            else:
                self.bcp_time += elapsed
            if conflict is not None:
                return conflict
            start = perf()
            conflict = self._dispatch_new_events()
            self.bcp_time += perf() - start
            if conflict is not None:
                return conflict
        return None
