"""The baseline HDPLL decision heuristic ([9]).

"A decision variable is picked based on an exponentially decaying
function based on its original fanout and the number of learned clauses
that it appears in": variable activity is seeded with the net's
transitive fanout count, bumped whenever the variable appears in a
learned clause, and decayed multiplicatively after every conflict —
VSIDS with a structural seed.

Selection pops a max-activity heap with lazy deletion: a bump pushes a
fresh entry and leaves the superseded one to be discarded when it
surfaces, and a pick discards the entries of assigned variables.  A
backjump re-pushes only the variables it unassigned that hold no
current entry (MiniSat's order heap re-inserts exactly those), so the
heap is rebuilt only when it has grown to twice the candidate count,
or when activities are rescaled.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.constraints.clause import Clause
from repro.constraints.compile import CompiledSystem
from repro.constraints.store import DomainStore, Event
from repro.constraints.variable import Variable, VarOrigin
from repro.rtl.levelize import (
    transitive_fanout_count,
    transitive_fanout_counts,
)


class ActivityOrder:
    """Max-activity variable selection with a lazy-deletion heap."""

    def __init__(
        self,
        system: CompiledSystem,
        store: DomainStore,
        default_phase: int = 1,
        decay: float = 0.95,
    ):
        self.store = store
        self.candidates: List[Variable] = system.boolean_net_vars
        self.activity: Dict[int, float] = {}
        # Batch the structural seeds: one reverse-topological bitset
        # pass over the circuit instead of one cone walk per candidate.
        # (``add_candidates`` keeps the per-net walk — frame-extension
        # cones are tiny suffixes, where a full-circuit pass would cost
        # more than it saves.)
        nets = []
        for var in self.candidates:
            assert var.net_index is not None
            nets.append(system.circuit.nets[var.net_index])
        counts = transitive_fanout_counts(system.circuit, nets)
        for var, net in zip(self.candidates, nets):
            self.activity[var.index] = float(counts[net.index])
        self._heap: List[Tuple[float, int]] = []
        self._var_by_index = {var.index: var for var in self.candidates}
        #: Per variable index: 1 while the heap holds an entry at the
        #: variable's current activity.  A pick that discards an
        #: assigned variable's entry clears it; a backjump that
        #: unassigns the variable re-pushes it only when it is clear.
        self._queued = bytearray(len(system.variables))
        self._rebuild_heap()
        self._bump_amount = 1.0
        self._decay = decay
        self._default_phase = default_phase
        self.phase: Dict[int, int] = {
            var.index: default_phase for var in self.candidates
        }
        #: Extra per-variable weight from predicate learning (Section 3,
        #: step 5: "learned relations guide the decision strategy by
        #: assigning a higher weight to variables in these relations").
        self.static_weight: Dict[int, float] = {}
        #: Heap health counters, surfaced through the metrics registry:
        #: successful selections vs. lazily discarded stale entries.
        self.picks = 0
        self.stale_pops = 0

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self.activity[var.index], var.index) for var in self.candidates
        ]
        heapq.heapify(self._heap)
        queued = self._queued
        for var in self.candidates:
            queued[var.index] = 1

    def _push(self, index: int) -> None:
        heapq.heappush(self._heap, (-self.activity[index], index))
        self._queued[index] = 1

    def add_candidates(
        self, system: CompiledSystem, variables: List[Variable]
    ) -> None:
        """Absorb freshly compiled variables (frame-extension path).

        Boolean net variables join the candidate pool with the usual
        structural fanout seed; existing activities, phases and bump
        scaling are untouched, so learned search guidance carries over
        to the extended problem.
        """
        self._queued.extend(bytes(len(system.variables) - len(self._queued)))
        for var in variables:
            if not (var.is_bool and var.origin is VarOrigin.NET):
                continue
            assert var.net_index is not None
            net = system.circuit.nets[var.net_index]
            activity = float(transitive_fanout_count(net))
            activity += self.static_weight.get(var.index, 0.0)
            self.activity[var.index] = activity
            self._var_by_index[var.index] = var
            self.candidates.append(var)
            self.phase.setdefault(var.index, self._default_phase)
            self._push(var.index)

    # ------------------------------------------------------------------
    # Activity maintenance
    # ------------------------------------------------------------------
    def bump_var(self, var: Variable) -> None:
        if var.index not in self.activity:
            return
        self.activity[var.index] += self._bump_amount
        self._push(var.index)

    def bump_clause(self, clause: Clause) -> None:
        for literal in clause.literals:
            self.bump_var(literal.var)

    def decay(self) -> None:
        """Exponential decay: future bumps weigh more."""
        self._bump_amount /= self._decay
        if self._bump_amount > 1e100:
            scale = 1e-100
            for index in self.activity:
                self.activity[index] *= scale
            self._bump_amount *= scale
            self._rebuild_heap()

    def add_static_weight(self, var: Variable, weight: float) -> None:
        """Seed extra activity from statically learned relations."""
        self.static_weight[var.index] = (
            self.static_weight.get(var.index, 0.0) + weight
        )
        if var.index in self.activity:
            self.activity[var.index] += weight
            self._push(var.index)

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def pick(self) -> Optional[Tuple[Variable, int]]:
        """Highest-activity unassigned Boolean net variable, with phase."""
        while self._heap:
            negative_activity, index = self._heap[0]
            if -negative_activity != self.activity[index]:
                heapq.heappop(self._heap)  # stale entry
                self.stale_pops += 1
                continue
            var = self._var_by_index[index]
            if self.store.is_assigned(var):
                heapq.heappop(self._heap)
                self._queued[index] = 0
                self.stale_pops += 1
                continue
            self.picks += 1
            return var, self.phase.get(index, 1)
        return None

    def backtracked(self, popped: Sequence[Event]) -> None:
        """Re-queue the candidates a backjump unassigned.

        ``popped`` is the trail segment the backjump undid.  Only a
        variable whose current entry a pick discarded needs a new one;
        every other candidate still holds its entry, so the pick stays
        the highest-activity unassigned candidate.
        """
        queued = self._queued
        activity = self.activity
        for event in popped:
            index = event.var.index
            if not queued[index] and index in activity:
                self._push(index)
        if len(self._heap) > 2 * len(self.candidates):
            self._rebuild_heap()

    def save_phase(self, var: Variable, value: int) -> None:
        self.phase[var.index] = value
