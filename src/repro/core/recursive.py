"""Recursive learning (Section 2.3), generalised with interval propagation.

Classic recursive learning (Kunz–Pradhan [10]): to learn from a value
assignment ``val(s)``, enumerate every way W of *justifying* it at the
driving gate, propagate each justification in isolation, and keep the
implications common to all of them — those must hold whenever ``val(s)``
holds.  The paper extends the propagation step from Boolean implication
to full hybrid propagation (BCP + interval constraint propagation), so
implications flow through the datapath.

:class:`RecursiveLearner` implements the scheme to arbitrary recursion
depth over a compiled constraint system; Section 3's predicate learning
uses it at depth 1.

**Frame-local probes.**  Given a :class:`~repro.core.predlearn.ProbeWindows`,
every probe of a candidate tagged with time frame ``f`` (an unrolled
``net@f``) runs only the propagators whose frame span meets
``[f - w, f + w]`` (``w`` is :data:`repro.core.predlearn.PROBE_WINDOW`);
clause BCP stays unrestricted.  :meth:`RecursiveLearner._enter_level`
is the one place a probe level is pushed: it suspends the out-of-window
propagators (:meth:`PropagationEngine.suspend`), and the ``finally``
that leaves the level calls ``notify_backtrack``, which lifts the
marks on every exit (success, a conflicting assignment, a propagation
conflict, :class:`ProbeDeadline`).  Without a window, or for a candidate
without a frame tag, a probe propagates over the whole system.

The window only drops propagation work, so it is sound: each narrowing
a windowed probe makes is made by a constraint of the full system under
the same level-0 state.  A windowed conflict is therefore also a
full-system conflict, and every hull, common implication and
conditional learned from windowed probes is implied by the full system
— it is just weaker than what an unrestricted probe might find.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.intervals import Interval
from repro.constraints.compile import CompiledSystem
from repro.constraints.engine import PropagationEngine
from repro.constraints.store import Conflict, DomainStore
from repro.constraints.variable import Variable
from repro.rtl.circuit import Node
from repro.rtl.types import OpKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.predlearn import ProbeWindows

#: Reason tag for implications applied during probing.  These events only
#: ever exist inside a probe level that is backtracked before search.
RECURSIVE_TAG = "recursive-learning"

#: A justification option: a set of (variable, value) assignments that is
#: sufficient (and part of an exhaustive case split) for the probed value.
Option = List[Tuple[Variable, int]]


class ProbeDeadline(Exception):
    """The learner's wall-clock deadline passed mid-probe.

    Every probe level is left in a ``finally``, so when this reaches
    the caller of :meth:`RecursiveLearner.probe` the store is back at
    the level the probe began at and no propagator is suspended.
    """


def justification_options(
    system: CompiledSystem, node: Node, value: int
) -> Optional[List[Option]]:
    """Exhaustive justification case split for a Boolean gate output.

    Returns ``None`` when the gate offers no *branching* justification
    (the value is implied directly, or the operator is not enumerable —
    e.g. an atomic comparator).  Soundness of recursive learning rests on
    the returned options covering every way the output can take ``value``.
    """
    kind = node.kind
    inputs = [system.var(net) for net in node.operands]
    if kind in (OpKind.AND, OpKind.NAND):
        controlled = 0 if kind is OpKind.AND else 1
        if value == controlled:
            return [[(var, 0)] for var in inputs]
        return None
    if kind in (OpKind.OR, OpKind.NOR):
        controlled = 1 if kind is OpKind.OR else 0
        if value == controlled:
            return [[(var, 1)] for var in inputs]
        return None
    if kind in (OpKind.XOR, OpKind.XNOR):
        target = value if kind is OpKind.XOR else 1 - value
        a, b = inputs
        return [
            [(a, 0), (b, target)],
            [(a, 1), (b, 1 - target)],
        ]
    return None


class RecursiveLearner:
    """Probe-and-intersect machinery over a live store/engine pair.

    The learner temporarily pushes decision levels on the store; it always
    restores the entry level before returning or raising.
    """

    def __init__(
        self,
        system: CompiledSystem,
        store: DomainStore,
        engine: PropagationEngine,
        deadline: Optional[float] = None,
        windows: Optional["ProbeWindows"] = None,
    ):
        self.system = system
        self.store = store
        self.engine = engine
        #: ``time.perf_counter()`` instant after which probing raises
        #: :class:`ProbeDeadline` (the solver's cooperative budget).
        self.deadline = deadline
        #: Frame spans of the system's propagators; None probes over
        #: the whole system.
        self.windows = windows
        #: Suspend mask of the candidate :meth:`probe` was last called
        #: on (None: no window), applied at every level it pushes.
        self._mask: Optional[bytes] = None
        #: Probe statistics.
        self.probes = 0

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise ProbeDeadline

    # ------------------------------------------------------------------
    def _enter_level(
        self, assignments: Sequence[Tuple[Variable, int]]
    ) -> bool:
        """Push a probe level, assign, propagate inside the window.

        Returns False on conflict.  The caller leaves the level in a
        ``finally`` through :meth:`_leave_level`.
        """
        self.store.push_level()
        if self._mask is not None:
            self.engine.suspend(self._mask)
        for var, value in assignments:
            outcome = self.store.assign_bool(var, value, RECURSIVE_TAG)
            if isinstance(outcome, Conflict):
                return False
        return self.engine.propagate() is None

    def _leave_level(self, entry_level: int) -> None:
        self.store.backtrack_to(entry_level)
        self.engine.notify_backtrack()

    def _propagate_under(
        self, assignments: Sequence[Tuple[Variable, int]]
    ) -> Optional[Dict[int, Interval]]:
        """Assign at a fresh level, propagate, snapshot, backtrack.

        Returns the final domain of every variable changed at the probe
        level (keyed by variable index), or ``None`` on conflict.
        """
        entry_level = self.store.decision_level
        mark = len(self.store.trail)
        try:
            if not self._enter_level(assignments):
                return None
            return {
                event.var.index: event.new
                for event in self.store.trail[mark:]
            }
        finally:
            self._leave_level(entry_level)

    # ------------------------------------------------------------------
    def probe(
        self, var: Variable, value: int, depth: int = 1
    ) -> Optional[Dict[int, Interval]]:
        """Common implications of ``var == value``.

        Returns a map from variable index to the implied interval
        (the *union hull* over all justification branches), or ``None``
        when ``var == value`` is impossible in the current state.

        ``depth`` 0 is plain propagation; depth ``d`` enumerates the
        justification options of the probed gate and recurses into each
        branch at depth ``d - 1`` (Figure 1 of the paper is depth 1).
        """
        self._check_deadline()
        self.probes += 1
        self._mask = (
            None if self.windows is None else self.windows.mask_for(var)
        )
        if self.store.is_assigned(var):
            current = self.store.value(var)
            if current != value:
                return None
            return {}
        node = self._driver_node(var)
        options = (
            justification_options(self.system, node, value)
            if node is not None and depth > 0
            else None
        )
        if not options:
            return self._propagate_under([(var, value)])
        return self._probe_options(var, value, options, depth)

    def _probe_options(
        self,
        var: Variable,
        value: int,
        options: List[Option],
        depth: int,
    ) -> Optional[Dict[int, Interval]]:
        """Intersect the implications of every justification branch."""
        common: Optional[Dict[int, Interval]] = None
        viable_branches = 0
        for option in options:
            self._check_deadline()
            branch = self._probe_branch(var, value, option, depth)
            if branch is None:
                continue  # impossible branch contributes nothing
            viable_branches += 1
            if common is None:
                common = dict(branch)
            else:
                merged: Dict[int, Interval] = {}
                for index, interval in common.items():
                    other = branch.get(index)
                    if other is None:
                        # Not narrowed in this branch: falls back to the
                        # pre-probe domain, so no common narrowing.
                        continue
                    merged[index] = interval.union_hull(other)
                common = merged
        if viable_branches == 0:
            return None
        assert common is not None
        # Keep only genuine narrowings relative to the current domains.
        return {
            index: interval
            for index, interval in common.items()
            if not interval.contains_interval(
                self.store.domains[index]
            )
        }

    def _probe_branch(
        self,
        var: Variable,
        value: int,
        option: Option,
        depth: int,
    ) -> Optional[Dict[int, Interval]]:
        """Implications of one justification branch (with recursion)."""
        assignments = [(var, value)] + list(option)
        implied = self._propagate_under(assignments)
        if implied is None or depth <= 1:
            return implied
        # Deeper recursion: re-enter the branch and recursively probe the
        # still-unassigned Boolean support, merging what it implies.
        entry_level = self.store.decision_level
        mark = len(self.store.trail)
        try:
            if not self._enter_level(assignments):
                return None
            deeper: Dict[int, Interval] = {}
            for event in self.store.trail[mark:]:
                deeper[event.var.index] = event.new
            # Recursively analyse gates assigned-but-unjustified here.
            for event in list(self.store.trail[mark:]):
                target = event.var
                if not target.is_bool or not event.new.is_point:
                    continue
                node = self._driver_node(target)
                if node is None:
                    continue
                options = justification_options(
                    self.system, node, event.new.lo
                )
                if not options:
                    continue
                nested = self._probe_options(
                    target, event.new.lo, options, depth - 1
                )
                if nested is None:
                    # No justification of this implied value survives:
                    # the whole branch is inconsistent.
                    return None
                for index, interval in nested.items():
                    known = deeper.get(index)
                    deeper[index] = (
                        interval
                        if known is None
                        else known.intersect(interval) or known
                    )
            return deeper
        finally:
            self._leave_level(entry_level)

    def _driver_node(self, var: Variable) -> Optional[Node]:
        if var.net_index is None:
            return None
        net = self.system.circuit.nets[var.net_index]
        return net.driver
