"""Structural decision strategy: RTL justification (Section 4).

``Decide()`` is replaced by Algorithm 2 of the paper: instead of
assigning an arbitrary high-activity variable, the solver maintains a
**J-frontier** of *unjustified* operators — operators whose required
output value/interval is not yet implied by their inputs — and picks
decisions that justify them:

* an atomic Boolean gate whose output sits at its controlled value with
  no controlling input yet (Definition 4.1 rule 1) is justified by
  deciding one input to the controlling value;
* a mux whose select is free and whose output interval is tighter than
  the hull of its data inputs (rule 2) is justified by deciding the
  select towards a branch whose interval intersects the requirement
  (the Figure 4 walk-through).

Every trail event on an operator's output makes that operator a
*candidate*, and the frontier is the unjustified candidates, highest
level first, so justification flows from the constrained outputs back
towards the primary inputs — the breadth-first trace of Section 4.2.

The frontier is kept up to date per trail change, not recomputed per
decision.  A node's justifiability reads only its propagator's
variables, so each frontier read re-checks just the candidates with a
variable that changed since the previous read: one on a new trail event
or on an event a backjump undid (the solver hands every popped trail
segment to :meth:`StructuralDecide.backtracked`).  A var -> node index
in flat arrays finds them.  A backjump that bypasses the hook (a direct
``store.backtrack_to``, as predicate-learning probes do) is caught by an
identity check on the last synced event and answered by a full
re-check.  Frame extension adds levels and index entries for the
appended nodes only.

**J-conflicts (Section 4.3).**  With bounds-consistent propagators, a
frontier entry none of whose branches can meet the requirement is almost
always caught by constraint propagation first (the mux propagator flags
a conflict whose antecedents are precisely the "implying Boolean
literals" the paper traces — see the Figure 4 example reproduced in the
tests).  The defensive J-conflict path here covers the residual case and
reports the same antecedent cut.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.constraints.compile import CompiledSystem
from repro.constraints.propagators import BoolGateProp, LinearEqProp, MuxProp
from repro.constraints.store import Conflict, DomainStore, Event
from repro.constraints.variable import Variable, VarOrigin
from repro.core.decide import ActivityOrder
from repro.intervals import Interval
from repro.rtl.circuit import Node
from repro.rtl.types import OpKind

Decision = Tuple[Variable, int]

#: Node kinds at level 0 (the levelization sources).
_SOURCE_KINDS = (OpKind.INPUT, OpKind.CONST, OpKind.REG)

#: Propagator types whose nodes ``_requirement`` can find unjustified.
_JUSTIFIABLE = (MuxProp, BoolGateProp, LinearEqProp)


class StructuralDecide:
    """Algorithm 2: justification-driven decision making."""

    def __init__(
        self,
        system: CompiledSystem,
        store: DomainStore,
        order: ActivityOrder,
        tracer=None,
    ):
        self.system = system
        self.store = store
        self.order = order
        #: Optional :class:`repro.obs.TraceEmitter`; when set, every
        #: frontier action becomes a ``jfrontier`` trace event.
        self._trace = tracer
        #: Node index -> level (distance from the primary inputs); high
        #: levels (near outputs) are justified first.
        self._level_of = array("i")
        #: Variable index -> index of the compiled node driving it, or -1.
        self._node_of_var = array("i")
        #: Variable index -> the justifiable nodes whose requirement
        #: reads it, as singly linked lists in flat arrays:
        #: ``_watch_head[var]`` is the first entry (-1: none),
        #: ``_watch_node[entry]`` its node, ``_watch_next[entry]`` the
        #: next entry.  Appended nodes only prepend entries.
        self._watch_head = array("i")
        self._watch_node = array("i")
        self._watch_next = array("i")
        #: Level-0 fixpoint domains (set after pre-processing): only
        #: narrowings *beyond* this baseline are requirements.  Without
        #: it, facts derived by static learning would flood the frontier.
        self._baseline: List[Interval] = []
        self._add_nodes(system.circuit.topological_nodes())
        self._reset()

    def _add_nodes(self, nodes: Iterable[Node]) -> None:
        """Level and index ``nodes`` (given in dependency order), and
        give the variables compiled since the last call their initial
        domains as baseline.

        A node's level depends on its operands alone, so appending nodes
        never changes an existing node's level or index entries.
        """
        system = self.system
        level_of = self._level_of
        new_nodes = len(system.circuit.nodes) - len(level_of)
        level_of.extend(array("i", [0]) * new_nodes)
        missing = len(system.variables) - len(self._node_of_var)
        self._node_of_var.extend(array("i", [-1]) * missing)
        self._watch_head.extend(array("i", [-1]) * missing)
        self._baseline.extend(
            var.initial_domain
            for var in system.variables[len(self._baseline):]
        )
        node_of_var = self._node_of_var
        head = self._watch_head
        watch_node = self._watch_node
        watch_next = self._watch_next
        prop_of_node = system.prop_of_node
        for node in nodes:
            index = node.index
            if node.kind not in _SOURCE_KINDS:
                level_of[index] = 1 + max(
                    level_of[operand.driver.index] for operand in node.operands
                )
            prop = prop_of_node.get(index)
            if prop is None:
                continue
            node_of_var[system.var(node.output).index] = index
            if not isinstance(prop, _JUSTIFIABLE):
                continue
            for var in dict.fromkeys(prop.variables):
                watch_node.append(index)
                watch_next.append(head[var.index])
                head[var.index] = len(watch_node) - 1

    def extend(self, nodes: Sequence[Node]) -> None:
        """Absorb nodes appended to the circuit (frame extension).

        ``nodes`` must already be compiled into the system, in
        dependency order.  The per-query state starts over, as for a
        fresh instance: the frontier of the grown system is re-derived
        from its trail, against a baseline the next level-0 fixpoint
        snapshots.
        """
        self._add_nodes(nodes)
        self._reset()

    def _reset(self) -> None:
        """Per-query state, as a fresh instance starts with it."""
        #: Persistent candidate set: nodes whose output was ever
        #: constrained.  Entries are never removed, so backtracking
        #: cannot lose frontier entries.
        self._candidates: Set[int] = set()
        #: The candidates that are unjustified at the synced trail.
        self._live: Set[int] = set()
        #: Length of the trail prefix ``_live`` reflects, and the event
        #: ending it: a later sync finds that event in place unless a
        #: backjump bypassed :meth:`backtracked`.
        self._synced = 0
        self._last_event: Optional[Event] = None
        #: Synced events undone by backjumps since the last sync.
        self._popped: List[Sequence[Event]] = []
        #: Re-derive the candidate and live sets from the whole trail at
        #: the next sync (fresh state, new baseline, unnoted backjump).
        self._recheck_all = True

    def snapshot_baseline(self) -> None:
        """Record the current domains as the no-requirement baseline."""
        self._baseline = list(self.store.domains)
        self._recheck_all = True

    # ------------------------------------------------------------------
    # Frontier maintenance
    # ------------------------------------------------------------------
    def backtracked(self, popped: Sequence[Event]) -> None:
        """Note a backjump; ``popped`` is the trail segment it undid.

        The synced prefix shrinks to what the backjump kept, so the next
        sync scans every event propagation pushes after it, however far
        the trail regrows.
        """
        if not popped or self._recheck_all:
            return
        keep = popped[0].id
        synced = self._synced
        if keep >= synced:
            return  # only events no sync has seen were undone
        if (
            synced - keep > len(popped)
            or popped[synced - keep - 1] is not self._last_event
        ):
            # The synced prefix was already rewound by a backjump that
            # bypassed this hook.
            self._recheck_all = True
            return
        self._popped.append(popped[: synced - keep])
        self._synced = keep
        self._last_event = self.store.trail[keep - 1] if keep else None

    def _sync(self) -> None:
        """Bring the candidate and live sets up to the current trail.

        Every event past the synced prefix makes its node a candidate.
        Only candidates with a variable that changed since the last
        sync (on a new event or on one a backjump undid) are re-checked;
        a node's requirement reads nothing but its propagator's
        variables and the baseline.
        """
        trail = self.store.trail
        end = len(trail)
        synced = self._synced
        recheck_all = (
            self._recheck_all
            or synced > end
            or (synced and trail[synced - 1] is not self._last_event)
        )
        if recheck_all:
            synced = 0
        candidates = self._candidates
        dirty: Set[int] = set()
        node_of_var = self._node_of_var
        for event in islice(trail, synced, end):
            node_index = node_of_var[event.var.index]
            if node_index >= 0 and node_index not in candidates:
                candidates.add(node_index)
                dirty.add(node_index)
        if recheck_all:
            dirty = candidates
            self._recheck_all = False
        else:
            head = self._watch_head
            watch_node = self._watch_node
            watch_next = self._watch_next
            changed = chain(
                chain.from_iterable(self._popped), islice(trail, synced, end)
            )
            for event in changed:
                entry = head[event.var.index]
                while entry >= 0:
                    dirty.add(watch_node[entry])
                    entry = watch_next[entry]
        self._popped.clear()
        self._synced = end
        self._last_event = trail[end - 1] if end else None
        live = self._live
        prop_of_node = self.system.prop_of_node
        requirement = self._requirement
        for node_index in dirty:
            if node_index not in candidates:
                continue
            if requirement(prop_of_node[node_index]) is not None:
                live.add(node_index)
            else:
                live.discard(node_index)

    def frontier(self) -> List[int]:
        """Current J-frontier: unjustified candidate nodes, by level desc.

        Nodes of equal level keep the candidate set's iteration order.
        """
        self._sync()
        live = self._live
        if not live:
            return []
        nodes = [index for index in self._candidates if index in live]
        level_of = self._level_of
        nodes.sort(key=lambda index: -level_of[index])
        return nodes

    # ------------------------------------------------------------------
    # Justifiability checks (Definition 4.1)
    # ------------------------------------------------------------------
    def _requirement(self, prop) -> Optional[object]:
        """The unjustified requirement of a node, or None if justified."""
        if isinstance(prop, MuxProp):
            return self._mux_requirement(prop)
        if isinstance(prop, BoolGateProp):
            return self._bool_requirement(prop)
        if isinstance(prop, LinearEqProp):
            return self._linear_requirement(prop)
        return None

    def _linear_requirement(self, prop: LinearEqProp) -> Optional[Variable]:
        """Modular arithmetic blocked on its carry/borrow auxiliary.

        An interval requirement on a wrapped add/sub cannot flow through
        to the operands while the carry is free (the constraint is a
        disjunction of the wrapped and unwrapped cases).  Deciding the
        carry is the justification step that unblocks the trace — the
        spirit of Definition 4.1 rule 2: a Boolean-valued input prevents
        the intervals from being determined.
        """
        aux: Optional[Variable] = None
        requirement = False
        for var in prop.variables:
            if var.origin is VarOrigin.AUXILIARY and var.is_bool:
                if self.store.is_assigned(var):
                    return None
                if aux is not None:
                    return None  # more than one free aux: leave to CP
                aux = var
            elif self.store.domains[var.index] != self._baseline[var.index]:
                requirement = True
        return aux if (aux is not None and requirement) else None

    def _mux_requirement(self, prop: MuxProp) -> Optional[object]:
        if self.store.bool_value(prop.sel) is not None:
            return None
        out_domain = self.store.domain(prop.out)
        if out_domain == self._baseline[prop.out.index]:
            return None  # no requirement beyond the level-0 fixpoint
        hull = self.store.domain(prop.then_var).union_hull(
            self.store.domain(prop.else_var)
        )
        if out_domain.contains_interval(hull):
            return None  # output unconstrained beyond its inputs
        return out_domain

    def _bool_requirement(self, prop: BoolGateProp) -> Optional[int]:
        output_value = self.store.bool_value(prop.out)
        if output_value is None:
            return None
        if self._baseline[prop.out.index].is_point:
            return None  # pinned at the level-0 fixpoint: a fact
        kind = prop.kind
        if kind in (OpKind.NOT, OpKind.BUF):
            return None  # implied both ways by propagation
        if kind in (OpKind.XOR, OpKind.XNOR):
            unassigned = [
                v for v in prop.inputs if self.store.bool_value(v) is None
            ]
            return output_value if len(unassigned) >= 2 else None
        controlling = 0 if kind in (OpKind.AND, OpKind.NAND) else 1
        controlled_output = controlling ^ (
            1 if kind in (OpKind.NAND, OpKind.NOR) else 0
        )
        if output_value != controlled_output:
            return None  # non-controlled value: inputs forced by BCP
        input_values = [self.store.bool_value(v) for v in prop.inputs]
        if controlling in input_values:
            return None  # already justified by a controlling input
        if None not in input_values:
            return None  # fully assigned (a conflict is CP's job)
        return output_value

    # ------------------------------------------------------------------
    # Decision selection
    # ------------------------------------------------------------------
    def next_decision(self) -> Union[Decision, Conflict, None]:
        """A justification decision, a J-conflict, or None (frontier empty)."""
        for node_index in self.frontier():
            prop = self.system.prop_of_node[node_index]
            if isinstance(prop, MuxProp):
                outcome = self._justify_mux(prop)
            elif isinstance(prop, LinearEqProp):
                aux = self._linear_requirement(prop)
                # Prefer the unwrapped interpretation (carry/borrow = 0).
                outcome = (aux, 0) if aux is not None else None
            else:
                outcome = self._justify_bool_gate(prop)
            if outcome is not None:
                if self._trace is not None:
                    self._trace.event(
                        "jfrontier",
                        dl=self.store.decision_level,
                        action=(
                            "j-conflict"
                            if isinstance(outcome, Conflict)
                            else "justify"
                        ),
                        node=node_index,
                        level=self._level_of[node_index],
                        op=type(prop).__name__,
                    )
                return outcome
        return None

    def _justify_mux(self, prop: MuxProp) -> Union[Decision, Conflict, None]:
        out_domain = self.store.domain(prop.out)
        then_ok = out_domain.intersects(self.store.domain(prop.then_var))
        else_ok = out_domain.intersects(self.store.domain(prop.else_var))
        if not then_ok and not else_ok:
            # J-conflict: no select value can meet the requirement.  The
            # causes are the implying literals of the blocking intervals
            # (Section 4.3) — exactly the latest events of the mux vars.
            return self._j_conflict(prop)
        if then_ok and not else_ok:
            return prop.sel, 1
        if else_ok and not then_ok:
            return prop.sel, 0
        # Both branches viable: Section 4.4 — prefer the value satisfying
        # the most learned relations (the phase exported by predicate
        # learning), falling back to the configured default phase.
        return prop.sel, self.order.phase.get(prop.sel.index, 1)

    def _justify_bool_gate(
        self, prop: BoolGateProp
    ) -> Union[Decision, Conflict, None]:
        kind = prop.kind
        unassigned = [
            v for v in prop.inputs if self.store.bool_value(v) is None
        ]
        if not unassigned:
            return None
        if kind in (OpKind.XOR, OpKind.XNOR):
            var = self._pick_input(unassigned)
            return var, self.order.phase.get(var.index, 1)
        controlling = 0 if kind in (OpKind.AND, OpKind.NAND) else 1
        var = self._pick_input(unassigned)
        return var, controlling

    def _pick_input(self, candidates: List[Variable]) -> Variable:
        """Heuristic of Section 4.2: fanout count and input distance.

        Highest combined weight (static learning weight + activity,
        which is fanout-seeded) wins; ties go to the lower-level input
        (closer to the primary inputs).
        """

        def weight(var: Variable) -> Tuple[float, int]:
            activity = self.order.activity.get(var.index, 0.0)
            static = self.order.static_weight.get(var.index, 0.0)
            node_index = self._node_of_var[var.index]
            level = self._level_of[node_index] if node_index >= 0 else 0
            return (activity + static, -level)

        return max(candidates, key=weight)

    def _j_conflict(self, prop: MuxProp) -> Conflict:
        antecedents = tuple(
            event_id
            for var in prop.variables
            if (event_id := self.store.latest_event[var.index]) is not None
        )
        return Conflict(source="j-conflict", antecedents=antecedents, var=prop.out)
