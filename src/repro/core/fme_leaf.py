"""Leaf certification: does the solution box contain an integer point?

When deduction reaches a fixpoint with every decision variable assigned,
HDPLL checks the bounds-consistent solution box with an integer-linear
solver (Algorithm 1 / Section 2.4).  This module collects the linear
system that is *active* under the current control assignments:

* every compiled arithmetic equality (always active),
* each comparator whose predicate variable is assigned (an inequality,
  equality or disequality on its operands),
* each mux whose select is assigned (an equality with the chosen branch).

Variables already pinned to a point by propagation are substituted away,
and the remainder is split into independent connected components, each
decided by :class:`repro.fme.OmegaSolver`.  This decomposition is what
keeps leaf checks tractable on deep BMC unrollings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.constraints.compile import CompiledSystem
from repro.constraints.propagators import (
    ComparatorProp,
    LinearEqProp,
    MuxProp,
)
from repro.constraints.store import DomainStore
from repro.fme.linear import LinearConstraint
from repro.fme.omega import OmegaSolver
from repro.rtl.types import OpKind

logger = logging.getLogger(__name__)


@dataclass
class LeafCheckResult:
    """Outcome of a solution-box certification."""

    feasible: bool
    #: var index -> value for every solver variable (feasible only).
    witness: Dict[int, int] = field(default_factory=dict)
    components: int = 0
    constraints: int = 0
    #: On infeasibility: the variables of the refuted component and the
    #: propagators whose activation contributed its constraints — the
    #: arithmetic "resolvent" the conflict analysis traces back through
    #: the hybrid implication graph.
    failing_var_indices: frozenset = frozenset()
    failing_sources: tuple = ()


def _comparator_constraints(
    prop: ComparatorProp, value: int
) -> Tuple[List[LinearConstraint], List[LinearConstraint]]:
    """Linear encoding of a comparator under an assigned predicate."""
    x, y = prop.x.index, prop.y.index
    # Accumulate so that identical operands (e.g. "a != a") cancel.
    difference: Dict[int, int] = {}
    difference[x] = difference.get(x, 0) + 1
    difference[y] = difference.get(y, 0) - 1
    negated = {var: -coeff for var, coeff in difference.items()}
    constraints: List[LinearConstraint] = []
    disequalities: List[LinearConstraint] = []
    kind = prop.kind
    if kind is OpKind.EQ:
        if value:
            constraints.append(LinearConstraint.eq(difference, 0))
        else:
            disequalities.append(LinearConstraint.eq(difference, 0))
    elif kind is OpKind.NE:
        if value:
            disequalities.append(LinearConstraint.eq(difference, 0))
        else:
            constraints.append(LinearConstraint.eq(difference, 0))
    elif kind is OpKind.LT:
        if value:
            constraints.append(LinearConstraint.le(difference, -1))
        else:
            constraints.append(LinearConstraint.le(negated, 0))
    else:  # LE
        if value:
            constraints.append(LinearConstraint.le(difference, 0))
        else:
            constraints.append(LinearConstraint.le(negated, -1))
    return constraints, disequalities


def collect_tagged_system(
    store: DomainStore, system: CompiledSystem
) -> List[Tuple[LinearConstraint, bool, Optional[object]]]:
    """Active constraints as (constraint, is_disequality, source_prop).

    The source is the comparator/mux whose control assignment activated
    the constraint (None for always-active arithmetic equalities); it is
    what FME-conflict analysis traces back through the implication graph.
    """
    tagged: List[Tuple[LinearConstraint, bool, Optional[object]]] = []
    for prop in system.propagators:
        if isinstance(prop, LinearEqProp):
            coeffs: Dict[int, int] = {}
            for coeff, var in zip(prop.coeffs, prop.variables):
                coeffs[var.index] = coeffs.get(var.index, 0) + coeff
            tagged.append(
                (LinearConstraint.eq(coeffs, prop.constant), False, None)
            )
        elif isinstance(prop, ComparatorProp):
            value = store.bool_value(prop.pred)
            if value is None:
                continue
            new_cons, new_diseqs = _comparator_constraints(prop, value)
            for constraint in new_cons:
                tagged.append((constraint, False, prop))
            for diseq in new_diseqs:
                tagged.append((diseq, True, prop))
        elif isinstance(prop, MuxProp):
            sel_value = store.bool_value(prop.sel)
            if sel_value is None:
                continue
            branch = prop.then_var if sel_value else prop.else_var
            tagged.append(
                (
                    LinearConstraint.eq(
                        {prop.out.index: 1, branch.index: -1}, 0
                    ),
                    False,
                    prop,
                )
            )
    return tagged


def collect_active_system(
    store: DomainStore, system: CompiledSystem
) -> Tuple[List[LinearConstraint], List[LinearConstraint]]:
    """All active linear constraints and disequalities, by var index."""
    constraints: List[LinearConstraint] = []
    disequalities: List[LinearConstraint] = []
    for constraint, is_diseq, _source in collect_tagged_system(store, system):
        (disequalities if is_diseq else constraints).append(constraint)
    return constraints, disequalities


class _UnionFind:
    def __init__(self):
        self.parent: Dict[int, int] = {}

    def find(self, item: int) -> int:
        root = item
        while self.parent.setdefault(root, root) != root:
            root = self.parent[root]
        while self.parent[item] != root:
            self.parent[item], item = root, self.parent[item]
        return root

    def union(self, a: int, b: int) -> None:
        self.parent[self.find(a)] = self.find(b)


def check_solution_box(
    store: DomainStore,
    system: CompiledSystem,
    branch_budget: int = 200_000,
    interrupt: Optional[Callable[[], None]] = None,
) -> LeafCheckResult:
    """Certify or refute the current solution box.

    Returns a feasible result with a *complete* witness (every solver
    variable mapped to an in-domain value satisfying every active
    constraint), or an infeasible result.  ``interrupt`` is called
    throughout the integer search (see :class:`~repro.fme.omega.OmegaSolver`).
    """
    tagged = collect_tagged_system(store, system)

    # Substitute variables propagation has already pinned.
    def pinned(var_index: int) -> Optional[int]:
        domain = store.domains[var_index]
        return domain.lo if domain.is_point else None

    # live entries: (reduced constraint, is_diseq, source, original vars).
    live: List[Tuple[LinearConstraint, bool, Optional[object], Tuple[int, ...]]] = []
    for constraint, is_diseq, source in tagged:
        original_vars = constraint.variables()
        current = constraint
        for var in original_vars:
            value = pinned(var)
            if value is not None:
                current = current.substitute(var, value)
        if current.is_trivial:
            if is_diseq:
                # The disequality asserts sum != constant; with every
                # variable substituted the residual sum is 0.
                satisfied = current.constant != 0
            else:
                satisfied = current.trivially_true
            if not satisfied:
                return LeafCheckResult(
                    feasible=False,
                    failing_var_indices=frozenset(original_vars),
                    failing_sources=(source,) if source is not None else (),
                )
            continue
        live.append((current, is_diseq, source, original_vars))

    # Split into connected components over the remaining free variables.
    union_find = _UnionFind()
    for constraint, _, _, _ in live:
        variables = constraint.variables()
        for var in variables[1:]:
            union_find.union(variables[0], var)

    components: Dict[int, List[Tuple]] = {}
    for entry in live:
        root = union_find.find(entry[0].variables()[0])
        components.setdefault(root, []).append(entry)

    witness: Dict[int, int] = {}
    for var in system.variables:
        domain = store.domains[var.index]
        witness[var.index] = domain.lo  # refined below for free components

    solver = OmegaSolver(max_branch_nodes=branch_budget, interrupt=interrupt)
    for root, members in components.items():
        component_vars = {
            var
            for constraint, _, _, _ in members
            for var in constraint.variables()
        }
        bounds = {
            var: (store.domains[var].lo, store.domains[var].hi)
            for var in component_vars
        }
        component_constraints = [c for c, d, _, _ in members if not d]
        component_diseqs = [c for c, d, _, _ in members if d]
        component_witness = solver.solve(
            component_constraints, bounds, component_diseqs
        )
        if component_witness is None:
            failing_vars = set(component_vars)
            for _, _, _, original_vars in members:
                failing_vars.update(original_vars)
            sources = tuple(
                {
                    id(source): source
                    for _, _, source, _ in members
                    if source is not None
                }.values()
            )
            logger.debug(
                "leaf refuted: component of %d vars / %d constraints "
                "(of %d components, %d live constraints)",
                len(component_vars),
                len(members),
                len(components),
                len(live),
            )
            return LeafCheckResult(
                feasible=False,
                components=len(components),
                constraints=len(live),
                failing_var_indices=frozenset(failing_vars),
                failing_sources=sources,
            )
        witness.update(component_witness)

    return LeafCheckResult(
        feasible=True,
        witness=witness,
        components=len(components),
        constraints=len(live),
    )
