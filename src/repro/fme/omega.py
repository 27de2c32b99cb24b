"""Integer feasibility of linear systems — the Omega-library stand-in.

HDPLL calls the Omega library [13] to decide whether the bounds-consistent
solution box contains an integer point (Section 2.4).  This module plays
that role:

1. **Normalisation** — coefficients divided by their gcd; an equality
   whose gcd does not divide the constant is an immediate contradiction.
2. **Equality elimination** — unit-coefficient equalities are removed by
   substitution (an affine rewrite of the remaining system).  Because the
   circuit compiler only ever emits equalities with a unit coefficient on
   the output/carry variable, this step removes almost everything.
3. **Bounds propagation** — the interval-narrowing pass over the
   remaining inequalities (cheap, removes most slack).
4. **Rational FME** — if the rational relaxation is infeasible, so is the
   integer problem.
5. **Branch and bound** — otherwise pick the variable with the smallest
   range and split its domain; every variable carries finite RTL bounds,
   so the recursion terminates.  A witness is returned on success.

Steps 4+5 together are complete for bounded problems; the dark-shadow
short cut of the true Omega test is implemented as
:func:`dark_shadow_feasible` and used as a fast SAT-accept before
branching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ResourceLimitError
from repro.fme.fourier_motzkin import eliminate_variable, rational_feasible
from repro.fme.linear import LinearConstraint


@dataclass
class OmegaStats:
    """Counters for diagnostics and the benchmark harness."""

    substitutions: int = 0
    branches: int = 0
    fme_calls: int = 0


class OmegaSolver:
    """Integer feasibility with witness extraction.

    ``interrupt``, when given, is called at every branch node and at
    every elimination step of a node's rational relaxation, the two
    places a search can spend unbounded time; whatever it raises (a
    deadline's :class:`ResourceLimitError`, a worker's stop) ends the
    search.
    """

    def __init__(
        self,
        max_branch_nodes: int = 200_000,
        interrupt: Optional[Callable[[], None]] = None,
    ):
        self.max_branch_nodes = max_branch_nodes
        self.interrupt = interrupt
        self.stats = OmegaStats()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self,
        constraints: List[LinearConstraint],
        bounds: Mapping[int, Tuple[int, int]],
        disequalities: Optional[List[LinearConstraint]] = None,
    ) -> Optional[Dict[int, int]]:
        """Find an integer point satisfying constraints within bounds.

        ``bounds`` must cover every variable mentioned by the constraints
        (RTL variables always have finite width domains).
        ``disequalities`` are equality-shaped constraints that must be
        *violated* (``sum != constant``) — the encoding of the RTL ``!=``
        predicate, which is not convex and is handled by search.  Returns
        a full witness assignment over the bounded variables, or ``None``.
        """
        disequalities = list(disequalities or [])
        working_bounds: Dict[int, Tuple[int, int]] = dict(bounds)
        for constraint in constraints + disequalities:
            for var in constraint.variables():
                if var not in working_bounds:
                    raise ResourceLimitError(
                        f"variable x{var} has no finite bounds"
                    )

        substitutions: List[Tuple[int, Dict[int, int], int]] = []
        inequalities = self._preprocess(
            constraints, working_bounds, substitutions, disequalities
        )
        if inequalities is None:
            return None
        inequalities, disequalities = inequalities
        witness = self._search(inequalities, disequalities, working_bounds)
        if witness is None:
            return None
        # Complete the witness for variables never mentioned.
        for var, (lo, _hi) in working_bounds.items():
            witness.setdefault(var, lo)
        # Back-substitute eliminated equality variables.
        for var, expr_coeffs, expr_const in reversed(substitutions):
            value = expr_const + sum(
                c * witness[v] for v, c in expr_coeffs.items()
            )
            witness[var] = value
        return witness

    def feasible(
        self,
        constraints: List[LinearConstraint],
        bounds: Mapping[int, Tuple[int, int]],
        disequalities: Optional[List[LinearConstraint]] = None,
    ) -> bool:
        """Decision-only variant of :meth:`solve`."""
        return self.solve(constraints, bounds, disequalities) is not None

    # ------------------------------------------------------------------
    # Preprocessing
    # ------------------------------------------------------------------
    def _preprocess(
        self,
        constraints: List[LinearConstraint],
        bounds: Dict[int, Tuple[int, int]],
        substitutions: List[Tuple[int, Dict[int, int], int]],
        disequalities: List[LinearConstraint],
    ) -> Optional[Tuple[List[LinearConstraint], List[LinearConstraint]]]:
        """Normalise, eliminate equalities; returns (ineqs, diseqs) or None."""
        equalities: List[LinearConstraint] = []
        inequalities: List[LinearConstraint] = []
        for constraint in constraints:
            normal = constraint.normalized()
            if normal is None or normal.trivially_false:
                return None
            if normal.trivially_true:
                continue
            (equalities if normal.equality else inequalities).append(normal)

        live_diseqs: List[LinearConstraint] = []
        for diseq in disequalities:
            normal = diseq.normalized()
            if normal is None:
                # gcd does not divide the constant: sum != constant always.
                continue
            if normal.is_trivial:
                if normal.constant == 0:
                    return None  # 0 != 0 is unsatisfiable
                continue
            live_diseqs.append(normal)
        disequalities[:] = live_diseqs

        while equalities:
            equality = equalities.pop()
            target = self._unit_variable(equality)
            if target is None:
                # No unit coefficient: keep as a pair of inequalities; the
                # branch-and-bound search handles the integrality.
                inequalities.append(
                    LinearConstraint(equality.coeffs, equality.constant)
                )
                negated = {v: -c for v, c in equality.coeffs}
                inequalities.append(
                    LinearConstraint.le(negated, -equality.constant)
                )
                continue
            coeff = equality.coeff_of(target)
            # target == (constant - rest) / coeff with coeff in {1, -1}.
            expr_coeffs = {
                v: (-c if coeff == 1 else c)
                for v, c in equality.coeffs
                if v != target
            }
            expr_const = (
                equality.constant if coeff == 1 else -equality.constant
            )
            substitutions.append((target, expr_coeffs, expr_const))
            self.stats.substitutions += 1
            # Keep the target's own bounds as inequalities on the expr.
            lo, hi = bounds[target]
            with_target = dict(expr_coeffs)
            inequalities.append(
                LinearConstraint.make(with_target, hi - expr_const)
            )
            inequalities.append(
                LinearConstraint.make(
                    {v: -c for v, c in with_target.items()},
                    expr_const - lo,
                )
            )
            bounds.pop(target)
            # Substitute in the remaining constraints.
            replaced_eq = []
            for other in equalities:
                rewritten = other.substitute_expr(
                    target, expr_coeffs, expr_const
                ).normalized()
                if rewritten is None or rewritten.trivially_false:
                    return None
                if not rewritten.trivially_true:
                    replaced_eq.append(rewritten)
            equalities = replaced_eq
            replaced_ineq = []
            for other in inequalities:
                rewritten = other.substitute_expr(
                    target, expr_coeffs, expr_const
                ).normalized()
                assert rewritten is not None
                if rewritten.trivially_false:
                    return None
                if not rewritten.trivially_true:
                    replaced_ineq.append(rewritten)
            inequalities = replaced_ineq
            replaced_diseq = []
            for other in disequalities:
                rewritten = other.substitute_expr(
                    target, expr_coeffs, expr_const
                ).normalized()
                if rewritten is None:
                    continue  # always-true disequality
                if rewritten.is_trivial:
                    if rewritten.constant == 0:
                        return None
                    continue
                replaced_diseq.append(rewritten)
            disequalities[:] = replaced_diseq
        return inequalities, disequalities

    @staticmethod
    def _unit_variable(constraint: LinearConstraint) -> Optional[int]:
        for var, coeff in constraint.coeffs:
            if coeff in (1, -1):
                return var
        return None

    # ------------------------------------------------------------------
    # Bounds propagation over inequalities
    # ------------------------------------------------------------------
    @staticmethod
    def _propagate_bounds(
        inequalities: List[LinearConstraint],
        bounds: Dict[int, Tuple[int, int]],
    ) -> bool:
        """Tighten variable bounds; False when a domain empties."""
        changed = True
        while changed:
            changed = False
            for constraint in inequalities:
                # sum(c_i x_i) <= k: bound each variable by the residual.
                lo_total = 0
                for var, coeff in constraint.coeffs:
                    lo, hi = bounds[var]
                    lo_total += coeff * (lo if coeff > 0 else hi)
                if lo_total > constraint.constant:
                    return False
                for var, coeff in constraint.coeffs:
                    lo, hi = bounds[var]
                    own_min = coeff * (lo if coeff > 0 else hi)
                    residual = constraint.constant - (lo_total - own_min)
                    if coeff > 0:
                        new_hi = residual // coeff
                        if new_hi < hi:
                            if new_hi < lo:
                                return False
                            bounds[var] = (lo, new_hi)
                            changed = True
                    else:
                        new_lo = -((-residual) // coeff)
                        if new_lo > lo:
                            if new_lo > hi:
                                return False
                            bounds[var] = (new_lo, hi)
                            changed = True
        return True

    # ------------------------------------------------------------------
    # Branch and bound with FME pruning
    # ------------------------------------------------------------------
    def _search(
        self,
        inequalities: List[LinearConstraint],
        disequalities: List[LinearConstraint],
        bounds: Dict[int, Tuple[int, int]],
    ) -> Optional[Dict[int, int]]:
        budget = [self.max_branch_nodes]
        return self._search_node(
            inequalities, disequalities, dict(bounds), budget
        )

    @staticmethod
    def _trim_disequalities(
        disequalities: List[LinearConstraint],
        bounds: Dict[int, Tuple[int, int]],
    ) -> Optional[bool]:
        """Endpoint-trim bounds using disequalities.

        Returns ``None`` on wipe-out, else True when something changed.
        """
        changed = False
        for diseq in disequalities:
            free = [
                (var, coeff)
                for var, coeff in diseq.coeffs
                if bounds[var][0] != bounds[var][1]
            ]
            pinned_sum = sum(
                coeff * bounds[var][0]
                for var, coeff in diseq.coeffs
                if bounds[var][0] == bounds[var][1]
            )
            if not free:
                if pinned_sum == diseq.constant:
                    return None
                continue
            if len(free) != 1:
                continue
            var, coeff = free[0]
            residual = diseq.constant - pinned_sum
            if residual % coeff != 0:
                continue
            forbidden = residual // coeff
            lo, hi = bounds[var]
            if forbidden == lo:
                lo += 1
            elif forbidden == hi:
                hi -= 1
            else:
                continue
            if lo > hi:
                return None
            bounds[var] = (lo, hi)
            changed = True
        return changed

    def _search_node(
        self,
        inequalities: List[LinearConstraint],
        disequalities: List[LinearConstraint],
        bounds: Dict[int, Tuple[int, int]],
        budget: List[int],
    ) -> Optional[Dict[int, int]]:
        if budget[0] <= 0:
            raise ResourceLimitError("omega branch budget exhausted")
        if self.interrupt is not None:
            self.interrupt()
        budget[0] -= 1
        self.stats.branches += 1

        while True:
            if not self._propagate_bounds(inequalities, bounds):
                return None
            trimmed = self._trim_disequalities(disequalities, bounds)
            if trimmed is None:
                return None
            if not trimmed:
                break
        open_vars = [
            var for var, (lo, hi) in bounds.items() if lo != hi
        ]
        if not open_vars:
            witness = {var: lo for var, (lo, _) in bounds.items()}
            for constraint in inequalities:
                if not constraint.evaluate(witness):
                    return None
            for diseq in disequalities:
                if diseq.evaluate(witness):
                    return None  # sum == constant: disequality violated
            return witness

        # Prune with the rational relaxation.
        self.stats.fme_calls += 1
        relaxation = list(inequalities)
        for var, (lo, hi) in bounds.items():
            relaxation.append(LinearConstraint.le({var: 1}, hi))
            relaxation.append(LinearConstraint.le({var: -1}, -lo))
        if not rational_feasible(relaxation, self.interrupt):
            return None

        # All-unit-coefficient systems are integral after FME + bounds
        # propagation only if some variable decouples; simplest sound
        # route: branch on the variable with the smallest range.
        branch_var = min(
            open_vars, key=lambda v: bounds[v][1] - bounds[v][0]
        )
        lo, hi = bounds[branch_var]
        mid = (lo + hi) // 2
        for new_lo, new_hi in ((lo, mid), (mid + 1, hi)):
            child_bounds = dict(bounds)
            child_bounds[branch_var] = (new_lo, new_hi)
            witness = self._search_node(
                inequalities, disequalities, child_bounds, budget
            )
            if witness is not None:
                return witness
        return None


def dark_shadow_feasible(
    inequalities: List[LinearConstraint],
) -> Optional[bool]:
    """Omega dark-shadow test on a pure-inequality system.

    Returns ``True`` when the dark shadow proves an integer point exists,
    ``False`` when the *real* shadow is already empty (no rational point,
    hence no integer point), and ``None`` when inconclusive.
    """
    current = [c for c in inequalities if not c.is_trivial]
    if any(c.trivially_false for c in inequalities):
        return False
    exact = True
    while True:
        variables = sorted({v for c in current for v in c.variables()})
        if not variables:
            return True
        var = variables[0]
        uppers = [c for c in current if c.coeff_of(var) > 0]
        lowers = [c for c in current if c.coeff_of(var) < 0]
        projected = eliminate_variable(current, var)
        if projected is None:
            return False if exact else None
        # Dark shadow strengthening: for each (upper, lower) pair with
        # coefficients p, q, the combination must leave room for an
        # integer: q*U + p*L >= (p-1)(q-1) slack is subtracted.
        dark: List[LinearConstraint] = [
            c for c in projected if True
        ]
        needs_dark = any(
            abs(u.coeff_of(var)) > 1 for u in uppers
        ) and any(abs(l.coeff_of(var)) > 1 for l in lowers)
        if needs_dark:
            exact = False
            dark = []
            for upper in uppers:
                p = upper.coeff_of(var)
                for lower in lowers:
                    q = -lower.coeff_of(var)
                    merged: Dict[int, int] = {}
                    for v, c in upper.coeffs:
                        if v != var:
                            merged[v] = merged.get(v, 0) + q * c
                    for v, c in lower.coeffs:
                        if v != var:
                            merged[v] = merged.get(v, 0) + p * c
                    constant = (
                        q * upper.constant
                        + p * lower.constant
                        - (p - 1) * (q - 1)
                    )
                    combined = LinearConstraint.make(merged, constant)
                    if combined.trivially_false:
                        return None
                    if not combined.trivially_true:
                        dark.append(combined)
            dark.extend(
                c for c in current if c.coeff_of(var) == 0
            )
        current = dark if needs_dark else projected
