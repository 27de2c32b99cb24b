"""Rational Fourier–Motzkin elimination.

Classic FME ([3] in the paper): to eliminate variable ``x`` from a set of
inequalities, pair every lower bound on ``x`` with every upper bound and
add their positive combination.  The resulting system is feasible over
the rationals iff the original one is.  The Omega-style integer test in
:mod:`repro.fme.omega` builds on this.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.fme.linear import LinearConstraint


def eliminate_variable(
    constraints: Iterable[LinearConstraint], var: int
) -> Optional[List[LinearConstraint]]:
    """Eliminate ``var`` from a pure-inequality system.

    Returns the projected system, or ``None`` when a trivially false
    constraint appears (the system is rationally infeasible).
    """
    uppers: List[LinearConstraint] = []   # positive coefficient on var
    lowers: List[LinearConstraint] = []   # negative coefficient on var
    rest: List[LinearConstraint] = []
    for constraint in constraints:
        assert not constraint.equality, "eliminate equalities first"
        coeff = constraint.coeff_of(var)
        if coeff > 0:
            uppers.append(constraint)
        elif coeff < 0:
            lowers.append(constraint)
        else:
            rest.append(constraint)

    result: List[LinearConstraint] = list(rest)
    seen: Set[Tuple] = {(c.coeffs, c.constant) for c in rest}
    for upper in uppers:
        p = upper.coeff_of(var)
        for lower in lowers:
            q = -lower.coeff_of(var)
            # q * upper + p * lower eliminates var.
            merged: Dict[int, int] = {}
            for v, c in upper.coeffs:
                if v != var:
                    merged[v] = merged.get(v, 0) + q * c
            for v, c in lower.coeffs:
                if v != var:
                    merged[v] = merged.get(v, 0) + p * c
            constant = q * upper.constant + p * lower.constant
            combined = LinearConstraint.make(merged, constant)
            combined = combined.normalized()
            assert combined is not None  # inequalities always normalise
            if combined.trivially_false:
                return None
            if combined.trivially_true:
                continue
            key = (combined.coeffs, combined.constant)
            if key not in seen:
                seen.add(key)
                result.append(combined)
    return result


def _cheapest_variable(constraints: List[LinearConstraint]) -> Optional[int]:
    """Pick the elimination variable minimising the pair product."""
    uppers: Dict[int, int] = {}
    lowers: Dict[int, int] = {}
    for constraint in constraints:
        for var, coeff in constraint.coeffs:
            if coeff > 0:
                uppers[var] = uppers.get(var, 0) + 1
            else:
                lowers[var] = lowers.get(var, 0) + 1
    variables = set(uppers) | set(lowers)
    if not variables:
        return None
    return min(
        variables,
        key=lambda v: uppers.get(v, 0) * lowers.get(v, 0),
    )


def rational_feasible(
    constraints: Iterable[LinearConstraint],
    interrupt: Optional[Callable[[], None]] = None,
) -> bool:
    """Feasibility of a pure-inequality system over the rationals.

    ``interrupt``, when given, is called before each elimination step.
    """
    current: List[LinearConstraint] = []
    for constraint in constraints:
        if constraint.trivially_false:
            return False
        if not constraint.is_trivial:
            current.append(constraint)
    while True:
        if interrupt is not None:
            interrupt()
        var = _cheapest_variable(current)
        if var is None:
            return True
        projected = eliminate_variable(current, var)
        if projected is None:
            return False
        current = projected


def variable_bounds_after_projection(
    constraints: List[LinearConstraint], var: int
) -> Optional[Tuple[Optional[int], Optional[int]]]:
    """Integer bounds on ``var`` once every other variable is projected out.

    Returns ``(lo, hi)`` (either side may be ``None`` for unbounded), or
    ``None`` when the system is rationally infeasible.  Used for witness
    extraction: any integer in the range extends to a rational solution.
    """
    current = [c for c in constraints if not c.is_trivial]
    if any(c.trivially_false for c in constraints):
        return None
    while True:
        other_vars = {
            v for c in current for v in c.variables() if v != var
        }
        if not other_vars:
            break
        target = min(
            other_vars,
            key=lambda v: sum(1 for c in current if c.coeff_of(v) != 0),
        )
        projected = eliminate_variable(current, target)
        if projected is None:
            return None
        current = projected
    lo: Optional[int] = None
    hi: Optional[int] = None
    for constraint in current:
        coeff = constraint.coeff_of(var)
        if coeff == 0:
            if constraint.trivially_false:
                return None
            continue
        if coeff > 0:
            # c*x <= k with c > 0: x <= floor(k / c).
            bound = constraint.constant // coeff
            hi = bound if hi is None else min(hi, bound)
        else:
            # c*x <= k with c < 0: x >= ceil(k / c).
            bound = -((-constraint.constant) // coeff)
            lo = bound if lo is None else max(lo, bound)
    if lo is not None and hi is not None and lo > hi:
        return None
    return lo, hi
