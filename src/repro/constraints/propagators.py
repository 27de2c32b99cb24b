"""Constraint propagators: hybrid consistency over the RTL operator set.

Each propagator implements bounds-consistency narrowing for one circuit
node, in both directions (forward from operands to output, and backward
from output to operands — the interval analogue of ATPG implication).

Three propagator families cover the whole operator set:

* :class:`LinearEqProp` — ``sum(coeff_i * var_i) == constant``.  All the
  "non-justifiable" datapath operators of Definition 4.1 (add, sub,
  multiplication by constant, shifts, concat, extract, zext) compile to
  one linear equality with auxiliary carry/remainder variables, exactly
  the auxiliary-variable modelling of Section 2.1.
* :class:`MuxProp` — the ITE operator, the justifiable word operator of
  Definition 4.1 rule 2.
* :class:`ComparatorProp` — the predicates ``{==, !=, <, <=, >, >=}``
  with bidirectional propagation (intervals imply the predicate value;
  the predicate value narrows intervals, Equations 2/3).
* :class:`BoolGateProp` — atomic Boolean operators (rule 1), with the
  usual controlling/non-controlling value implications.

These classes are the *reference* propagation core and the behavioural
oracle.  The default core (``SolverConfig.engine_impl="specialized"``)
runs exec()-generated kernels from
:mod:`repro.constraints.compile` that unroll each ``propagate`` method
below into straight-line array code — any semantic change here (bounds
maths, event kinds, antecedent order, counter bumps) must be mirrored
in the matching kernel template, and the differential sweep in
``tests/constraints/test_differential.py`` holds the two bit-for-bit
equal.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import SolverError
from repro.intervals import Interval, narrow_eq, narrow_le, narrow_lt, narrow_ne
from repro.constraints.store import (
    EVENT_ANY,
    EVENT_BOOL,
    EVENT_FIXED,
    EVENT_LOWER,
    EVENT_UPPER,
    Conflict,
    DomainStore,
    Event,
)
from repro.constraints.variable import Variable
from repro.rtl.types import OpKind

#: Wake mask for propagators that react to any bound movement.
BOUNDS_MASK = EVENT_LOWER | EVENT_UPPER | EVENT_FIXED | EVENT_BOOL
#: Wake mask for variables that only matter once fixed to a point
#: (Boolean controls: gate pins, mux selects, comparator outputs).
FIXED_MASK = EVENT_FIXED | EVENT_BOOL


class Propagator:
    """Base class: a constraint over a fixed tuple of variables."""

    #: Subclasses fill this with every variable the constraint mentions.
    variables: Tuple[Variable, ...] = ()
    #: Backing circuit node index, when compiled from a circuit.
    node_index: Optional[int] = None
    #: Worklist tier: 0 = cheap Boolean propagation (drained first),
    #: 1 = interval constraint propagation.
    priority: int = 1
    #: True when ``propagate`` leaves the constraint at a local fixpoint
    #: on return, allowing the engine to skip re-waking the propagator on
    #: events it produced itself.  Every built-in family qualifies; a
    #: subclass that narrows lazily must set this to False.
    idempotent: bool = True

    def wake_mask(self, var: Variable) -> int:
        """EVENT_* bits that should wake this propagator for ``var``."""
        return EVENT_ANY

    def propagate(self, store: DomainStore) -> Optional[Conflict]:
        """Narrow variable domains; return a conflict or ``None``."""
        raise NotImplementedError

    def _narrow(
        self, store: DomainStore, var: Variable, interval: Interval
    ) -> Optional[Conflict]:
        """Helper: narrow one variable, reporting this propagator as reason."""
        outcome = store.narrow(var, interval, self, self.variables)
        if isinstance(outcome, Conflict):
            return outcome
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = ", ".join(v.name for v in self.variables)
        return f"{type(self).__name__}({names})"


class LinearEqProp(Propagator):
    """``sum(coeffs[i] * variables[i]) == constant`` over integers."""

    def __init__(
        self,
        coeffs: Sequence[int],
        variables: Sequence[Variable],
        constant: int,
        label: str = "linear",
    ):
        if len(coeffs) != len(variables):
            raise SolverError("coefficient/variable length mismatch")
        if any(c == 0 for c in coeffs):
            raise SolverError("zero coefficient in linear constraint")
        # Merge duplicate variables (e.g. sub(a, a)): coefficients add,
        # and fully cancelled terms drop out.
        merged: "dict[Variable, int]" = {}
        for coeff, var in zip(coeffs, variables):
            merged[var] = merged.get(var, 0) + coeff
        merged = {var: c for var, c in merged.items() if c != 0}
        self.coeffs = tuple(merged.values())
        self.variables = tuple(merged.keys())
        self.constant = constant
        self.label = label

    def propagate(self, store: DomainStore) -> Optional[Conflict]:
        variables = self.variables
        if not variables:
            if self.constant != 0:
                return Conflict(source=self, antecedents=())
            return None
        # Iterate to a local fixpoint: each pass narrows each variable
        # against the residual interval of the others.  Term bounds are
        # tracked as plain ints against the store's flat lo/hi arrays —
        # no interval objects are built unless a domain actually shrinks.
        coeffs = self.coeffs
        constant = self.constant
        lo_arr = store.lo
        hi_arr = store.hi
        count = len(coeffs)
        term_lo = [0] * count
        term_hi = [0] * count
        total_lo = 0
        total_hi = 0
        for position in range(count):
            coeff = coeffs[position]
            index = variables[position].index
            if coeff >= 0:
                t_lo = coeff * lo_arr[index]
                t_hi = coeff * hi_arr[index]
            else:
                t_lo = coeff * hi_arr[index]
                t_hi = coeff * lo_arr[index]
            term_lo[position] = t_lo
            term_hi[position] = t_hi
            total_lo += t_lo
            total_hi += t_hi
        changed = True
        while changed:
            changed = False
            if not total_lo <= constant <= total_hi:
                return Conflict(
                    source=self,
                    antecedents=self._antecedents(store),
                    var=variables[0],
                )
            for position in range(count):
                coeff = coeffs[position]
                var = variables[position]
                t_lo = term_lo[position]
                t_hi = term_hi[position]
                # coeff * var must land in [constant - others_hi,
                #                           constant - others_lo].
                residual_lo = constant - (total_hi - t_hi)
                residual_hi = constant - (total_lo - t_lo)
                if coeff > 0:
                    var_lo = -((-residual_lo) // coeff)   # ceil
                    var_hi = residual_hi // coeff          # floor
                else:
                    var_lo = -((-residual_hi) // coeff)
                    var_hi = residual_lo // coeff
                index = var.index
                if var_lo <= lo_arr[index] and var_hi >= hi_arr[index]:
                    continue
                if var_lo > var_hi:
                    return Conflict(
                        source=self,
                        antecedents=self._antecedents(store),
                        var=var,
                    )
                outcome = store.narrow_bounds(
                    var, var_lo, var_hi, self, variables
                )
                if isinstance(outcome, Conflict):
                    return outcome
                if isinstance(outcome, Event):
                    changed = True
                    new_lo = lo_arr[index]
                    new_hi = hi_arr[index]
                    if coeff >= 0:
                        n_lo = coeff * new_lo
                        n_hi = coeff * new_hi
                    else:
                        n_lo = coeff * new_hi
                        n_hi = coeff * new_lo
                    total_lo += n_lo - t_lo
                    total_hi += n_hi - t_hi
                    term_lo[position] = n_lo
                    term_hi[position] = n_hi
        return None

    def _antecedents(self, store: DomainStore) -> Tuple[int, ...]:
        return tuple(
            event_id
            for var in self.variables
            if (event_id := store.latest_event[var.index]) is not None
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(
            f"{c}*{v.name}" for c, v in zip(self.coeffs, self.variables)
        )
        return f"LinearEq[{self.label}]({terms} == {self.constant})"


class MuxProp(Propagator):
    """``out == (sel ? then_value : else_value)``.

    ``imply_select`` controls the backward rule "output disjoint from one
    branch implies the select".  The paper's HDPLL leaves that inference
    to the *structural decision strategy* (Figure 4 presents ``b1 = 0``
    as a decision, not an implication), so it is off by default; turning
    it on strengthens ``Ddeduce`` and is exposed as an ablation.
    Conflict detection (both branches disjoint) is always on.
    """

    def __init__(
        self,
        out: Variable,
        sel: Variable,
        then_var: Variable,
        else_var: Variable,
        imply_select: bool = False,
    ):
        self.out = out
        self.sel = sel
        self.then_var = then_var
        self.else_var = else_var
        self.imply_select = imply_select
        self.variables = (out, sel, then_var, else_var)

    def wake_mask(self, var: Variable) -> int:
        # The select only matters once it is decided to 0/1; the data
        # pins and the output matter on any bound movement.
        return FIXED_MASK if var is self.sel else BOUNDS_MASK

    def propagate(self, store: DomainStore) -> Optional[Conflict]:
        sel_value = store.bool_value(self.sel)
        if sel_value is not None:
            chosen = self.then_var if sel_value else self.else_var
            narrowed = narrow_eq(store.domain(self.out), store.domain(chosen))
            if narrowed is None:
                return Conflict(
                    source=self,
                    antecedents=self._latest(store),
                    var=self.out,
                )
            out_interval, chosen_interval = narrowed
            conflict = self._narrow(store, self.out, out_interval)
            if conflict is not None:
                return conflict
            return self._narrow(store, chosen, chosen_interval)

        out_domain = store.domain(self.out)
        then_domain = store.domain(self.then_var)
        else_domain = store.domain(self.else_var)
        # Forward: the output lies in the hull of the two data inputs.
        conflict = self._narrow(
            store, self.out, then_domain.union_hull(else_domain)
        )
        if conflict is not None:
            return conflict
        # Backward on the select: if the output is incompatible with one
        # branch, the other must be selected.
        out_domain = store.domain(self.out)
        then_possible = out_domain.intersects(then_domain)
        else_possible = out_domain.intersects(else_domain)
        if not then_possible and not else_possible:
            return Conflict(
                source=self, antecedents=self._latest(store), var=self.out
            )
        if not self.imply_select:
            return None
        if not then_possible:
            outcome = store.assign_bool(self.sel, 0, self, self.variables)
            if isinstance(outcome, Conflict):
                return outcome
            return self.propagate(store)
        if not else_possible:
            outcome = store.assign_bool(self.sel, 1, self, self.variables)
            if isinstance(outcome, Conflict):
                return outcome
            return self.propagate(store)
        return None

    def _latest(self, store: DomainStore) -> Tuple[int, ...]:
        return tuple(
            event_id
            for var in self.variables
            if (event_id := store.latest_event[var.index]) is not None
        )


class ComparatorProp(Propagator):
    """``pred == (x REL y)`` for REL in {==, !=, <, <=, >, >=}.

    GT/GE are normalised to LT/LE with swapped operands at construction,
    so propagation only handles EQ, NE, LT and LE.
    """

    _NEGATION = {
        OpKind.EQ: OpKind.NE,
        OpKind.NE: OpKind.EQ,
        # not(x < y) == (y <= x); handled by swapping in _narrow_relation.
    }

    def __init__(self, pred: Variable, kind: OpKind, x: Variable, y: Variable):
        if kind is OpKind.GT:
            kind, x, y = OpKind.LT, y, x
        elif kind is OpKind.GE:
            kind, x, y = OpKind.LE, y, x
        if kind not in (OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE):
            raise SolverError(f"not a comparator kind: {kind}")
        self.pred = pred
        self.kind = kind
        self.x = x
        self.y = y
        self.variables = (pred, x, y)
        # A degenerate comparator (x aliased to y, e.g. ``a != a`` from a
        # randomly generated circuit) narrows the same variable twice per
        # pass against stale bounds, so one pass is not a local fixpoint:
        # the engine must re-wake it on its own events.
        self.idempotent = x is not y

    def wake_mask(self, var: Variable) -> int:
        # The predicate output is Boolean: nothing to do until assigned.
        return FIXED_MASK if var is self.pred else BOUNDS_MASK

    # -- truth evaluation over intervals --------------------------------
    def _decided(self, dx: Interval, dy: Interval) -> Optional[int]:
        """0/1 when the intervals force the predicate, else None."""
        if self.kind is OpKind.EQ:
            if dx.is_point and dy.is_point:
                return int(dx.lo == dy.lo)
            if not dx.intersects(dy):
                return 0
            return None
        if self.kind is OpKind.NE:
            if dx.is_point and dy.is_point:
                return int(dx.lo != dy.lo)
            if not dx.intersects(dy):
                return 1
            return None
        if self.kind is OpKind.LT:
            if dx.hi < dy.lo:
                return 1
            if dx.lo >= dy.hi:
                return 0
            return None
        # LE
        if dx.hi <= dy.lo:
            return 1
        if dx.lo > dy.hi:
            return 0
        return None

    def _narrow_relation(
        self, value: int, dx: Interval, dy: Interval
    ) -> Optional[Tuple[Interval, Interval]]:
        """Apply the (possibly negated) relation to the operand intervals."""
        kind = self.kind
        if value == 0:
            if kind is OpKind.EQ:
                return narrow_ne(dx, dy)
            if kind is OpKind.NE:
                return narrow_eq(dx, dy)
            if kind is OpKind.LT:
                # not(x < y)  ==  y <= x
                narrowed = narrow_le(dy, dx)
                if narrowed is None:
                    return None
                new_y, new_x = narrowed
                return new_x, new_y
            # not(x <= y)  ==  y < x
            narrowed = narrow_lt(dy, dx)
            if narrowed is None:
                return None
            new_y, new_x = narrowed
            return new_x, new_y
        if kind is OpKind.EQ:
            return narrow_eq(dx, dy)
        if kind is OpKind.NE:
            return narrow_ne(dx, dy)
        if kind is OpKind.LT:
            return narrow_lt(dx, dy)
        return narrow_le(dx, dy)

    def propagate(self, store: DomainStore) -> Optional[Conflict]:
        domains = store.domains
        dx = domains[self.x.index]
        dy = domains[self.y.index]
        pred_index = self.pred.index
        pred_lo = store.lo[pred_index]
        pred_value = pred_lo if pred_lo == store.hi[pred_index] else None
        if pred_value is None:
            decided = self._decided(dx, dy)
            if decided is None:
                return None
            outcome = store.assign_bool(
                self.pred, decided, self, self.variables
            )
            if isinstance(outcome, Conflict):
                return outcome
            return None
        narrowed = self._narrow_relation(pred_value, dx, dy)
        if narrowed is None:
            return Conflict(
                source=self,
                antecedents=tuple(
                    event_id
                    for var in self.variables
                    if (event_id := store.latest_event[var.index]) is not None
                ),
                var=self.pred,
            )
        new_x, new_y = narrowed
        conflict = self._narrow(store, self.x, new_x)
        if conflict is not None:
            return conflict
        return self._narrow(store, self.y, new_y)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Comparator({self.pred.name} == "
            f"({self.x.name} {self.kind.value} {self.y.name}))"
        )


class BoolGateProp(Propagator):
    """An atomic Boolean gate: AND/OR/NAND/NOR/NOT/BUF/XOR/XNOR.

    Propagation implements the classic three-valued implication rules:
    controlling input forces the output; output at non-controlled value
    forces remaining inputs once all others are at non-controlling values.
    """

    #: Boolean implication is the cheap tier: drained before any ICP.
    priority = 0

    def wake_mask(self, var: Variable) -> int:
        return FIXED_MASK

    def __init__(self, kind: OpKind, out: Variable, inputs: Sequence[Variable]):
        self.kind = kind
        self.out = out
        self.inputs = tuple(inputs)
        self.variables = (out,) + self.inputs
        if kind in (OpKind.AND, OpKind.NAND):
            self._controlling, self._inversion = 0, kind is OpKind.NAND
        elif kind in (OpKind.OR, OpKind.NOR):
            self._controlling, self._inversion = 1, kind is OpKind.NOR
        elif kind in (OpKind.NOT, OpKind.BUF):
            self._controlling = None
            self._inversion = kind is OpKind.NOT
        elif kind in (OpKind.XOR, OpKind.XNOR):
            self._controlling = None
            self._inversion = kind is OpKind.XNOR
        else:
            raise SolverError(f"not a Boolean gate kind: {kind}")

    def _assign(
        self, store: DomainStore, var: Variable, value: int
    ) -> Optional[Conflict]:
        outcome = store.assign_bool(var, value, self, self.variables)
        if isinstance(outcome, Conflict):
            return outcome
        return None

    def propagate(self, store: DomainStore) -> Optional[Conflict]:
        if self.kind in (OpKind.NOT, OpKind.BUF):
            return self._propagate_unary(store)
        if self.kind in (OpKind.XOR, OpKind.XNOR):
            return self._propagate_xor(store)
        return self._propagate_and_or(store)

    def _propagate_unary(self, store: DomainStore) -> Optional[Conflict]:
        input_value = store.bool_value(self.inputs[0])
        output_value = store.bool_value(self.out)
        flip = 1 if self._inversion else 0
        if input_value is not None:
            return self._assign(store, self.out, input_value ^ flip)
        if output_value is not None:
            return self._assign(store, self.inputs[0], output_value ^ flip)
        return None

    def _propagate_xor(self, store: DomainStore) -> Optional[Conflict]:
        a, b = self.inputs
        values = [store.bool_value(v) for v in (self.out, a, b)]
        flip = 1 if self._inversion else 0
        unknown = [i for i, v in enumerate(values) if v is None]
        if len(unknown) >= 2:
            return None
        # out ^ a ^ b == flip; solve for the single unknown (or check).
        if not unknown:
            if values[0] ^ values[1] ^ values[2] != flip:
                return Conflict(
                    source=self,
                    antecedents=tuple(
                        event_id
                        for var in self.variables
                        if (event_id := store.latest_event[var.index])
                        is not None
                    ),
                    var=self.out,
                )
            return None
        target = [self.out, a, b][unknown[0]]
        known = [v for v in values if v is not None]
        return self._assign(store, target, known[0] ^ known[1] ^ flip)

    def _propagate_and_or(self, store: DomainStore) -> Optional[Conflict]:
        controlling = self._controlling
        controlled_output = controlling ^ (1 if self._inversion else 0)
        lo_arr = store.lo
        hi_arr = store.hi
        # Forward: a controlling input decides the output.  One scan over
        # the flat bound arrays also counts the open inputs.
        unknown_count = 0
        first_unknown: Optional[Variable] = None
        for var in self.inputs:
            index = var.index
            value = lo_arr[index]
            if value != hi_arr[index]:
                unknown_count += 1
                if first_unknown is None:
                    first_unknown = var
            elif value == controlling:
                return self._assign(store, self.out, controlled_output)
        if unknown_count == 0:
            # All inputs at the non-controlling value.
            return self._assign(store, self.out, 1 - controlled_output)
        out_index = self.out.index
        output_value = lo_arr[out_index]
        if output_value != hi_arr[out_index]:
            return None
        if output_value == 1 - controlled_output:
            # Output at the non-controlled value: every input must be
            # non-controlling.
            non_controlling = 1 - controlling
            for var in self.inputs:
                index = var.index
                if lo_arr[index] != hi_arr[index]:
                    conflict = self._assign(store, var, non_controlling)
                    if conflict is not None:
                        return conflict
            return None
        # Output at the controlled value: if exactly one input is open,
        # it must be controlling.
        if unknown_count == 1:
            return self._assign(store, first_unknown, controlling)
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(v.name for v in self.inputs)
        return f"BoolGate({self.out.name} = {self.kind.value}({ins}))"
