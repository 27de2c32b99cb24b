"""Compilation of a combinational circuit into a constraint system.

Every net becomes a solver variable with its full width domain; every node
becomes a propagator.  Datapath operators with modular semantics (add,
sub, multiplication by constant, shifts, extract) introduce auxiliary
carry/remainder variables so that every datapath constraint is a *linear
integer equality* — the paper's Section 2.1 treatment ("non-linear
operations ... are modeled as arithmetic constraints by adding auxiliary
variables").
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import UnsupportedOperationError
from repro.intervals import Interval
from repro.intervals import interval as _interval_mod
from repro.constraints.propagators import (
    BoolGateProp,
    ComparatorProp,
    LinearEqProp,
    MuxProp,
    Propagator,
)
from repro.constraints.store import Conflict, Event
from repro.constraints.variable import Variable, VarOrigin
from repro.rtl.circuit import Circuit, Net, Node
from repro.rtl.types import BOOLEAN_KINDS, PREDICATE_KINDS, OpKind


@dataclass
class CompiledSystem:
    """The solver-facing form of a circuit."""

    circuit: Circuit
    variables: List[Variable] = field(default_factory=list)
    propagators: List[Propagator] = field(default_factory=list)
    #: net index -> variable backing that net.
    var_of_net: Dict[int, Variable] = field(default_factory=dict)
    #: circuit node index -> the propagator compiled from it.
    prop_of_node: Dict[int, Propagator] = field(default_factory=dict)
    #: auxiliary variables introduced during compilation.
    aux_variables: List[Variable] = field(default_factory=list)

    def var(self, net: Net) -> Variable:
        """The solver variable backing a circuit net."""
        return self.var_of_net[net.index]

    def var_by_name(self, name: str) -> Variable:
        """Variable backing the net (or output alias) with this name."""
        if name in self.circuit.outputs:
            return self.var(self.circuit.outputs[name])
        return self.var(self.circuit.net(name))

    @property
    def boolean_net_vars(self) -> List[Variable]:
        """Boolean variables backed by circuit nets (decision candidates)."""
        return [
            var
            for var in self.variables
            if var.is_bool and var.origin is VarOrigin.NET
        ]


@dataclass
class CompiledExtension:
    """Variables and propagators appended by :func:`extend_compiled`."""

    variables: List[Variable]
    propagators: List[Propagator]


class _Compiler:
    def __init__(
        self,
        circuit: Circuit,
        mux_select_implication: bool = False,
        system: Optional[CompiledSystem] = None,
    ):
        if system is None:
            circuit.validate()
            if not circuit.is_combinational:
                raise UnsupportedOperationError(
                    "only combinational circuits can be compiled; unroll "
                    "sequential circuits with repro.bmc first"
                )
        self.circuit = circuit
        self.mux_select_implication = mux_select_implication
        self.system = (
            system if system is not None else CompiledSystem(circuit=circuit)
        )

    # ------------------------------------------------------------------
    def _new_var(
        self,
        name: str,
        width: int,
        origin: VarOrigin,
        net_index: Optional[int] = None,
        domain: Optional[Interval] = None,
    ) -> Variable:
        var = Variable(
            index=len(self.system.variables),
            name=name,
            width=width,
            origin=origin,
            net_index=net_index,
            initial_domain=domain,  # type: ignore[arg-type]
        )
        self.system.variables.append(var)
        if origin is VarOrigin.AUXILIARY:
            self.system.aux_variables.append(var)
        return var

    def _aux(self, name: str, lo: int, hi: int) -> Variable:
        width = max(1, (hi if hi > 0 else 1).bit_length())
        return self._new_var(
            name, width, VarOrigin.AUXILIARY, domain=Interval(lo, hi)
        )

    def _add_prop(self, propagator: Propagator, node: Node) -> None:
        propagator.node_index = node.index
        self.system.propagators.append(propagator)
        self.system.prop_of_node[node.index] = propagator

    def _linear(
        self,
        node: Node,
        coeffs: List[int],
        variables: List[Variable],
        constant: int,
        label: str,
    ) -> None:
        self._add_prop(LinearEqProp(coeffs, variables, constant, label), node)

    # ------------------------------------------------------------------
    def compile(self) -> CompiledSystem:
        for node in self.circuit.topological_nodes():
            self._compile_node(node)
        return self.system

    def _compile_node(self, node: Node) -> None:
        net = node.output
        kind = node.kind
        if kind is OpKind.CONST:
            self.system.var_of_net[net.index] = self._new_var(
                net.name,
                net.width,
                VarOrigin.NET,
                net.index,
                Interval.point(node.const_value or 0),
            )
            return
        out = self._new_var(net.name, net.width, VarOrigin.NET, net.index)
        self.system.var_of_net[net.index] = out
        if kind is OpKind.INPUT:
            return
        if kind is OpKind.REG:
            raise UnsupportedOperationError(
                "registers cannot be compiled; unroll the circuit first"
            )
        operands = [self.system.var_of_net[n.index] for n in node.operands]

        if kind in BOOLEAN_KINDS:
            self._add_prop(BoolGateProp(kind, out, operands), node)
        elif kind in PREDICATE_KINDS:
            self._add_prop(
                ComparatorProp(out, kind, operands[0], operands[1]), node
            )
        elif kind is OpKind.MUX:
            self._add_prop(
                MuxProp(
                    out,
                    operands[0],
                    operands[1],
                    operands[2],
                    imply_select=self.mux_select_implication,
                ),
                node,
            )
        elif kind is OpKind.ADD:
            carry = self._aux(f"{net.name}__carry", 0, 1)
            modulus = 1 << net.width
            # a + b == out + 2**w * carry
            self._linear(
                node,
                [1, 1, -1, -modulus],
                [operands[0], operands[1], out, carry],
                0,
                "add",
            )
        elif kind is OpKind.SUB:
            borrow = self._aux(f"{net.name}__borrow", 0, 1)
            modulus = 1 << net.width
            # a - b == out - 2**w * borrow
            self._linear(
                node,
                [1, -1, -1, modulus],
                [operands[0], operands[1], out, borrow],
                0,
                "sub",
            )
        elif kind in (OpKind.MULC, OpKind.SHL):
            factor = (
                node.factor
                if kind is OpKind.MULC
                else 1 << (node.shift_amount or 0)
            )
            assert factor is not None
            modulus = 1 << net.width
            if factor == 0:
                self._linear(node, [1], [out], 0, "mulc0")
                return
            overflow_max = (factor * (modulus - 1)) // modulus
            if overflow_max == 0:
                # k * a == out (no wrap possible)
                self._linear(
                    node, [factor, -1], [operands[0], out], 0, "mulc"
                )
            else:
                quotient = self._aux(f"{net.name}__ovf", 0, overflow_max)
                # k * a == out + 2**w * q
                self._linear(
                    node,
                    [factor, -1, -modulus],
                    [operands[0], out, quotient],
                    0,
                    "mulc",
                )
        elif kind is OpKind.SHR:
            amount = node.shift_amount or 0
            if amount == 0:
                self._linear(node, [1, -1], [operands[0], out], 0, "shr0")
                return
            scale = 1 << amount
            remainder = self._aux(f"{net.name}__rem", 0, scale - 1)
            # a == 2**k * out + r
            self._linear(
                node,
                [1, -scale, -1],
                [operands[0], out, remainder],
                0,
                "shr",
            )
        elif kind is OpKind.CONCAT:
            lo_width = node.operands[1].width
            # hi * 2**lo_width + lo == out
            self._linear(
                node,
                [1 << lo_width, 1, -1],
                [operands[0], operands[1], out],
                0,
                "concat",
            )
        elif kind is OpKind.EXTRACT:
            self._compile_extract(node, operands[0], out)
        elif kind is OpKind.ZEXT:
            self._linear(node, [1, -1], [operands[0], out], 0, "zext")
        else:  # pragma: no cover - new kinds must be handled explicitly
            raise UnsupportedOperationError(f"cannot compile {kind.value}")

    def _compile_extract(self, node: Node, source: Variable, out: Variable) -> None:
        """``out = source[hi_bit : lo_bit]`` via the auxiliary decomposition
        ``source == hp * 2**(hi+1) + out * 2**lo + lp``."""
        lo_bit = node.extract_lo or 0
        hi_bit = node.extract_hi
        assert hi_bit is not None
        source_width = node.operands[0].width
        coeffs: List[int] = [1, -(1 << lo_bit)]
        variables: List[Variable] = [source, out]
        high_width = source_width - hi_bit - 1
        if high_width > 0:
            high_part = self._aux(
                f"{node.output.name}__hi", 0, (1 << high_width) - 1
            )
            coeffs.append(-(1 << (hi_bit + 1)))
            variables.append(high_part)
        if lo_bit > 0:
            low_part = self._aux(
                f"{node.output.name}__lo", 0, (1 << lo_bit) - 1
            )
            coeffs.append(-1)
            variables.append(low_part)
        self._linear(node, coeffs, variables, 0, "extract")


def compile_circuit(
    circuit: Circuit, mux_select_implication: bool = False
) -> CompiledSystem:
    """Compile a combinational circuit into variables and propagators.

    ``mux_select_implication`` enables the strengthened mux backward rule
    (see :class:`repro.constraints.propagators.MuxProp`).
    """
    return _Compiler(circuit, mux_select_implication).compile()


# ---------------------------------------------------------------------------
# Specialized propagator kernels (engine_impl="specialized", the default)
# ---------------------------------------------------------------------------
# A kernel is a function ``kernel(store) -> Optional[Conflict]`` that is a
# *bit-for-bit transcription* of one propagator family's ``propagate``:
# same narrow_bounds calls in the same order with the same reason and
# involved tuple, same conflict objects with the same antecedent
# ordering.  What the kernels eliminate is pure interpretation overhead —
# bound-method dispatch, Interval object churn, per-call attribute
# lookups — never behaviour.  The reference ``propagate`` methods in
# :mod:`repro.constraints.propagators` (and the narrowing rules in
# :mod:`repro.intervals.narrowing`) are the source of truth: any change
# there must be mirrored here, and the differential engine sweep in
# ``tests/constraints/test_differential.py`` enforces the equivalence.

#: Largest linear-constraint arity that gets an unrolled kernel.
_LINEAR_MAX_ARITY = 4

_CMP_CODES = {OpKind.EQ: 0, OpKind.NE: 1, OpKind.LT: 2, OpKind.LE: 3}

#: exec()-generated kernel factories keyed by family descriptor.  A
#: factory depends on nothing but its descriptor, and the interning dict
#: and counters it binds are cleared in place (never rebound) by
#: ``reset_interval_cache``, so the memo lives for the whole process:
#: code generation is paid once per family, not once per solve.
_KERNEL_FACTORIES: Dict[Tuple, Callable] = {}


def netlist_signature(nodes: Sequence[Node]) -> str:
    """Index-normalized structural hash of a node list.

    Net indices are taken relative to the first node's output so that
    identically shaped node lists at different index offsets hash
    equal.  The signature captures everything compilation depends on
    (operator kind, widths, constants, factor and shift parameters,
    operand aliasing pattern); the solver daemon keys its warm-session
    cache by it.
    """
    digest = hashlib.sha1()
    base: Optional[int] = None
    for node in nodes:
        if base is None:
            base = node.output.index
        digest.update(
            repr(
                (
                    node.kind.value,
                    node.output.index - base,
                    node.output.width,
                    tuple(
                        (op.index - base, op.width) for op in node.operands
                    ),
                    node.const_value,
                    node.factor,
                    node.shift_amount,
                    node.extract_lo,
                    node.extract_hi,
                )
            ).encode()
        )
    return digest.hexdigest()


def classify_propagator(prop: Propagator) -> Optional[Tuple]:
    """The kernel family descriptor of one propagator (None = no kernel).

    Exact-type checks, not isinstance: a subclass overriding
    ``propagate`` must keep its own implementation.
    """
    cls = type(prop)
    if cls is LinearEqProp:
        count = len(prop.coeffs)
        if 1 <= count <= _LINEAR_MAX_ARITY:
            return (
                "lin",
                count,
                tuple(1 if c > 0 else -1 for c in prop.coeffs),
            )
        return None
    if cls is ComparatorProp:
        return ("cmp", _CMP_CODES[prop.kind])
    if cls is MuxProp:
        if prop.imply_select:
            # The recursive strengthened backward rule stays on the
            # reference path (ablation configuration, never hot).
            return None
        return ("mux",)
    if cls is BoolGateProp:
        kind = prop.kind
        if kind is OpKind.NOT or kind is OpKind.BUF:
            return ("g1",)
        if kind is OpKind.XOR or kind is OpKind.XNOR:
            return ("gx",)
        return ("gao",)
    return None


#: Every descriptor :func:`classify_propagator` can return: ``lin`` for
#: each arity up to :data:`_LINEAR_MAX_ARITY` times each sign pattern,
#: ``cmp`` for each comparator code, and the four gate/mux families.
KERNEL_FAMILIES: Tuple[Tuple, ...] = (
    *(
        ("lin", count, signs)
        for count in range(1, _LINEAR_MAX_ARITY + 1)
        for signs in itertools.product((1, -1), repeat=count)
    ),
    *(("cmp", code) for code in sorted(_CMP_CODES.values())),
    ("mux",),
    ("g1",),
    ("gx",),
    ("gao",),
)


def warm_kernel_factories() -> None:
    """Generate the factory of every family in :data:`KERNEL_FAMILIES`.

    Library code never calls this: a process that only solves generates
    the families it meets, on first use.  The fork server calls it once
    (through :mod:`repro.preload`), so the children it forks inherit
    every factory instead of generating their own after each fork.
    """
    for entry in KERNEL_FAMILIES:
        _factory_for(entry)


# -- generated-source building blocks ---------------------------------------
#
# Every kernel family below is exec()-generated from a source template.
# The template inlines the body of :meth:`DomainStore.narrow_bounds`
# (meet, antecedent collection, conflict build, event-kind bits, trail
# append) directly at each narrowing site, with the reason and involved
# tuple pre-resolved to index tuples at factory time and the store's
# bound arrays bound as default arguments.  This removes the per-narrowing
# call chain (narrow_bounds -> _antecedents_for -> Event(**kwargs))
# while producing the exact same trail: same Event field values in the
# same order, same Conflict objects with the same antecedent ordering,
# same interval-cache and narrowing counters.


def _narrow_block(
    ind: str, var: str, vi: str, oth: str, kb: str, nlo: str, nhi: str
) -> str:
    """Source lines inlining ``store.narrow_bounds(var, nlo, nhi, prop,
    variables)`` plus the caller's conflict check.

    A statement-for-statement transcription of
    :meth:`~repro.constraints.store.DomainStore.narrow_bounds` with
    ``reason=prop`` and ``involved=prop.variables`` pre-resolved:
    ``oth`` names the tuple of the *other* involved variables' indices
    (``prop.variables`` order, identity-skipping the target exactly like
    ``_antecedents_for``) and ``kb`` the EVENT_FIXED|EVENT_BOOL bits of
    the target.  ``nlo``/``nhi`` must be plain local names — they are
    evaluated twice.
    """
    return f"""\
{ind}cl = lo[{vi}]
{ind}ch = hi[{vi}]
{ind}ml = {nlo} if {nlo} > cl else cl
{ind}mh = {nhi} if {nhi} < ch else ch
{ind}if ml != cl or mh != ch:
{ind}    prev = latest[{vi}]
{ind}    ante = [] if prev is None else [prev]
{ind}    for _j in {oth}:
{ind}        _a = latest[_j]
{ind}        if _a is not None:
{ind}            ante.append(_a)
{ind}    ante = tuple(ante)
{ind}    if ml > mh:
{ind}        return Conflict(prop, ante, {var})
{ind}    kinds = 1 if ml > cl else 0
{ind}    if mh < ch:
{ind}        kinds |= 2
{ind}    if ml == mh:
{ind}        kinds |= {kb}
{ind}    iv = _cget((ml, mh))
{ind}    if iv is None:
{ind}        iv = _make(ml, mh)
{ind}    else:
{ind}        _chits[0] += 1
{ind}    eid = len(trail)
{ind}    trail.append(Event(eid, {var}, domains[{vi}], iv, \
store.decision_level, prop, ante, kinds, prev))
{ind}    store.narrowings += 1
{ind}    domains[{vi}] = iv
{ind}    lo[{vi}] = ml
{ind}    hi[{vi}] = mh
{ind}    latest[{vi}] = eid
"""


def _conflict_block(ind: str, var: str) -> str:
    """Propagator-built conflict: latest events in ``variables`` order
    (the transcription of the reference ``_latest_conflict`` helper)."""
    return f"""\
{ind}ante = []
{ind}for _j in all_idx:
{ind}    _a = latest[_j]
{ind}    if _a is not None:
{ind}        ante.append(_a)
{ind}return Conflict(prop, tuple(ante), {var})
"""


#: Shared factory head: resolves the involved-variable index tuples and
#: event-kind constants.  The store's arrays are stable for its lifetime
#: (``add_variables`` and ``backtrack_to`` mutate them in place), so
#: kernels bind them once instead of loading attributes per call.
_FACTORY_HEAD = """\
def factory(prop, store):
    variables = prop.variables
    all_idx = tuple(v.index for v in variables)
    lo = store.lo
    hi = store.hi
    trail = store.trail
    domains = store.domains
    latest = store.latest_event

    def _oth(target):
        return tuple(v.index for v in variables if v is not target)

    def _kb(target):
        return 12 if target.is_bool else 4

"""

#: Store arrays every kernel reads, and the propagator it narrows for.
_STORE_NAMES = ("lo", "hi", "trail", "domains", "latest", "prop")


def _kernel_def(*names: str) -> str:
    """The kernel's ``def`` line inside a factory.

    The store arrays and each of ``names`` (the factory's per-propagator
    constants the kernel reads) become default arguments: one tuple on
    the function object instead of one closure cell per name, which
    roughly halves a kernel's memory with no loss of speed.  A name the
    kernel reads but this list misses would fall through to a global
    lookup, so ``tests/constraints/test_engine_impls.py`` checks every
    family for unresolved globals as well as for closure cells.
    """
    params = "".join(f", {name}={name}" for name in _STORE_NAMES + names)
    return f"    def kernel(store{params}):\n"


# -- comparator sources -----------------------------------------------------
#: Decided-predicate inference per comparator code, mirroring the
#: reference ``_decided`` logic (EQ / NE / LT / LE).
_CMP_DECIDED = {
    0: [
        "if xl == xh and yl == yh:",
        "    value = 1 if xl == yl else 0",
        "elif xh < yl or yh < xl:",
        "    value = 0",
        "else:",
        "    return None",
    ],
    1: [
        "if xl == xh and yl == yh:",
        "    value = 1 if xl != yl else 0",
        "elif xh < yl or yh < xl:",
        "    value = 1",
        "else:",
        "    return None",
    ],
    2: [
        "if xh < yl:",
        "    value = 1",
        "elif xl >= yh:",
        "    value = 0",
        "else:",
        "    return None",
    ],
    3: [
        "if xh <= yl:",
        "    value = 1",
        "elif xl > yh:",
        "    value = 0",
        "else:",
        "    return None",
    ],
}


def _cmp_apply_eq(ind: str) -> str:
    """Apply ``x == y`` (narrow_eq) to the operands."""
    return (
        f"{ind}ml0 = xl if xl >= yl else yl\n"
        f"{ind}mh0 = xh if xh <= yh else yh\n"
        f"{ind}if ml0 > mh0:\n"
        + _conflict_block(ind + "    ", "pred")
        + f"{ind}if ml0 != xl or mh0 != xh:\n"
        + _narrow_block(ind + "    ", "x", "xi", "oth_x", "kb_x", "ml0", "mh0")
        + f"{ind}if ml0 != yl or mh0 != yh:\n"
        + _narrow_block(ind + "    ", "y", "yi", "oth_y", "kb_y", "ml0", "mh0")
        + f"{ind}return None\n"
    )


def _cmp_apply_ne(ind: str) -> str:
    """Apply ``x != y`` (narrow_ne, including Interval.difference)."""
    return (
        f"{ind}nxl = xl\n"
        f"{ind}nxh = xh\n"
        f"{ind}nyl = yl\n"
        f"{ind}nyh = yh\n"
        f"{ind}if yl == yh and xl <= yl <= xh:\n"
        f"{ind}    if xl == xh:\n"
        + _conflict_block(ind + "        ", "pred")
        + f"{ind}    if yl == xl:\n"
        f"{ind}        nxl = yl + 1\n"
        f"{ind}    elif yl == xh:\n"
        f"{ind}        nxh = yl - 1\n"
        f"{ind}if xl == xh and yl <= xl <= yh:\n"
        f"{ind}    if xl == yl:\n"
        f"{ind}        nyl = xl + 1\n"
        f"{ind}    elif xl == yh:\n"
        f"{ind}        nyh = xl - 1\n"
        f"{ind}if nxl == nxh and nyl == nyh and nxl == nyl:\n"
        + _conflict_block(ind + "    ", "pred")
        + f"{ind}if nxl != xl or nxh != xh:\n"
        + _narrow_block(ind + "    ", "x", "xi", "oth_x", "kb_x", "nxl", "nxh")
        + f"{ind}if nyl != yl or nyh != yh:\n"
        + _narrow_block(ind + "    ", "y", "yi", "oth_y", "kb_y", "nyl", "nyh")
        + f"{ind}return None\n"
    )


def _cmp_apply_lt(ind: str) -> str:
    """Apply ``x < y`` (narrow_lt)."""
    return (
        f"{ind}nxh0 = xh if xh <= yh - 1 else yh - 1\n"
        f"{ind}nyl0 = yl if yl >= xl + 1 else xl + 1\n"
        f"{ind}if nxh0 < xl or nyl0 > yh:\n"
        + _conflict_block(ind + "    ", "pred")
        + f"{ind}if nxh0 != xh:\n"
        + _narrow_block(ind + "    ", "x", "xi", "oth_x", "kb_x", "xl", "nxh0")
        + f"{ind}if nyl0 != yl:\n"
        + _narrow_block(ind + "    ", "y", "yi", "oth_y", "kb_y", "nyl0", "yh")
        + f"{ind}return None\n"
    )


def _cmp_apply_ge(ind: str) -> str:
    """Apply ``not(x < y)``, i.e. ``y <= x`` (narrow_le swapped)."""
    return (
        f"{ind}nyh0 = yh if yh <= xh else xh\n"
        f"{ind}nxl0 = xl if xl >= yl else yl\n"
        f"{ind}if nyh0 < yl or nxl0 > xh:\n"
        + _conflict_block(ind + "    ", "pred")
        + f"{ind}if nxl0 != xl:\n"
        + _narrow_block(ind + "    ", "x", "xi", "oth_x", "kb_x", "nxl0", "xh")
        + f"{ind}if nyh0 != yh:\n"
        + _narrow_block(ind + "    ", "y", "yi", "oth_y", "kb_y", "yl", "nyh0")
        + f"{ind}return None\n"
    )


def _cmp_apply_le(ind: str) -> str:
    """Apply ``x <= y`` (narrow_le)."""
    return (
        f"{ind}nxh0 = xh if xh <= yh else yh\n"
        f"{ind}nyl0 = yl if yl >= xl else xl\n"
        f"{ind}if nxh0 < xl or nyl0 > yh:\n"
        + _conflict_block(ind + "    ", "pred")
        + f"{ind}if nxh0 != xh:\n"
        + _narrow_block(ind + "    ", "x", "xi", "oth_x", "kb_x", "xl", "nxh0")
        + f"{ind}if nyl0 != yl:\n"
        + _narrow_block(ind + "    ", "y", "yi", "oth_y", "kb_y", "nyl0", "yh")
        + f"{ind}return None\n"
    )


def _cmp_apply_gt(ind: str) -> str:
    """Apply ``not(x <= y)``, i.e. ``y < x`` (narrow_lt swapped)."""
    return (
        f"{ind}nyh0 = yh if yh <= xh - 1 else xh - 1\n"
        f"{ind}nxl0 = xl if xl >= yl + 1 else yl + 1\n"
        f"{ind}if nyh0 < yl or nxl0 > xh:\n"
        + _conflict_block(ind + "    ", "pred")
        + f"{ind}if nxl0 != xl:\n"
        + _narrow_block(ind + "    ", "x", "xi", "oth_x", "kb_x", "nxl0", "xh")
        + f"{ind}if nyh0 != yh:\n"
        + _narrow_block(ind + "    ", "y", "yi", "oth_y", "kb_y", "yl", "nyh0")
        + f"{ind}return None\n"
    )


#: (apply when pred == 1, apply when pred == 0) per comparator code.
_CMP_APPLY = {
    0: (_cmp_apply_eq, _cmp_apply_ne),
    1: (_cmp_apply_ne, _cmp_apply_eq),
    2: (_cmp_apply_lt, _cmp_apply_ge),
    3: (_cmp_apply_le, _cmp_apply_gt),
}


def _cmp_source(code: int) -> str:
    apply_true, apply_false = _CMP_APPLY[code]
    src = _FACTORY_HEAD
    src += """\
    pred = prop.pred
    x = prop.x
    y = prop.y
    pi = pred.index
    xi = x.index
    yi = y.index
    oth_p = _oth(pred)
    oth_x = _oth(x)
    oth_y = _oth(y)
    kb_p = _kb(pred)
    kb_x = _kb(x)
    kb_y = _kb(y)

"""
    src += _kernel_def(
        "all_idx", "pred", "x", "y", "pi", "xi", "yi",
        "oth_p", "oth_x", "oth_y", "kb_p", "kb_x", "kb_y",
    )
    src += """\
        pl = lo[pi]
        xl = lo[xi]
        xh = hi[xi]
        yl = lo[yi]
        yh = hi[yi]
        if pl != hi[pi]:
"""
    src += "".join(
        "            " + line + "\n" for line in _CMP_DECIDED[code]
    )
    src += _narrow_block(
        "            ", "pred", "pi", "oth_p", "kb_p", "value", "value"
    )
    src += "            return None\n"
    src += "        if pl == 1:\n"
    src += apply_true("            ")
    src += apply_false("        ")
    src += "    return kernel\n"
    return src


# -- mux source -------------------------------------------------------------
def _mux_source() -> str:
    src = _FACTORY_HEAD
    src += """\
    out = prop.out
    tvar = prop.then_var
    evar = prop.else_var
    oi = out.index
    si = prop.sel.index
    ti = tvar.index
    ei = evar.index
    oth_o = _oth(out)
    oth_t = _oth(tvar)
    oth_e = _oth(evar)
    kb_o = _kb(out)
    kb_t = _kb(tvar)
    kb_e = _kb(evar)

"""
    src += _kernel_def(
        "all_idx", "out", "tvar", "evar", "oi", "si", "ti", "ei",
        "oth_o", "oth_t", "oth_e", "kb_o", "kb_t", "kb_e",
    )
    src += """\
        sl = lo[si]
        if sl == hi[si]:
            if sl:
                tv = tvar
                tvi = ti
                toth = oth_t
                tkb = kb_t
            else:
                tv = evar
                tvi = ei
                toth = oth_e
                tkb = kb_e
            ol = lo[oi]
            oh = hi[oi]
            c0 = lo[tvi]
            c1 = hi[tvi]
            ml0 = ol if ol >= c0 else c0
            mh0 = oh if oh <= c1 else c1
            if ml0 > mh0:
"""
    src += _conflict_block("                ", "out")
    src += "            if ml0 != ol or mh0 != oh:\n"
    src += _narrow_block(
        "                ", "out", "oi", "oth_o", "kb_o", "ml0", "mh0"
    )
    src += "            if ml0 != c0 or mh0 != c1:\n"
    src += _narrow_block(
        "                ", "tv", "tvi", "toth", "tkb", "ml0", "mh0"
    )
    src += """\
            return None
        ol = lo[oi]
        oh = hi[oi]
        tl = lo[ti]
        th = hi[ti]
        el = lo[ei]
        eh = hi[ei]
        hull_lo = tl if tl <= el else el
        hull_hi = th if th >= eh else eh
        if hull_lo > ol or hull_hi < oh:
"""
    src += _narrow_block(
        "            ", "out", "oi", "oth_o", "kb_o", "hull_lo", "hull_hi"
    )
    src += """\
            ol = lo[oi]
            oh = hi[oi]
        # Branch compatibility uses the data bounds read *before* the
        # hull narrow, exactly like the reference propagator.
        if not ((ol <= th and tl <= oh) or (ol <= eh and el <= oh)):
"""
    src += _conflict_block("            ", "out")
    src += """\
        return None
    return kernel
"""
    return src


# -- Boolean gate sources ---------------------------------------------------
def _gate_unary_source() -> str:
    src = _FACTORY_HEAD
    src += """\
    out = prop.out
    inp = prop.inputs[0]
    oi = out.index
    ii = inp.index
    oth_o = _oth(out)
    oth_i = _oth(inp)
    kb_o = _kb(out)
    kb_i = _kb(inp)
    flip = 1 if prop._inversion else 0

"""
    src += _kernel_def(
        "out", "inp", "oi", "ii", "oth_o", "oth_i", "kb_o", "kb_i", "flip"
    )
    src += """\
        il = lo[ii]
        if il == hi[ii]:
            value = il ^ flip
"""
    src += _narrow_block(
        "            ", "out", "oi", "oth_o", "kb_o", "value", "value"
    )
    src += """\
            return None
        ol = lo[oi]
        if ol == hi[oi]:
            value = ol ^ flip
"""
    src += _narrow_block(
        "            ", "inp", "ii", "oth_i", "kb_i", "value", "value"
    )
    src += """\
            return None
        return None
    return kernel
"""
    return src


def _gate_xor_source() -> str:
    src = _FACTORY_HEAD
    src += """\
    out = prop.out
    a = prop.inputs[0]
    b = prop.inputs[1]
    oi = out.index
    ai = a.index
    bi = b.index
    oth_o = _oth(out)
    oth_a = _oth(a)
    oth_b = _oth(b)
    kb_o = _kb(out)
    kb_a = _kb(a)
    kb_b = _kb(b)
    flip = 1 if prop._inversion else 0

"""
    src += _kernel_def(
        "all_idx", "out", "a", "b", "oi", "ai", "bi",
        "oth_o", "oth_a", "oth_b", "kb_o", "kb_a", "kb_b", "flip",
    )
    src += """\
        ov = lo[oi]
        av = lo[ai]
        bv = lo[bi]
        o_known = ov == hi[oi]
        a_known = av == hi[ai]
        b_known = bv == hi[bi]
        unknown = 3 - (o_known + a_known + b_known)
        if unknown >= 2:
            return None
        if unknown == 0:
            if ov ^ av ^ bv != flip:
"""
    src += _conflict_block("                ", "out")
    src += """\
            return None
        if not o_known:
            tv = out
            tvi = oi
            toth = oth_o
            tkb = kb_o
            value = av ^ bv ^ flip
        elif not a_known:
            tv = a
            tvi = ai
            toth = oth_a
            tkb = kb_a
            value = ov ^ bv ^ flip
        else:
            tv = b
            tvi = bi
            toth = oth_b
            tkb = kb_b
            value = ov ^ av ^ flip
"""
    src += _narrow_block(
        "        ", "tv", "tvi", "toth", "tkb", "value", "value"
    )
    src += """\
        return None
    return kernel
"""
    return src


def _gate_and_or_source() -> str:
    src = _FACTORY_HEAD
    src += """\
    out = prop.out
    input_vars = prop.inputs
    oi = out.index
    input_indices = tuple(v.index for v in input_vars)
    oth_o = _oth(out)
    kb_o = _kb(out)
    oth_in = tuple(_oth(v) for v in input_vars)
    kb_in = tuple(_kb(v) for v in input_vars)
    controlling = prop._controlling
    controlled_output = controlling ^ (1 if prop._inversion else 0)
    non_controlled = 1 - controlled_output
    non_controlling = 1 - controlling

"""
    src += _kernel_def(
        "out", "input_vars", "oi", "input_indices", "oth_o", "kb_o", "oth_in",
        "kb_in", "controlling", "controlled_output", "non_controlled",
        "non_controlling",
    )
    src += """\
        unknown_count = 0
        fu_slot = -1
        slot = 0
        for index in input_indices:
            value = lo[index]
            if value != hi[index]:
                unknown_count += 1
                if fu_slot < 0:
                    fu_slot = slot
            elif value == controlling:
"""
    src += _narrow_block(
        "                ",
        "out",
        "oi",
        "oth_o",
        "kb_o",
        "controlled_output",
        "controlled_output",
    )
    src += """\
                return None
            slot += 1
        if unknown_count == 0:
"""
    src += _narrow_block(
        "            ",
        "out",
        "oi",
        "oth_o",
        "kb_o",
        "non_controlled",
        "non_controlled",
    )
    src += """\
            return None
        ov = lo[oi]
        if ov != hi[oi]:
            return None
        if ov == non_controlled:
            slot = 0
            for tvi in input_indices:
                if lo[tvi] != hi[tvi]:
                    tv = input_vars[slot]
                    toth = oth_in[slot]
                    tkb = kb_in[slot]
"""
    src += _narrow_block(
        "                    ",
        "tv",
        "tvi",
        "toth",
        "tkb",
        "non_controlling",
        "non_controlling",
    )
    src += """\
                slot += 1
            return None
        if unknown_count == 1:
            tv = input_vars[fu_slot]
            tvi = input_indices[fu_slot]
            toth = oth_in[fu_slot]
            tkb = kb_in[fu_slot]
"""
    src += _narrow_block(
        "            ", "tv", "tvi", "toth", "tkb", "controlling", "controlling"
    )
    src += """\
            return None
        return None
    return kernel
"""
    return src


# -- linear source ----------------------------------------------------------
def _linear_source(count: int, signs: Tuple[int, ...]) -> str:
    """Source for one (arity, signs) linear cohort.

    Unrolls :meth:`LinearEqProp.propagate` with the coefficient signs
    resolved at generation time (the ceil/floor residual divisions
    differ by sign) and the running term/total updates kept in local
    variables — later positions of the same pass see earlier
    narrowings, exactly like the reference loop.
    """
    src = _FACTORY_HEAD
    src += "    constant = prop.constant\n"
    for p in range(count):
        src += f"    v{p} = variables[{p}]\n"
        src += f"    i{p} = v{p}.index\n"
        src += f"    c{p} = prop.coeffs[{p}]\n"
        src += f"    oth{p} = _oth(v{p})\n"
        src += f"    kb{p} = _kb(v{p})\n"
    src += "\n" + _kernel_def(
        "constant",
        "all_idx",
        *(
            f"{name}{p}"
            for p in range(count)
            for name in ("v", "i", "c", "oth", "kb")
        ),
    )
    for p in range(count):
        if signs[p] > 0:
            src += f"        t_lo{p} = c{p} * lo[i{p}]\n"
            src += f"        t_hi{p} = c{p} * hi[i{p}]\n"
        else:
            src += f"        t_lo{p} = c{p} * hi[i{p}]\n"
            src += f"        t_hi{p} = c{p} * lo[i{p}]\n"
    totals_lo = " + ".join(f"t_lo{p}" for p in range(count))
    totals_hi = " + ".join(f"t_hi{p}" for p in range(count))
    src += f"        total_lo = {totals_lo}\n"
    src += f"        total_hi = {totals_hi}\n"
    src += "        while True:\n"
    src += "            changed = False\n"
    src += "            if total_lo > constant or total_hi < constant:\n"
    src += _conflict_block("                ", "v0")
    for p in range(count):
        if signs[p] > 0:
            src += (
                f"            var_lo = -((-(constant - (total_hi - t_hi{p})))"
                f" // c{p})\n"
            )
            src += (
                f"            var_hi = (constant - (total_lo - t_lo{p}))"
                f" // c{p}\n"
            )
        else:
            src += (
                f"            var_lo = -((-(constant - (total_lo - t_lo{p})))"
                f" // c{p})\n"
            )
            src += (
                f"            var_hi = (constant - (total_hi - t_hi{p}))"
                f" // c{p}\n"
            )
        src += f"            if var_lo > lo[i{p}] or var_hi < hi[i{p}]:\n"
        src += "                if var_lo > var_hi:\n"
        src += _conflict_block("                    ", f"v{p}")
        src += _narrow_block(
            "                ",
            f"v{p}",
            f"i{p}",
            f"oth{p}",
            f"kb{p}",
            "var_lo",
            "var_hi",
        )
        src += "                changed = True\n"
        if signs[p] > 0:
            src += f"                n_lo = c{p} * lo[i{p}]\n"
            src += f"                n_hi = c{p} * hi[i{p}]\n"
        else:
            src += f"                n_lo = c{p} * hi[i{p}]\n"
            src += f"                n_hi = c{p} * lo[i{p}]\n"
        src += f"                total_lo += n_lo - t_lo{p}\n"
        src += f"                total_hi += n_hi - t_hi{p}\n"
        src += f"                t_lo{p} = n_lo\n"
        src += f"                t_hi{p} = n_hi\n"
    src += "            if not changed:\n"
    src += "                return None\n"
    src += "    return kernel\n"
    return src


def _factory_for(entry: Tuple) -> Callable:
    """The exec()-generated kernel factory for one family (memoized)."""
    factory = _KERNEL_FACTORIES.get(entry)
    if factory is not None:
        return factory
    family = entry[0]
    if family == "lin":
        src = _linear_source(entry[1], entry[2])
    elif family == "cmp":
        src = _cmp_source(entry[1])
    elif family == "mux":
        src = _mux_source()
    elif family == "g1":
        src = _gate_unary_source()
    elif family == "gx":
        src = _gate_xor_source()
    else:
        src = _gate_and_or_source()
    # ``_interval_cache`` is cleared in place by ``reset_interval_cache``
    # (never rebound), so binding its ``get`` here stays valid; the
    # inlined hit path bumps the hit counter exactly like ``make`` and
    # leaves the miss path (build + bounded insert) to ``make`` itself.
    namespace = {
        "Conflict": Conflict,
        "Event": Event,
        "_make": Interval.make,
        "_cget": _interval_mod._CACHE.get,
        "_chits": _interval_mod._CACHE_COUNTS,
    }
    exec(src, namespace)  # noqa: S102 - trusted codegen
    factory = namespace["factory"]
    _KERNEL_FACTORIES[entry] = factory
    return factory


def build_kernels(propagators: Sequence[Propagator], store) -> List[Callable]:
    """Specialized kernels for a propagator list over ``store``.

    ``kernels[i]`` runs ``propagators[i]`` (its bound reference
    ``propagate`` when no kernel family applies).  ``store`` is the
    :class:`~repro.constraints.store.DomainStore` the kernels will run
    against: its bound arrays are bound into the kernels, so the
    kernels are only valid for that store.
    """
    kernels = []
    for prop in propagators:
        entry = classify_propagator(prop)
        if entry is None:
            kernels.append(prop.propagate)
        else:
            kernels.append(_factory_for(entry)(prop, store))
    return kernels


def extend_compiled(
    system: CompiledSystem,
    nodes: List[Node],
    mux_select_implication: bool = False,
) -> CompiledExtension:
    """Compile a node suffix into an existing system (frame extension).

    ``nodes`` must be new nodes of ``system.circuit`` in dependency order
    whose operands are either earlier nodes in the list or nets already
    compiled — exactly what the incremental unroller hands back.  The
    appended variables keep the system's dense index space, so the
    existing domain store / engine / activity order can absorb them via
    their own ``add``/``extend`` hooks without recompiling frames 0..t.
    """
    compiler = _Compiler(
        system.circuit, mux_select_implication, system=system
    )
    var_mark = len(system.variables)
    prop_mark = len(system.propagators)
    for node in nodes:
        if node.output.index in system.var_of_net:
            raise UnsupportedOperationError(
                f"node {node.index} ({node.output.name}) is already compiled"
            )
        compiler._compile_node(node)
    return CompiledExtension(
        variables=system.variables[var_mark:],
        propagators=system.propagators[prop_mark:],
    )
