"""Word-level netlist IR: nets, nodes and circuits.

A :class:`Circuit` is a directed graph of :class:`Node` operators connected
by :class:`Net` signals.  Nets carry an unsigned value of a fixed bit-width
(width 1 is the Boolean domain ``<0, 1>``, width ``w`` the word domain
``<0, 2**w - 1>`` of Section 2.1).  Sequential behaviour is expressed with
``REG`` nodes; :mod:`repro.bmc` unrolls them into purely combinational
circuits before solving.

The IR is deliberately explicit: every operator is a node, every signal a
net, and structural queries (fanout, levels, cones) are cheap — this is
the structure the paper's techniques exploit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CircuitError
from repro.rtl.types import (
    BOOLEAN_KINDS,
    PREDICATE_KINDS,
    WORD_KINDS,
    OpKind,
    arity,
)


@dataclass(eq=False)
class Net:
    """A signal of fixed bit-width driven by at most one node."""

    index: int
    name: str
    width: int
    driver: Optional["Node"] = None
    fanouts: List["Node"] = field(default_factory=list)

    @property
    def is_bool(self) -> bool:
        """True when this net is a 1-bit (Boolean) signal."""
        return self.width == 1

    @property
    def max_value(self) -> int:
        """Largest unsigned value representable on this net."""
        return (1 << self.width) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Net({self.name}:{self.width})"


@dataclass(eq=False)
class Node:
    """An operator instance driving exactly one output net."""

    index: int
    kind: OpKind
    output: Net
    operands: Tuple[Net, ...]
    # Kind-specific attributes (unused fields stay None).
    const_value: Optional[int] = None    # CONST
    init_value: Optional[int] = None     # REG reset value
    factor: Optional[int] = None         # MULC constant multiplier
    shift_amount: Optional[int] = None   # SHL / SHR
    extract_lo: Optional[int] = None     # EXTRACT low bit (inclusive)
    extract_hi: Optional[int] = None     # EXTRACT high bit (inclusive)

    @property
    def is_boolean_gate(self) -> bool:
        return self.kind in BOOLEAN_KINDS

    @property
    def is_predicate(self) -> bool:
        return self.kind in PREDICATE_KINDS

    @property
    def is_word_op(self) -> bool:
        return self.kind in WORD_KINDS

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ops = ", ".join(n.name for n in self.operands)
        return f"Node({self.output.name} = {self.kind.value}({ops}))"


@dataclass(frozen=True)
class CircuitStats:
    """Operator census used for the tables in the paper's evaluation."""

    arith_ops: int
    bool_ops: int
    predicates: int
    inputs: int
    registers: int
    nets: int

    @property
    def total_ops(self) -> int:
        return self.arith_ops + self.bool_ops


class Circuit:
    """A mutable word-level netlist."""

    def __init__(self, name: str = "circuit"):
        self.name = name
        self.nets: List[Net] = []
        self.nodes: List[Node] = []
        self.inputs: List[Net] = []
        self.registers: List[Node] = []
        self.outputs: Dict[str, Net] = {}
        self._net_by_name: Dict[str, Net] = {}
        self._next_auto = 0
        #: Memoized topological order, keyed by node count.  Nodes are
        #: append-only and the only post-construction operand mutation
        #: is register next-state wiring (excluded from the dependency
        #: walk), so the count fully determines the order.
        self._topo_cache: Optional[Tuple[int, List[Node]]] = None

    # ------------------------------------------------------------------
    # Net management
    # ------------------------------------------------------------------
    def _fresh_name(self, prefix: str) -> str:
        while True:
            name = f"{prefix}{self._next_auto}"
            self._next_auto += 1
            if name not in self._net_by_name:
                return name

    def new_net(self, width: int, name: Optional[str] = None) -> Net:
        """Create a fresh undriven net."""
        if width < 1:
            raise CircuitError(f"net width must be positive, got {width}")
        if name is None:
            name = self._fresh_name("_n")
        if name in self._net_by_name:
            raise CircuitError(f"duplicate net name {name!r}")
        net = Net(index=len(self.nets), name=name, width=width)
        self.nets.append(net)
        self._net_by_name[name] = net
        return net

    def net(self, name: str) -> Net:
        """Look up a net by name."""
        try:
            return self._net_by_name[name]
        except KeyError:
            raise CircuitError(f"no net named {name!r}") from None

    def has_net(self, name: str) -> bool:
        return name in self._net_by_name

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------
    def add_input(self, name: str, width: int) -> Net:
        """Declare a primary input."""
        net = self.new_net(width, name)
        node = Node(index=len(self.nodes), kind=OpKind.INPUT, output=net, operands=())
        net.driver = node
        self.nodes.append(node)
        self.inputs.append(net)
        return net

    def add_const(self, value: int, width: int, name: Optional[str] = None) -> Net:
        """A constant word; the value must fit in ``width`` bits."""
        if not 0 <= value < (1 << width):
            raise CircuitError(
                f"constant {value} does not fit in {width} bits"
            )
        net = self.new_net(width, name)
        node = Node(
            index=len(self.nodes),
            kind=OpKind.CONST,
            output=net,
            operands=(),
            const_value=value,
        )
        net.driver = node
        self.nodes.append(node)
        return net

    def add_register(self, name: str, width: int, init: int = 0) -> Net:
        """Declare a register; its next-state input is connected later.

        Returning the output net before the next-state net exists is what
        allows feedback loops (FSMs, counters) to be described naturally.
        """
        if not 0 <= init < (1 << width):
            raise CircuitError(f"register init {init} does not fit in {width} bits")
        net = self.new_net(width, name)
        node = Node(
            index=len(self.nodes),
            kind=OpKind.REG,
            output=net,
            operands=(),
            init_value=init,
        )
        net.driver = node
        self.nodes.append(node)
        self.registers.append(node)
        return net

    def set_register_next(self, reg_net: Net, next_net: Net) -> None:
        """Connect the next-state function of a register."""
        node = reg_net.driver
        if node is None or node.kind is not OpKind.REG:
            raise CircuitError(f"{reg_net.name!r} is not a register output")
        if node.operands:
            raise CircuitError(f"register {reg_net.name!r} already connected")
        if next_net.width != reg_net.width:
            raise CircuitError(
                f"register {reg_net.name!r} width {reg_net.width} != "
                f"next-state width {next_net.width}"
            )
        node.operands = (next_net,)
        next_net.fanouts.append(node)

    def add_node(
        self,
        kind: OpKind,
        operands: Sequence[Net],
        width: Optional[int] = None,
        name: Optional[str] = None,
        **attrs: int,
    ) -> Net:
        """Add an operator node and return its output net.

        ``width`` may be omitted where it is implied by the operands;
        kind-specific attributes (``factor``, ``shift_amount``,
        ``extract_lo``/``extract_hi``) are passed as keyword arguments.
        """
        operands = tuple(operands)
        self._check_operands(kind, operands, attrs)
        out_width = self._output_width(kind, operands, width, attrs)
        net = self.new_net(out_width, name)
        node = Node(
            index=len(self.nodes),
            kind=kind,
            output=net,
            operands=operands,
            factor=attrs.get("factor"),
            shift_amount=attrs.get("shift_amount"),
            extract_lo=attrs.get("extract_lo"),
            extract_hi=attrs.get("extract_hi"),
        )
        net.driver = node
        self.nodes.append(node)
        for operand in operands:
            operand.fanouts.append(node)
        return net

    def _check_operands(
        self, kind: OpKind, operands: Tuple[Net, ...], attrs: Dict[str, int]
    ) -> None:
        expected = arity(kind)
        if expected == -1:
            if len(operands) < 2:
                raise CircuitError(f"{kind.value} needs at least 2 operands")
        elif expected != len(operands):
            raise CircuitError(
                f"{kind.value} takes {expected} operands, got {len(operands)}"
            )
        if kind in BOOLEAN_KINDS:
            for operand in operands:
                if not operand.is_bool:
                    raise CircuitError(
                        f"{kind.value} operand {operand.name!r} must be 1 bit"
                    )
        if kind in PREDICATE_KINDS or kind in (OpKind.ADD, OpKind.SUB):
            if operands[0].width != operands[1].width:
                raise CircuitError(
                    f"{kind.value} operand widths differ: "
                    f"{operands[0].width} vs {operands[1].width}"
                )
        if kind is OpKind.MUX:
            if not operands[0].is_bool:
                raise CircuitError("mux select must be 1 bit")
            if operands[1].width != operands[2].width:
                raise CircuitError(
                    f"mux data widths differ: {operands[1].width} vs "
                    f"{operands[2].width}"
                )
        if kind is OpKind.MULC and "factor" not in attrs:
            raise CircuitError("mulc requires a 'factor' attribute")
        if kind in (OpKind.SHL, OpKind.SHR) and "shift_amount" not in attrs:
            raise CircuitError(f"{kind.value} requires a 'shift_amount' attribute")
        if kind is OpKind.EXTRACT:
            lo = attrs.get("extract_lo")
            hi = attrs.get("extract_hi")
            if lo is None or hi is None:
                raise CircuitError("extract requires extract_lo and extract_hi")
            if not 0 <= lo <= hi < operands[0].width:
                raise CircuitError(
                    f"extract range [{lo}, {hi}] out of bounds for width "
                    f"{operands[0].width}"
                )

    def _output_width(
        self,
        kind: OpKind,
        operands: Tuple[Net, ...],
        width: Optional[int],
        attrs: Dict[str, int],
    ) -> int:
        if kind in BOOLEAN_KINDS or kind in PREDICATE_KINDS:
            implied = 1
        elif kind is OpKind.MUX:
            implied = operands[1].width
        elif kind in (OpKind.ADD, OpKind.SUB, OpKind.MULC, OpKind.SHL, OpKind.SHR):
            implied = operands[0].width
        elif kind is OpKind.CONCAT:
            implied = operands[0].width + operands[1].width
        elif kind is OpKind.EXTRACT:
            implied = attrs["extract_hi"] - attrs["extract_lo"] + 1
        elif kind is OpKind.ZEXT:
            if width is None:
                raise CircuitError("zext requires an explicit output width")
            if width <= operands[0].width:
                raise CircuitError(
                    f"zext output width {width} must exceed input width "
                    f"{operands[0].width}"
                )
            implied = width
        else:
            raise CircuitError(f"cannot determine output width for {kind.value}")
        if width is not None and width != implied:
            raise CircuitError(
                f"{kind.value} output width {width} conflicts with implied "
                f"width {implied}"
            )
        return implied

    # ------------------------------------------------------------------
    # Outputs and queries
    # ------------------------------------------------------------------
    def mark_output(self, name: str, net: Net) -> None:
        """Expose a net as a named circuit output."""
        if name in self.outputs:
            raise CircuitError(f"duplicate output name {name!r}")
        self.outputs[name] = net

    @property
    def is_combinational(self) -> bool:
        """True when the circuit contains no registers."""
        return not self.registers

    def topological_nodes(self) -> List[Node]:
        """Nodes in dependency order (operands before users).

        Register outputs are treated as sources (their next-state operand
        does not create a combinational dependency), so a well-formed
        sequential circuit always has a topological order; a combinational
        cycle raises :class:`CircuitError`.

        The order is memoized per node count — incremental consumers
        (BMC frame extension validates and re-levelizes per frame) would
        otherwise repeat the full DFS many times per circuit.  Appended
        nodes whose operands are all driven by earlier nodes extend the
        memo in index order, which is the order the DFS would give them
        (every dependency is already done when it reaches them); any
        other append re-runs the DFS.  A fresh list is returned on every
        call so callers may mutate their copy.
        """
        cached = self._topo_cache
        if cached is not None:
            known, order = cached
            if known == len(self.nodes):
                return list(order)
            appended = self.nodes[known:]
            if all(
                node.kind is OpKind.REG
                or all(
                    operand.driver is not None
                    and operand.driver.index < node.index
                    for operand in node.operands
                )
                for node in appended
            ):
                order.extend(appended)
                self._topo_cache = (len(self.nodes), order)
                return list(order)
        order = []
        state = bytearray(len(self.nodes))  # 0 unvisited, 1 on stack, 2 done
        for root in self.nodes:
            if state[root.index]:
                continue
            stack: List[Tuple[Node, int]] = [(root, 0)]
            state[root.index] = 1
            while stack:
                node, position = stack[-1]
                deps = () if node.kind is OpKind.REG else node.operands
                if position < len(deps):
                    stack[-1] = (node, position + 1)
                    dep = deps[position].driver
                    if dep is None:
                        raise CircuitError(
                            f"net {deps[position].name!r} has no driver"
                        )
                    if state[dep.index] == 1:
                        raise CircuitError(
                            f"combinational cycle through {dep.output.name!r}"
                        )
                    if state[dep.index] == 0:
                        state[dep.index] = 1
                        stack.append((dep, 0))
                else:
                    state[node.index] = 2
                    order.append(node)
                    stack.pop()
        self._topo_cache = (len(self.nodes), order)
        return list(order)

    def validate(self) -> None:
        """Check structural invariants; raises :class:`CircuitError`."""
        for net in self.nets:
            if net.driver is None:
                raise CircuitError(f"net {net.name!r} has no driver")
        for node in self.registers:
            if not node.operands:
                raise CircuitError(
                    f"register {node.output.name!r} has no next-state input"
                )
        self.topological_nodes()
        for name, net in self.outputs.items():
            if net.index >= len(self.nets) or self.nets[net.index] is not net:
                raise CircuitError(f"output {name!r} references a foreign net")

    def stats(self) -> CircuitStats:
        """Operator census in the categories the paper's tables report.

        The paper counts comparison predicates, muxes and arithmetic as
        "Arith ops" (word operations) and pure Boolean gates as "Bool ops".
        """
        arith = 0
        boolean = 0
        predicates = 0
        for node in self.nodes:
            if node.kind in PREDICATE_KINDS:
                arith += 1
                predicates += 1
            elif node.kind in WORD_KINDS:
                arith += 1
            elif node.kind in BOOLEAN_KINDS:
                boolean += 1
        return CircuitStats(
            arith_ops=arith,
            bool_ops=boolean,
            predicates=predicates,
            inputs=len(self.inputs),
            registers=len(self.registers),
            nets=len(self.nets),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Circuit({self.name!r}, {len(self.nodes)} nodes, "
            f"{len(self.nets)} nets)"
        )


def iter_fanin_cone(nets: Iterable[Net]) -> List[Net]:
    """Transitive fan-in cone of ``nets`` (including them), as a list.

    Register outputs terminate the traversal (they are state sources for
    a single time frame).
    """
    seen: Dict[int, Net] = {}
    stack = list(nets)
    while stack:
        net = stack.pop()
        if net.index in seen:
            continue
        seen[net.index] = net
        driver = net.driver
        if driver is None or driver.kind is OpKind.REG:
            continue
        stack.extend(driver.operands)
    return list(seen.values())
