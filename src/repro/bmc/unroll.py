"""Time-frame expansion of sequential circuits.

Bounded model checking unrolls a sequential circuit into ``bound``
combinational copies: frame 0 starts from the registers' reset values,
and each register output at frame ``t > 0`` is the copy of its
next-state net from frame ``t - 1``.  Net ``n`` of frame ``t`` is named
``n@t``; every circuit output alias is re-exported per frame as
``alias@t``.

:class:`IncrementalUnroller` is the growth-capable form: it appends one
frame at a time to a single unrolled circuit and hands back the freshly
added nodes (in dependency order), which is what the incremental solving
layer feeds to a persistent solver's
:meth:`~repro.core.hdpll.HdpllSolver.extend`.  The classic
:func:`unroll` / :func:`unroll_free_initial` are thin wrappers that
build all frames up front.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CircuitError
from repro.rtl.circuit import Circuit, Net, Node
from repro.rtl.types import OpKind


def frame_name(base: str, frame: int) -> str:
    """Name of a net copy in one time frame."""
    return f"{base}@{frame}"


class IncrementalUnroller:
    """Grow a time-frame expansion one frame at a time.

    ``free_initial=True`` makes frame 0's register outputs fresh primary
    inputs instead of reset constants — the shape the inductive step
    (and the incremental base-case session, which asserts the reset
    values as retractable assumptions instead) wants.  After each
    :meth:`extend`, :attr:`unrolled` is a valid circuit covering frames
    ``0 .. frames - 1``.
    """

    def __init__(
        self,
        circuit: Circuit,
        free_initial: bool = False,
        name: Optional[str] = None,
    ):
        circuit.validate()
        self.source = circuit
        self.free_initial = free_initial
        self.unrolled = Circuit(name or f"{circuit.name}_inc")
        self.frames = 0
        self._order = circuit.topological_nodes()
        #: source net index -> its copy in the most recent frame.
        self._previous: Dict[int, Net] = {}

    def extend(self, frames: int = 1) -> List[Node]:
        """Append ``frames`` more time frames.

        Returns the nodes added to :attr:`unrolled`, in dependency
        order, so a live solver session can compile exactly the suffix.
        """
        if frames < 1:
            raise CircuitError(f"frames must be at least 1, got {frames}")
        node_mark = len(self.unrolled.nodes)
        for _ in range(frames):
            self._add_frame()
        self.unrolled.validate()
        return self.unrolled.nodes[node_mark:]

    def _add_frame(self) -> None:
        frame = self.frames
        unrolled = self.unrolled
        current_frame: Dict[int, Net] = {}
        for node in self._order:
            source_net = node.output
            name = frame_name(source_net.name, frame)
            if node.kind is OpKind.INPUT:
                copy = unrolled.add_input(name, source_net.width)
            elif node.kind is OpKind.CONST:
                copy = unrolled.add_const(
                    node.const_value or 0, source_net.width, name
                )
            elif node.kind is OpKind.REG:
                if frame == 0:
                    if self.free_initial:
                        copy = unrolled.add_input(name, source_net.width)
                    else:
                        copy = unrolled.add_const(
                            node.init_value or 0, source_net.width, name
                        )
                else:
                    # The register output at frame t is the previous
                    # frame's next-state net: reuse it directly (no BUF)
                    # and record the alias in the frame map.
                    copy = self._previous[node.operands[0].index]
            else:
                operands = [
                    current_frame[operand.index] for operand in node.operands
                ]
                attrs = {}
                if node.factor is not None:
                    attrs["factor"] = node.factor
                if node.shift_amount is not None:
                    attrs["shift_amount"] = node.shift_amount
                if node.extract_lo is not None:
                    attrs["extract_lo"] = node.extract_lo
                if node.extract_hi is not None:
                    attrs["extract_hi"] = node.extract_hi
                copy = unrolled.add_node(
                    node.kind,
                    operands,
                    width=source_net.width,
                    name=name if not unrolled.has_net(name) else None,
                    **attrs,
                )
            current_frame[source_net.index] = copy
        for alias, net in self.source.outputs.items():
            unrolled.mark_output(
                frame_name(alias, frame), current_frame[net.index]
            )
        self._previous = current_frame
        self.frames += 1


def unroll(circuit: Circuit, bound: int) -> Circuit:
    """Expand ``circuit`` into ``bound`` combinational time frames."""
    if bound < 1:
        raise CircuitError(f"bound must be at least 1, got {bound}")
    unroller = IncrementalUnroller(
        circuit, free_initial=False, name=f"{circuit.name}_bmc{bound}"
    )
    unroller.extend(bound)
    return unroller.unrolled


def unroll_free_initial(circuit: Circuit, frames: int) -> Circuit:
    """Time-frame expansion with *free* starting registers.

    Identical to :func:`unroll` except frame 0's register outputs become
    fresh primary inputs (named like the frame-0 register copies), which
    is what the inductive step needs.
    """
    if frames < 1:
        raise CircuitError(f"frames must be at least 1, got {frames}")
    unroller = IncrementalUnroller(
        circuit, free_initial=True, name=f"{circuit.name}_step{frames}"
    )
    unroller.extend(frames)
    return unroller.unrolled


def input_trace_from_model(
    circuit: Circuit, model: Dict[str, int], bound: int
) -> List[Dict[str, int]]:
    """Recover the per-frame input assignment from an unrolled model.

    Useful for replaying a BMC counterexample on the sequential
    simulator (done in the tests to validate every SAT answer).
    """
    trace: List[Dict[str, int]] = []
    for frame in range(bound):
        values = {
            net.name: model[frame_name(net.name, frame)]
            for net in circuit.inputs
        }
        trace.append(values)
    return trace
