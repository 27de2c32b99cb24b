"""Hybrid constraint system: variables, trail, clauses, propagators, engine.

This package is the substrate beneath HDPLL (Algorithm 1 of the paper):
it provides hybrid consistency checking — Boolean constraint propagation
plus interval constraint propagation over the compiled RTL — together
with the trail/implication-graph bookkeeping conflict analysis needs.
"""

from repro.constraints.clause import (
    FALSE,
    TRUE,
    UNASSIGNED,
    BoolLit,
    Clause,
    ClauseDatabase,
    Literal,
    WordLit,
    make_bool_lit,
)
from repro.constraints.compile import (
    CompiledSystem,
    build_kernels,
    compile_circuit,
    netlist_signature,
)
from repro.constraints.engine import ENGINE_IMPLS, PropagationEngine
from repro.constraints.propagators import (
    BoolGateProp,
    ComparatorProp,
    LinearEqProp,
    MuxProp,
    Propagator,
)
from repro.constraints.store import (
    ASSUMPTION,
    DECISION,
    EVENT_ANY,
    EVENT_BOOL,
    EVENT_FIXED,
    EVENT_LOWER,
    EVENT_UPPER,
    Conflict,
    DomainStore,
    Event,
)
from repro.constraints.variable import Variable, VarOrigin

__all__ = [
    "ASSUMPTION",
    "BoolGateProp",
    "ENGINE_IMPLS",
    "BoolLit",
    "Clause",
    "ClauseDatabase",
    "ComparatorProp",
    "CompiledSystem",
    "Conflict",
    "DECISION",
    "DomainStore",
    "EVENT_ANY",
    "EVENT_BOOL",
    "EVENT_FIXED",
    "EVENT_LOWER",
    "EVENT_UPPER",
    "Event",
    "FALSE",
    "LinearEqProp",
    "Literal",
    "MuxProp",
    "PropagationEngine",
    "Propagator",
    "TRUE",
    "UNASSIGNED",
    "Variable",
    "VarOrigin",
    "WordLit",
    "build_kernels",
    "compile_circuit",
    "make_bool_lit",
    "netlist_signature",
]
