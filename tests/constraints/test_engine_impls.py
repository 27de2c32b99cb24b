"""Engine-impl plumbing: selection, kernel generation, and parity.

The two propagation cores (``specialized``, the default, and
``reference``, the oracle) are one engine behaviourally; these tests
cover the plumbing around that contract — config validation, the
kernel factory memo under :func:`reset_interval_cache`, the shape of
the generated kernels, the engine-name suffix convention, and
bit-for-bit parity of the raw-propagation drill and the incremental
session sweep across cores.
"""

from __future__ import annotations

import builtins
import dis
import itertools

import pytest

from repro.bmc import make_bmc_instance
from repro.bmc.session import bmc_sweep_session
from repro.constraints import (
    ENGINE_IMPLS,
    BoolGateProp,
    ComparatorProp,
    LinearEqProp,
    MuxProp,
    Variable,
    VarOrigin,
    build_kernels,
    compile_circuit,
)
from repro.constraints import compile as compile_mod
from repro.constraints.engine import PropagationEngine
from repro.constraints.store import DomainStore
from repro.core import HdpllSolver, SolverConfig
from repro.errors import SolverError
from repro.harness.runner import (
    run_engine,
    run_prop_drill,
    split_engine_impl,
)
from repro.intervals import Interval, interval_cache_stats, reset_interval_cache
from repro.itc99 import instance as itc99_instance
from repro.itc99 import random_safety_property, random_sequential_circuit
from repro.itc99.generator import random_combinational_circuit
from repro.rtl.levelize import (
    transitive_fanout_count,
    transitive_fanout_counts,
)
from repro.rtl.types import OpKind


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def test_unknown_engine_impl_rejected():
    circuit = random_combinational_circuit(0, num_word_inputs=2, width=3)
    with pytest.raises(SolverError, match="unknown engine_impl"):
        HdpllSolver(circuit, SolverConfig(engine_impl="turbo"))


def test_unknown_engine_impl_rejected_through_engine():
    circuit = random_combinational_circuit(0, num_word_inputs=2, width=3)
    system = compile_circuit(circuit)
    store = DomainStore(system.variables)
    with pytest.raises(SolverError, match="unknown engine_impl"):
        PropagationEngine(store, system.propagators, impl="turbo")


def test_split_engine_impl():
    assert SolverConfig().engine_impl == "specialized"
    assert split_engine_impl("hdpll+sp") == ("hdpll+sp", "specialized")
    assert split_engine_impl("hdpll+sp-ref") == ("hdpll+sp", "reference")
    assert split_engine_impl("bmc-session-ref") == ("bmc-session", "reference")
    assert split_engine_impl("prop") == ("prop", "specialized")
    # The removed suffixes are no longer engine-impl selectors.
    assert split_engine_impl("hdpll+sp-spec") == ("hdpll+sp-spec", "specialized")
    assert split_engine_impl("bmc-session-vec") == (
        "bmc-session-vec",
        "specialized",
    )


# ----------------------------------------------------------------------
# Kernel generation
# ----------------------------------------------------------------------
def _level0_fixpoint(system, assumptions, impl):
    """Trail fingerprint, conflict-ness and interval-cache (hits, misses)
    of one level-0 fixpoint, starting from a cold interning cache."""
    reset_interval_cache()
    store = DomainStore(system.variables)
    engine = PropagationEngine(store, system.propagators, impl=impl)
    for name, value in assumptions.items():
        interval = (
            value if isinstance(value, Interval) else Interval.point(value)
        )
        store.assume(system.var_by_name(name), interval)
    engine.enqueue_all()
    conflict = engine.propagate()
    trail = [
        (e.var.index, e.new.lo, e.new.hi, e.kinds, len(e.antecedents))
        for e in store.trail
    ]
    return trail, conflict is None, interval_cache_stats()


def test_reset_interval_cache_keeps_kernel_factories(monkeypatch):
    inst = itc99_instance("b13_1", 6)
    system = compile_circuit(inst.circuit)
    _level0_fixpoint(system, inst.assumptions, "specialized")
    factories = dict(compile_mod._KERNEL_FACTORIES)
    assert factories

    reset_interval_cache()
    assert compile_mod._KERNEL_FACTORIES == factories

    trail, consistent, counts = _level0_fixpoint(
        system, inst.assumptions, "specialized"
    )
    assert compile_mod._KERNEL_FACTORIES == factories
    assert len(trail) > len(inst.assumptions)
    reference = _level0_fixpoint(system, inst.assumptions, "reference")
    assert (trail, consistent) == reference[:2]
    # The reference propagators build intermediate intervals, so its
    # cache counters differ; the kernels' must equal those of factories
    # generated after the reset.  A memoized factory bound to an
    # interning cache the reset replaced instead of clearing would
    # count stale hits.
    monkeypatch.setattr(compile_mod, "_KERNEL_FACTORIES", {})
    fresh = _level0_fixpoint(system, inst.assumptions, "specialized")
    assert (trail, consistent, counts) == fresh


def _var(index, width):
    return Variable(
        index=index, name=f"v{index}", width=width, origin=VarOrigin.NET
    )


def _kernel_cases():
    """(family descriptor, propagator) for every kernel family."""
    word = [_var(i, 4) for i in range(4)]
    bits = [_var(4 + i, 1) for i in range(3)]
    cases = []
    for count in range(1, 5):
        for signs in itertools.product((1, -1), repeat=count):
            coeffs = [sign * (p + 1) for p, sign in enumerate(signs)]
            prop = LinearEqProp(coeffs, word[:count], 3)
            cases.append((("lin", count, signs), prop))
    for code, kind in enumerate((OpKind.EQ, OpKind.NE, OpKind.LT, OpKind.LE)):
        cases.append((("cmp", code), ComparatorProp(bits[0], kind, *word[:2])))
    cases.append((("mux",), MuxProp(word[0], bits[0], word[1], word[2])))
    cases.append((("g1",), BoolGateProp(OpKind.NOT, bits[0], bits[1:2])))
    cases.append((("gx",), BoolGateProp(OpKind.XOR, bits[0], bits[1:])))
    cases.append((("gao",), BoolGateProp(OpKind.AND, bits[0], bits[1:])))
    return cases, word + bits


def test_every_kernel_family_binds_constants_as_defaults():
    cases, variables = _kernel_cases()
    store = DomainStore(variables)
    kernels = build_kernels([prop for _, prop in cases], store)
    for (entry, prop), kernel in zip(cases, kernels):
        assert compile_mod.classify_propagator(prop) == entry
        assert kernel.__code__.co_name == "kernel", entry
        assert kernel.__closure__ is None, entry
        # A name missing from the default-argument list would compile
        # to a global lookup and fail only when its branch runs.
        unresolved = {
            ins.argval
            for ins in dis.get_instructions(kernel)
            if ins.opname == "LOAD_GLOBAL"
            and ins.argval not in kernel.__globals__
            and not hasattr(builtins, ins.argval)
        }
        assert not unresolved, (entry, unresolved)


# ----------------------------------------------------------------------
# Parity of the raw-propagation drill and the session sweep
# ----------------------------------------------------------------------
def test_prop_drill_parity_across_impls():
    inst = itc99_instance("b01_1", 10)
    records = {
        impl: run_prop_drill(inst, impl, repeats=2) for impl in ENGINE_IMPLS
    }
    base = records["reference"]
    assert base.status in ("S", "U")
    assert base.propagations > 0
    for impl, record in records.items():
        assert record.status == base.status, impl
        assert record.propagations == base.propagations, impl
        assert record.narrowings == base.narrowings, impl
        assert record.propagator_wakeups == base.propagator_wakeups, impl


def test_prop_engine_runs_with_suffix():
    inst = itc99_instance("b01_1", 10)
    record = run_engine(inst, "prop-ref", timeout=60)
    assert record.status in ("S", "U")
    assert record.engine == "prop-ref"
    assert record.props_per_sec > 0


def test_session_sweep_parity_across_impls():
    circuit = random_sequential_circuit(11, width=3, operations=10)
    prop = random_safety_property()
    sweeps = {}
    for impl in ENGINE_IMPLS:
        config = SolverConfig(predicate_learning=True, engine_impl=impl)
        sweeps[impl] = bmc_sweep_session(circuit, prop, 4, config)
    base = sweeps["reference"]
    for impl, results in sweeps.items():
        assert [r.status for r in results] == [r.status for r in base], impl
        assert [r.stats.decisions for r in results] == [
            r.stats.decisions for r in base
        ], impl
        assert [r.stats.conflicts for r in results] == [
            r.stats.conflicts for r in base
        ], impl
        assert [r.stats.propagations for r in results] == [
            r.stats.propagations for r in base
        ], impl


# ----------------------------------------------------------------------
# Batched activity seeding
# ----------------------------------------------------------------------
def test_transitive_fanout_counts_matches_per_net_walk():
    for seed in range(6):
        circuit = random_sequential_circuit(seed, width=3, operations=12)
        instance = make_bmc_instance(circuit, random_safety_property(), 3)
        unrolled = instance.circuit
        nets = [node.output for node in unrolled.nodes] + list(
            unrolled.inputs
        )
        batched = transitive_fanout_counts(unrolled, nets)
        for net in nets:
            assert batched[net.index] == transitive_fanout_count(net), (
                seed,
                net.name,
            )
