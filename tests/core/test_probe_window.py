"""Frame-local learning probes.

Every predicate-learning probe of an unrolled instance runs only the
propagators whose frame span meets [f - 1, f + 1], f being the probed
candidate's frame.  These tests check the masks against spans read
straight from the variable names, spy on the propagators a probe runs
(on both cores) through every way a probe level is left, and pin the
clauses of circuits without frame tags, which the window must not touch.
"""

import hashlib
import re

import pytest

from repro.bmc.session import BmcSession
from repro.constraints import (
    BoolLit,
    DomainStore,
    PropagationEngine,
    compile_circuit,
)
from repro.core import HDPLL_SP, HdpllSolver
from repro.core.decide import ActivityOrder
from repro.core.predlearn import (
    PROBE_WINDOW,
    ProbeWindows,
    frame_span,
    run_predicate_learning,
)
from repro.core.recursive import ProbeDeadline, RecursiveLearner
from repro.figures import figure2_circuit
from repro.itc99 import (
    CIRCUITS,
    circuit,
    instance,
    random_combinational_circuit,
)
from repro.rtl.predicates import extract_predicates
from repro.rtl.types import OpKind

_TAG = re.compile(r"@(\d+)")

ENGINE_IMPLS = ["reference", "specialized"]


def _span(names):
    frames = [int(tag) for name in names for tag in _TAG.findall(name)]
    return (min(frames), max(frames)) if frames else None


def _out_of_window(span, frame):
    return span is not None and (
        span[1] < frame - PROBE_WINDOW or span[0] > frame + PROBE_WINDOW
    )


def _expected_mask(propagators, frame):
    return bytes(
        _out_of_window(_span(v.name for v in p.variables), frame)
        for p in propagators
    )


# ----------------------------------------------------------------------
# Masks
# ----------------------------------------------------------------------


def test_frame_span_skips_untagged_names_only_when_asked():
    # Clause shifting needs every name tagged; a propagator's span
    # ignores its untagged variables.
    names = ["a@3", "b@5__carry@4", "const"]
    assert frame_span(names) is None
    assert frame_span(names, skip_untagged=True) == (3, 5)
    assert frame_span(["const"], skip_untagged=True) is None
    assert frame_span([]) is None


def _var_in_frame(system, frame):
    return next(
        var
        for var in system.variables
        if _span((var.name,)) == (frame, frame)
    )


def test_masks_match_the_spans_of_the_variable_names():
    system = compile_circuit(instance("b13_1", 8).circuit)
    windows = ProbeWindows(system.propagators)
    for frame in range(8):
        mask = windows.mask_for(_var_in_frame(system, frame))
        assert mask == _expected_mask(system.propagators, frame), frame
        assert 0 < sum(mask) < len(mask)


def test_untagged_names_get_no_window():
    system = compile_circuit(figure2_circuit())
    windows = ProbeWindows(system.propagators)
    assert all(windows.mask_for(var) is None for var in system.variables)


def test_windows_grown_with_the_session_equal_a_fresh_build():
    session = BmcSession(circuit("b13"), CIRCUITS["b13"][1]["1"], HDPLL_SP)
    session.extend_to(9)
    solver = session.session
    fresh = ProbeWindows(solver.system.propagators)
    for frame in range(9):
        var = _var_in_frame(solver.system, frame)
        assert solver._windows.mask_for(var) == fresh.mask_for(var)
        assert fresh.mask_for(var) == _expected_mask(
            solver.system.propagators, frame
        )


def test_suspend_rejects_a_mask_of_another_length():
    system = compile_circuit(figure2_circuit())
    store = DomainStore(system.variables)
    engine = PropagationEngine(store, system.propagators)
    with pytest.raises(Exception, match="suspend mask"):
        engine.suspend(bytes(len(system.propagators) + 1))


# ----------------------------------------------------------------------
# The window during probes, on both cores
# ----------------------------------------------------------------------


class _Spy:
    """Records every propagator run while a probe level is up, and
    checks it against the window of the candidate being probed."""

    def __init__(self, solver):
        self.store = solver.store
        self.engine = solver.engine
        self.spans = [
            _span(v.name for v in p.variables)
            for p in solver.system.propagators
        ]
        self.frame = None
        self.ran = 0
        self.outside = []
        engine = self.engine
        if engine._fns is not None:
            for position, fn in enumerate(engine._fns):
                engine._fns[position] = self._wrap(position, fn)
        else:
            for position, prop in enumerate(engine.propagators):
                prop.propagate = self._wrap(position, prop.propagate)

    def _wrap(self, position, fn):
        def run(store):
            if self.store.decision_level > 0 and self.frame is not None:
                self.ran += 1
                if _out_of_window(self.spans[position], self.frame):
                    self.outside.append((self.frame, position))
            return fn(store)

        return run

    def marks_clear(self):
        return not any(self.engine._queued)


def _solver(impl, case="b13_1", bound=8):
    inst = instance(case, bound)
    return HdpllSolver(
        inst.circuit, HDPLL_SP.with_overrides(engine_impl=impl)
    )


def _frame_of(var):
    return _span((var.name,))[0]


@pytest.mark.parametrize("impl", ENGINE_IMPLS)
def test_learning_runs_no_propagator_outside_the_window(impl, monkeypatch):
    """A whole learning pass: every probe stays in its window and leaves
    no mark behind (successful and impossible probes alike)."""
    solver = _solver(impl)
    spy = _Spy(solver)
    outcomes = {"ok": 0, "impossible": 0}
    probe = RecursiveLearner.probe

    def spied_probe(self, var, value, depth=1):
        spy.frame = _frame_of(var)
        try:
            result = probe(self, var, value, depth)
        finally:
            spy.frame = None
            assert spy.marks_clear()
            assert self.store.decision_level == 0
        outcomes["ok" if result is not None else "impossible"] += 1
        return result

    monkeypatch.setattr(RecursiveLearner, "probe", spied_probe)
    report = solver.learn()
    assert report.relations_learned > 0
    assert outcomes["ok"] > 0
    assert spy.ran > 0
    assert spy.outside == []


def _middle_candidates(solver, frame=4):
    return [
        net
        for net in extract_predicates(solver.circuit).learning_candidates
        if _span((net.name,)) == (frame, frame)
    ]


def _learner(solver, spy, var, cls=RecursiveLearner):
    learner = cls(
        solver.system,
        solver.store,
        solver.engine,
        windows=ProbeWindows(solver.system.propagators),
    )
    spy.frame = _frame_of(var)
    return learner


@pytest.mark.parametrize("impl", ENGINE_IMPLS)
def test_conflicting_assignment_leaves_no_mark(impl):
    solver = _solver(impl)
    spy = _Spy(solver)
    net = _middle_candidates(solver)[0]
    var = solver.system.var(net)
    learner = _learner(solver, spy, var)
    learner.probe(var, 1)  # sets the candidate's window
    assert sum(learner._mask) > 0
    assert learner._propagate_under([(var, 0), (var, 1)]) is None
    assert solver.store.decision_level == 0
    assert spy.marks_clear()
    assert spy.outside == []


@pytest.mark.parametrize("impl", ENGINE_IMPLS)
def test_propagation_conflict_leaves_no_mark(impl):
    solver = _solver(impl)
    spy = _Spy(solver)
    system = solver.system
    gate = next(
        net.driver
        for net in _middle_candidates(solver)
        if net.driver.kind is OpKind.AND
    )
    out = system.var(gate.output)
    operand = system.var(gate.operands[0])
    learner = _learner(solver, spy, out)
    learner.probe(out, 1)
    mark = len(solver.store.trail)
    ran = spy.ran
    # out = AND(operand, ...) = 1 with operand = 0: both assignments
    # succeed, the gate's propagator (in the window) refutes them.
    assert learner._propagate_under([(out, 1), (operand, 0)]) is None
    assert spy.ran > ran
    assert len(solver.store.trail) == mark
    assert solver.store.decision_level == 0
    assert spy.marks_clear()
    assert spy.outside == []


class _DeadlineInsideALevel(RecursiveLearner):
    """Raises the deadline at the first check made while a probe level
    is held (the depth-2 recursion into an implied gate's options)."""

    def _check_deadline(self):
        if self.store.decision_level > 0:
            raise ProbeDeadline


@pytest.mark.parametrize("impl", ENGINE_IMPLS)
def test_deadline_inside_a_probe_leaves_no_mark(impl):
    solver = _solver(impl)
    spy = _Spy(solver)
    system = solver.system
    raised = 0
    for net in _middle_candidates(solver):
        var = system.var(net)
        learner = _learner(solver, spy, var, cls=_DeadlineInsideALevel)
        for value in (0, 1):
            try:
                learner.probe(var, value, depth=2)
            except ProbeDeadline:
                raised += 1
            assert solver.store.decision_level == 0
            assert spy.marks_clear()
    assert raised > 0
    assert spy.outside == []


# ----------------------------------------------------------------------
# Circuits without frame tags learn as they did before the window
# ----------------------------------------------------------------------

#: circuit -> (clauses, sha256 prefix of their keys in learning order),
#: recorded before probes became frame-local.
FRAMELESS_KEYS = {
    "figure2": (4, "1ab2bf83c4f18ffd"),
    0: (3, "7b5149597e481d1d"),
    1: (11, "cb056091a70309cc"),
    2: (6, "4c209552f379943e"),
    3: (5, "19d64a3992ef1698"),
    4: (2, "252625b03e8081fb"),
    5: (9, "444779eb64771176"),
    6: (6, "7f97bd8ad45601b0"),
    7: (2, "a5d1472d79adba06"),
    8: (1, "97094c40b45bfae3"),
    9: (7, "921c2a540170fb4c"),
    10: (3, "72d4cda92a498d31"),
    11: (9, "6cd2c07697878a4c"),
    12: (1, "c096f2cfd102ae3b"),
    13: (10, "87e4fa1383a35ec2"),
    14: (6, "e0502e057ee7334c"),
    15: (0, "e3b0c44298fc1c14"),
    16: (3, "100588b2e6ee32c0"),
    17: (11, "5c676168bfd905a6"),
    18: (8, "7b24b593347e3979"),
    19: (14, "2dbc5a50263afce2"),
}


def _learned_keys(circuit):
    system = compile_circuit(circuit)
    store = DomainStore(system.variables)
    engine = PropagationEngine(store, system.propagators)
    engine.enqueue_all()
    assert engine.propagate() is None
    report = run_predicate_learning(
        system, store, engine, ActivityOrder(system, store)
    )
    keys = []
    for clause in report.clauses:
        parts = []
        for lit in sorted(clause.literals, key=lambda lit: lit.var.index):
            sign = "+" if lit.positive else "-"
            if isinstance(lit, BoolLit):
                parts.append(f"{sign}{lit.var.name}")
            else:
                interval = lit.interval
                parts.append(
                    f"{sign}{lit.var.name}[{interval.lo},{interval.hi}]"
                )
        keys.append(" ".join(parts))
    return keys


@pytest.mark.parametrize("name", sorted(FRAMELESS_KEYS, key=str))
def test_frameless_circuits_learn_the_pinned_clauses(name):
    if name == "figure2":
        target = figure2_circuit()
    else:
        target = random_combinational_circuit(name, width=4, operations=30)
    keys = _learned_keys(target)
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]
    assert (len(keys), digest) == FRAMELESS_KEYS[name]
