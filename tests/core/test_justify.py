"""Tests for the structural decision strategy (Section 4, Figures 3–4)."""

import random

import pytest

from repro.constraints import (
    Conflict,
    DomainStore,
    PropagationEngine,
    compile_circuit,
)
from repro.core import HDPLL_S, HdpllSolver, SolverConfig, solve_circuit
from repro.core.conflict import analyze_conflict
from repro.core.decide import ActivityOrder
from repro.core.justify import StructuralDecide
from repro.figures import figure3_circuits, figure4_circuit
from repro.intervals import Interval
from repro.rtl import CircuitBuilder


def make_structural(circuit):
    system = compile_circuit(circuit)
    store = DomainStore(system.variables)
    engine = PropagationEngine(store, system.propagators)
    order = ActivityOrder(system, store)
    decide = StructuralDecide(system, store, order)
    return system, store, engine, decide


class TestFigure3:
    def test_and_gate_justification(self):
        """Fig. 3(a): o = 0 on an AND is unjustified; a 0-input decision
        justifies it."""
        and_circuit, _ = figure3_circuits()
        system, store, engine, decide = make_structural(and_circuit)
        store.assume(system.var_by_name("o"), Interval.point(0))
        engine.enqueue_all()
        assert engine.propagate() is None
        outcome = decide.next_decision()
        assert isinstance(outcome, tuple)
        var, value = outcome
        assert var.name in ("i1", "i2")
        assert value == 0

    def test_and_gate_output_one_needs_no_decision(self):
        # o = 1 forces both inputs via BCP: frontier stays empty.
        and_circuit, _ = figure3_circuits()
        system, store, engine, decide = make_structural(and_circuit)
        store.assume(system.var_by_name("o"), Interval.point(1))
        engine.enqueue_all()
        assert engine.propagate() is None
        assert decide.next_decision() is None

    def test_mux_justification(self):
        """Fig. 3(b): a required output interval on a free-select mux is
        justified by a select decision toward an intersecting branch."""
        _, mux_circuit = figure3_circuits()
        system, store, engine, decide = make_structural(mux_circuit)
        store.assume(system.var_by_name("o"), Interval(3, 4))
        store.assume(system.var_by_name("i2"), Interval(10, 12))
        engine.enqueue_all()
        assert engine.propagate() is None
        outcome = decide.next_decision()
        assert outcome == (system.var_by_name("sel"), 0)

    def test_mux_unconstrained_output_is_justified(self):
        _, mux_circuit = figure3_circuits()
        system, store, engine, decide = make_structural(mux_circuit)
        engine.enqueue_all()
        assert engine.propagate() is None
        assert decide.next_decision() is None


class TestFigure4:
    def test_full_trace(self):
        """Figure 4(b): two structural decisions (b1=0 then b2=0), empty
        frontier, SAT certified by the arithmetic solver."""
        circuit = figure4_circuit()
        system, store, engine, decide = make_structural(circuit)
        store.assume(system.var_by_name("w2"), Interval(6, 7))
        store.assume(system.var_by_name("b7"), Interval.point(1))
        engine.enqueue_all()
        assert engine.propagate() is None
        # Imply Proposition: b4=0, b5=0, b6=1, w4=<5>.
        assert store.value(system.var_by_name("b4")) == 0
        assert store.value(system.var_by_name("b5")) == 0
        assert store.value(system.var_by_name("b6")) == 1
        assert store.domain(system.var_by_name("w4")) == Interval.point(5)

        # First structural decision: w4 ∩ w2 = ∅, so b1 = 0.
        first = decide.next_decision()
        assert first == (system.var_by_name("b1"), 0)
        store.decide_bool(*first)
        assert engine.propagate() is None
        assert store.domain(system.var_by_name("w3")) == Interval.point(5)

        # Second: <6> ∩ w3 = ∅, so b2 = 0.
        second = decide.next_decision()
        assert second == (system.var_by_name("b2"), 0)
        store.decide_bool(*second)
        assert engine.propagate() is None
        assert store.domain(system.var_by_name("w1")) == Interval.point(5)

        # J-frontier now empty.
        assert decide.next_decision() is None

    def test_solver_end_to_end_sat(self):
        circuit = figure4_circuit()
        result = solve_circuit(
            circuit, {"w2": Interval(6, 7), "b7": 1}, HDPLL_S
        )
        assert result.is_sat
        assert result.model["w4"] == 5
        assert result.model["w1"] == 5

    def test_structural_uses_exactly_two_justification_decisions(self):
        circuit = figure4_circuit()
        solver = HdpllSolver(circuit, HDPLL_S)
        result = solver.solve({"w2": Interval(6, 7), "b7": 1})
        assert result.is_sat
        assert result.stats.structural_decisions == 2
        assert result.stats.conflicts == 0

    def test_base_solver_agrees(self):
        circuit = figure4_circuit()
        result = solve_circuit(circuit, {"w2": Interval(6, 7), "b7": 1})
        assert result.is_sat


class TestSection43Conflict:
    def test_learned_clause_matches_paper(self):
        """Section 4.3: with b2 = 1 blocking w3 at <6>, justifying
        w4 = <5> is impossible; the learned clause is (¬b6 ∨ ¬b2) —
        equivalently, the implying literals of the blocking intervals."""
        circuit = figure4_circuit()
        system = compile_circuit(circuit)
        store = DomainStore(system.variables)
        engine = PropagationEngine(store, system.propagators)
        store.assume(system.var_by_name("w2"), Interval(6, 7))
        engine.enqueue_all()
        assert engine.propagate() is None

        # Level 1: the proposition side — b7 = 1 implies b6 = 1, w4 = <5>.
        store.decide_bool(system.var_by_name("b7"), 1)
        assert engine.propagate() is None
        # Level 2: the blocking decision b2 = 1 implies w3 = <6>.
        store.decide_bool(system.var_by_name("b2"), 1)
        conflict = engine.propagate()
        assert isinstance(conflict, Conflict)

        analysis = analyze_conflict(conflict, store)
        assert analysis is not None
        names = {
            (lit.var.name, lit.positive) for lit in analysis.clause.literals
        }
        # ¬b2 is the UIP; the lower-level cause resolves to ¬b6 (or the
        # proposition literal ¬b7 that implied it).
        assert ("b2", False) in names
        assert ("b6", False) in names or ("b7", False) in names

    def test_unsat_when_block_is_level_zero(self):
        # b2 pinned 1 at level 0 makes the whole query UNSAT.
        circuit = figure4_circuit()
        result = solve_circuit(
            circuit,
            {"w2": Interval(6, 7), "b7": 1, "b2": 1},
            HDPLL_S,
        )
        assert result.is_unsat


def random_circuit(seed):
    """A small random word/Boolean circuit and a seeded assumption set."""
    rng = random.Random(seed * 7919)
    b = CircuitBuilder(f"agree{seed}")
    words = [b.input("w0", 3), b.input("w1", 3)]
    bools = [b.input("b0", 1)]
    for _ in range(rng.randint(4, 10)):
        roll = rng.random()
        if roll < 0.3:
            words.append(
                getattr(b, rng.choice(["add", "sub"]))(
                    rng.choice(words), rng.choice(words)
                )
            )
        elif roll < 0.6:
            kind = rng.choice(["eq", "ne", "lt", "le", "gt", "ge"])
            bools.append(
                getattr(b, kind)(rng.choice(words), rng.choice(words))
            )
        elif roll < 0.8 and len(bools) >= 2:
            bools.append(b.and_(rng.choice(bools), rng.choice(bools)))
        else:
            words.append(
                b.mux(rng.choice(bools), rng.choice(words), rng.choice(words))
            )
    b.output("flag", bools[-1])
    b.output("word", words[-1])
    return b.build(), {"flag": 1, "word": rng.randint(0, 7)}


class TestStructuralAgreesWithBase:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_agreement(self, seed):
        circuit, assumptions = random_circuit(seed)
        base = solve_circuit(circuit, assumptions)
        structural = solve_circuit(circuit, assumptions, HDPLL_S)
        assert base.status == structural.status

    def test_frontier_survives_backtracking(self):
        # After a conflict and backjump, the frontier entry must be
        # rediscovered (persistent candidate set).
        b = CircuitBuilder()
        sel1 = b.input("sel1", 1)
        sel2 = b.input("sel2", 1)
        w = b.input("w", 3)
        m1 = b.mux(sel1, 6, w, name="m1")
        m2 = b.mux(sel2, m1, 3, name="m2")
        p = b.eq(m2, 5, name="p")
        b.output("p", p)
        circuit = b.build()
        result = solve_circuit(circuit, {"p": 1}, HDPLL_S)
        assert result.is_sat
        assert result.model["m2"] == 5
