"""Microbenchmarks for the propagation hot path.

Each benchmark isolates one layer the solver spends its time in —
interval interning, flat-store narrowing + backtracking, watched-literal
clause propagation, and the full engine fixpoint — so a perf regression
can be localised without profiling a whole BMC run.  Whole queries are
timed by ``benchmarks/e2e`` and the fast-vs-slow engine ratios by
``test_ratio_gates.py`` (see docs/performance.md); these tests track
the relative cost of the layers.
"""

import random

import pytest

from repro.constraints import (
    Clause,
    ClauseDatabase,
    DomainStore,
    PropagationEngine,
    Variable,
    compile_circuit,
    make_bool_lit,
)
from repro.constraints.variable import VarOrigin
from repro.intervals import Interval
from repro.itc99 import instance


def _word_vars(count, width=8):
    return [
        Variable(index=i, name=f"v{i}", width=width, origin=VarOrigin.NET)
        for i in range(count)
    ]


def _bool_vars(count):
    return [
        Variable(index=i, name=f"b{i}", width=1, origin=VarOrigin.NET)
        for i in range(count)
    ]


def test_interval_interning(benchmark):
    """Interval.make on a small recurring working set (cache hits)."""

    def work():
        total = 0
        for _ in range(200):
            for lo in range(16):
                total += Interval.make(lo, lo + 3).hi
        return total

    benchmark(work)


def test_store_narrow_backtrack(benchmark):
    """Layered narrowing and O(1)-per-event backtracking."""
    variables = _word_vars(64)

    def work():
        store = DomainStore(variables)
        for round_index in range(8):
            store.push_level()
            for var in variables:
                store.narrow_bounds(
                    var, round_index + 1, 250 - round_index, "decision"
                )
        store.backtrack_to(0)
        return len(store.trail)

    benchmark(work)


def test_clause_watch_propagation(benchmark):
    """2WL visits across a randomly connected Boolean clause set."""
    variables = _bool_vars(48)
    rng = random.Random(7)
    clause_specs = [
        [(rng.randrange(len(variables)), rng.randint(0, 1)) for _ in range(3)]
        for _ in range(400)
    ]

    def work():
        store = DomainStore(variables)
        db = ClauseDatabase(store)
        for spec in clause_specs:
            db.add_clause(
                Clause(
                    tuple(
                        make_bool_lit(variables[i], value)
                        for i, value in spec
                    )
                )
            )
        for var in variables[:24]:
            if store.is_assigned(var):
                continue
            store.push_level()
            if store.assign_bool(var, 1, "decision") is None:
                break
            while True:
                mark = len(store.trail)
                conflict = None
                for event in store.trail[mark - 1 :]:
                    conflict = db.on_var_event(event.var)
                    if conflict is not None:
                        break
                if conflict is not None or len(store.trail) == mark:
                    break
        return db.clause_visits

    benchmark(work)


def test_engine_fixpoint(benchmark):
    """Full Ddeduce fixpoint on a compiled ITC99 BMC instance."""
    inst = instance("b04_1", 8)
    system = compile_circuit(inst.circuit)

    def work():
        store = DomainStore(system.variables)
        engine = PropagationEngine(store, system.propagators)
        engine.enqueue_all()
        conflict = engine.propagate()
        assert conflict is None
        return engine.propagation_count

    benchmark(work)
