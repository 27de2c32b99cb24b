"""Direct unit tests for hybrid conflict analysis (1-UIP)."""

import pytest

from repro.constraints import (
    ASSUMPTION,
    BoolLit,
    Conflict,
    DomainStore,
    Variable,
    WordLit,
)
from repro.core.conflict import analyze_conflict
from repro.intervals import Interval


def make_store(*widths):
    variables = [
        Variable(index=i, name=f"v{i}", width=w) for i, w in enumerate(widths)
    ]
    return variables, DomainStore(variables)


def imply_bool(store, var, value, antecedent_events):
    """Record a propagated Boolean assignment with explicit antecedents."""
    from repro.constraints.store import Event

    event = Event(
        id=len(store.trail),
        var=var,
        old=store.domain(var),
        new=Interval.point(value),
        level=store.decision_level,
        reason="test-prop",
        antecedents=tuple(antecedent_events),
    )
    store.trail.append(event)
    store.domains[var.index] = event.new
    store.latest_event[var.index] = event.id
    return event.id


class TestAnalyze:
    def test_level0_only_conflict_is_unsat(self):
        variables, store = make_store(1, 1)
        store.assign_bool(variables[0], 1, ASSUMPTION)
        store.assign_bool(variables[1], 0, ASSUMPTION)
        conflict = Conflict(source="t", antecedents=(0, 1))
        assert analyze_conflict(conflict, store) is None

    def test_single_antecedent_is_its_own_uip(self):
        # A conflict implied by one assignment alone: the first UIP is
        # that assignment, and its negation becomes a unit fact.
        variables, store = make_store(1, 1, 1)
        store.decide_bool(variables[0], 1)                   # event 0, L1
        imply_bool(store, variables[1], 1, [0])              # event 1
        imply_bool(store, variables[2], 0, [1])              # event 2
        conflict = Conflict(source="t", antecedents=(2,))
        analysis = analyze_conflict(conflict, store)
        assert analysis is not None
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v2", True)}
        assert analysis.backtrack_level == 0

    def test_simple_uip_is_decision(self):
        # Two independent implication paths from the decision meet in
        # the conflict: resolution walks back to the decision.
        variables, store = make_store(1, 1, 1)
        store.decide_bool(variables[0], 1)                   # event 0, L1
        imply_bool(store, variables[1], 1, [0])              # event 1
        imply_bool(store, variables[2], 0, [0])              # event 2
        conflict = Conflict(source="t", antecedents=(1, 2))
        analysis = analyze_conflict(conflict, store)
        assert analysis is not None
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v0", False)}  # ~decision
        assert analysis.backtrack_level == 0

    def test_uip_below_decision(self):
        # decision -> x -> (two paths) -> conflict: x is the first UIP.
        variables, store = make_store(1, 1, 1, 1, 1)
        store.decide_bool(variables[0], 1)                   # 0
        imply_bool(store, variables[1], 1, [0])              # 1: x
        imply_bool(store, variables[2], 1, [1])              # 2: path a
        imply_bool(store, variables[3], 1, [1])              # 3: path b
        conflict = Conflict(source="t", antecedents=(2, 3))
        analysis = analyze_conflict(conflict, store)
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v1", False)}

    def test_lower_level_literals_kept(self):
        variables, store = make_store(1, 1, 1)
        store.decide_bool(variables[0], 1)                   # 0 @ L1
        store.decide_bool(variables[1], 1)                   # 1 @ L2
        imply_bool(store, variables[2], 0, [0, 1])           # 2 @ L2
        conflict = Conflict(source="t", antecedents=(1, 2))
        analysis = analyze_conflict(conflict, store)
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v0", False), ("v1", False)}
        assert analysis.backtrack_level == 1

    def test_word_event_expansion(self):
        # A word narrowing at the conflict level resolves into its
        # Boolean cause rather than appearing in the clause.
        variables, store = make_store(1, 8)
        store.decide_bool(variables[0], 1)                   # 0 @ L1
        store.narrow(
            variables[1], Interval(0, 3), "prop", involved=variables
        )                                                    # 1 @ L1
        conflict = Conflict(source="t", antecedents=(1,))
        analysis = analyze_conflict(conflict, store)
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v0", False)}

    def test_hybrid_keeps_lower_level_word_literal(self):
        variables, store = make_store(1, 8, 1)
        store.decide_bool(variables[0], 1)                   # 0 @ L1
        store.narrow(
            variables[1], Interval(0, 3), "prop", involved=[variables[0]]
        )                                                    # 1 @ L1
        store.decide_bool(variables[2], 1)                   # 2 @ L2
        conflict = Conflict(source="t", antecedents=(1, 2))
        analysis = analyze_conflict(
            conflict, store, hybrid_word_literals=True
        )
        kinds = {type(l).__name__ for l in analysis.clause.literals}
        assert kinds == {"BoolLit", "WordLit"}
        word = [
            l for l in analysis.clause.literals if isinstance(l, WordLit)
        ][0]
        assert word.positive is False
        assert word.interval == Interval(0, 3)
        # Backtrack lands at the word literal's level, where it is
        # already false and the asserting literal flips.
        assert analysis.backtrack_level == 1

    def test_boolean_mode_expands_word_literal(self):
        variables, store = make_store(1, 8, 1)
        store.decide_bool(variables[0], 1)
        store.narrow(
            variables[1], Interval(0, 3), "prop", involved=[variables[0]]
        )
        store.decide_bool(variables[2], 1)
        conflict = Conflict(source="t", antecedents=(1, 2))
        analysis = analyze_conflict(
            conflict, store, hybrid_word_literals=False
        )
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v0", False), ("v2", False)}

    def test_multiple_decisions_same_level(self):
        # The lazy-SMT pattern: several decisions share one level; all
        # relevant ones must appear in the clause.
        variables, store = make_store(1, 1, 1)
        store.push_level()
        from repro.constraints import DECISION

        store.assign_bool(variables[0], 1, DECISION)         # 0 @ L1
        store.assign_bool(variables[1], 1, DECISION)         # 1 @ L1
        imply_bool(store, variables[2], 0, [0, 1])           # 2 @ L1
        conflict = Conflict(source="t", antecedents=(0, 1, 2))
        analysis = analyze_conflict(conflict, store)
        literals = {(l.var.name, l.positive) for l in analysis.clause.literals}
        assert literals == {("v0", False), ("v1", False)}
