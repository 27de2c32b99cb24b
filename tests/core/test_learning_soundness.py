"""Every clause predicate learning installs is implied by the full system.

Learning probes are frame-local: a probe runs only the propagators near
its candidate's time frame.  That may only weaken what a probe finds,
never make it wrong, so each learned clause must hold in every model of
the whole unrolled circuit.  The sweep checks that with an independent
oracle: for each clause, every assignment falsifying all of its literals
(a word literal's complement is one or two intervals, each checked on
its own) is asserted on the bit-blasted circuit, and CDCL must find it
unsatisfiable.  The instances are deeper than the probe window.

A clause over a compiler-auxiliary variable (an adder's carry, say)
names no circuit net, so it cannot be asserted; those are counted and
printed (``-s``) instead of checked.

``REPRO_TEST_ENGINES`` picks the propagation cores, as for the
differential sweep.
"""

import dataclasses
import itertools

import pytest

from repro.baselines.bitblast import assert_assumptions, bitblast
from repro.baselines.cnf import Cnf
from repro.baselines.dpll_sat import solve_cnf
from repro.bmc import BmcSession, make_bmc_instance
from repro.constraints import BoolLit
from repro.constraints.variable import VarOrigin
from repro.core import HDPLL_SP, HdpllSolver
from repro.intervals import Interval
from repro.itc99 import (
    instance,
    random_safety_property,
    random_sequential_circuit,
)
from tests.constraints.test_differential import _engine_impls

#: One-shot instances: (label, circuit factory).
_ONE_SHOT = [
    (
        f"rand{seed}({6 + seed % 3})",
        lambda seed=seed: make_bmc_instance(
            random_sequential_circuit(seed),
            random_safety_property(),
            6 + seed % 3,
        ).circuit,
    )
    for seed in range(8)
] + [
    (
        f"{case}({bound})",
        lambda case=case, bound=bound: instance(case, bound).circuit,
    )
    for case, bound in (
        ("b01_1", 8),
        ("b02_1", 10),
        ("b03_1", 6),
        ("b06_1", 8),
    )
]

#: Session instances: random seeds grown frame by frame to 7 frames,
#: among those whose free-initial unrolling learns predicate clauses at
#: all (seeds 0, 4, 6 and 7 learn none).
_SESSION_SEEDS = (1, 3, 5)


def _falsifying_values(literal):
    """The values of the literal's variable that falsify it."""
    if isinstance(literal, BoolLit):
        return [0 if literal.positive else 1]
    interval = literal.interval
    if not literal.positive:
        return [interval]
    top = (1 << literal.var.width) - 1
    values = []
    if interval.lo > 0:
        values.append(Interval(0, interval.lo - 1))
    if interval.hi < top:
        values.append(Interval(interval.hi + 1, top))
    return values


def _check_clauses(circuit, clauses):
    """Assert every falsifying assignment of every clause is UNSAT.

    Returns (clauses checked, clauses over auxiliary variables).
    """
    blasted = bitblast(circuit)
    checked = auxiliary = 0
    for clause in clauses:
        literals = clause.literals
        if any(lit.var.origin is VarOrigin.AUXILIARY for lit in literals):
            auxiliary += 1
            continue
        checked += 1
        for values in itertools.product(
            *(_falsifying_values(lit) for lit in literals)
        ):
            assumptions = {
                lit.var.name: value for lit, value in zip(literals, values)
            }
            copy = dataclasses.replace(
                blasted,
                cnf=Cnf(
                    blasted.cnf.num_vars,
                    [list(cl) for cl in blasted.cnf.clauses],
                ),
            )
            assert_assumptions(copy, assumptions)
            outcome = solve_cnf(copy.cnf).satisfiable
            assert outcome is False, (str(clause), assumptions, outcome)
    return checked, auxiliary


@pytest.mark.parametrize("impl", _engine_impls())
@pytest.mark.parametrize(
    "label,build", _ONE_SHOT, ids=[label for label, _ in _ONE_SHOT]
)
def test_one_shot_learned_clauses_hold(impl, label, build):
    circuit = build()
    solver = HdpllSolver(circuit, HDPLL_SP.with_overrides(engine_impl=impl))
    report = solver.learn()
    checked, auxiliary = _check_clauses(circuit, report.clauses)
    print(f"{label} [{impl}]: {checked} checked, {auxiliary} auxiliary")
    assert checked + auxiliary == len(report.clauses)


@pytest.mark.parametrize("impl", _engine_impls())
@pytest.mark.parametrize("seed", _SESSION_SEEDS)
def test_session_learned_clauses_hold(impl, seed):
    session = BmcSession(
        random_sequential_circuit(seed),
        random_safety_property(),
        HDPLL_SP.with_overrides(engine_impl=impl),
    )
    session.extend_to(7)
    clauses = [
        clause
        for clause in session.session.engine.clause_db.clauses
        if clause.learned and clause.origin.startswith("predicate")
    ]
    assert clauses
    checked, auxiliary = _check_clauses(session.unroller.unrolled, clauses)
    print(
        f"session rand{seed}(7) [{impl}]: "
        f"{checked} checked, {auxiliary} auxiliary"
    )
