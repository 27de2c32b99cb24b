"""Pinned search counters of the persistent-solver (session) path.

``tests/core/test_frontier.py::PINNED`` holds one-shot solves to their
recorded search; these pins do the same for every surface that answers
queries on one persistent solver: the bound sweep of the session ratio
gate, the base and step queries of ``prove_by_induction``, and the
deterministic cube portfolio.  Each query's status, decisions,
conflicts and learned clauses must match the recorded values on both
propagation cores (the kernels keep the reference core's trail, so its
counters too).  A change that moves one of these perturbs the search.
"""

from __future__ import annotations

import os
from typing import List, Tuple

import pytest

from repro.bmc import induction
from repro.bmc.session import BmcSession, bmc_sweep_session
from repro.core import HDPLL_SP, SolverConfig
from repro.itc99 import instance
from repro.portfolio import solve_portfolio

Row = Tuple[str, int, int, int]


def _engine_impls() -> List[str]:
    """``REPRO_TEST_ENGINES`` (comma-separated) restricts the cores;
    the default is both, the reference core first."""
    requested = os.environ.get("REPRO_TEST_ENGINES")
    if requested:
        return [name.strip() for name in requested.split(",") if name.strip()]
    return ["reference", "specialized"]


def _row(result) -> Row:
    stats = result.stats
    return (
        result.status.value,
        stats.decisions,
        stats.conflicts,
        stats.learned_clauses,
    )


def sweep_rows(case: str, bound: int, impl: str) -> List[Row]:
    """One row per bound of the session gate's sweep over 1..bound."""
    inst = instance(case, bound)
    config = SolverConfig(predicate_learning=True, engine_impl=impl)
    results = bmc_sweep_session(inst.sequential, inst.prop, bound, config)
    return [_row(result) for result in results]


def prove_rows(case: str, impl: str, monkeypatch) -> List[tuple]:
    """``(kind, k) + row`` for every query ``prove_by_induction`` asks."""
    rows: List[tuple] = []

    class RecordingSession(BmcSession):
        def solve_bound(self, bound, timeout=None):
            result = super().solve_bound(bound, timeout=timeout)
            rows.append(("base", bound) + _row(result))
            return result

        def solve_step(self, k, timeout=None):
            result = super().solve_step(k, timeout=timeout)
            rows.append(("step", k) + _row(result))
            return result

    monkeypatch.setattr(induction, "BmcSession", RecordingSession)
    inst = instance(case, 1)
    induction.prove_by_induction(
        inst.sequential,
        inst.prop,
        max_k=15,
        config=HDPLL_SP.with_overrides(engine_impl=impl),
    )
    return rows


def portfolio_row(case: str, bound: int, impl: str) -> Row:
    inst = instance(case, bound)
    result = solve_portfolio(
        inst.circuit,
        inst.assumptions,
        jobs=2,
        deterministic=True,
        base_config=SolverConfig(engine_impl=impl),
    )
    return _row(result)


#: (case, bound) -> one (status, decisions, conflicts, learned clauses)
#: row per bound of ``bmc_sweep_session`` with predicate learning.
SWEEP_PINS = {
    ("b01_1", 15): [
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("sat", 18, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
    ],
    ("b02_1", 15): [
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
    ],
    ("b06_1", 10): [
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 2, 3, 3),
        ("unsat", 1, 2, 2),
        ("unsat", 1, 2, 2),
        ("unsat", 6, 3, 3),
        ("unsat", 15, 7, 7),
        ("unsat", 29, 10, 10),
    ],
    ("b13_1", 15): [
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 0, 0, 0),
        ("unsat", 1, 2, 2),
        ("unsat", 1, 2, 2),
        ("unsat", 1, 2, 2),
        ("unsat", 1, 2, 2),
    ],
}

#: case -> one (kind, k, status, decisions, conflicts, learned clauses)
#: row per query of ``prove_by_induction`` (max_k 15, HDPLL+S+P).
PROVE_PINS = {
    "b03_40": [
        ("base", 1, "unsat", 0, 0, 0),
        ("step", 1, "sat", 2, 0, 0),
        ("base", 2, "unsat", 0, 0, 0),
        ("step", 2, "sat", 2, 1, 1),
        ("base", 3, "unsat", 0, 0, 0),
        ("step", 3, "sat", 3, 2, 2),
        ("base", 4, "unsat", 0, 0, 0),
        ("step", 4, "sat", 4, 3, 3),
        ("base", 5, "unsat", 0, 0, 0),
        ("step", 5, "sat", 5, 4, 4),
        ("base", 6, "unsat", 0, 0, 0),
        ("step", 6, "sat", 6, 5, 5),
        ("base", 7, "unsat", 0, 0, 0),
        ("step", 7, "sat", 7, 5, 5),
        ("base", 8, "sat", 6, 5, 5),
    ],
    "b06_40": [
        ("base", 1, "unsat", 0, 0, 0),
        ("step", 1, "sat", 0, 0, 0),
        ("base", 2, "unsat", 0, 0, 0),
        ("step", 2, "sat", 2, 1, 1),
        ("base", 3, "unsat", 0, 0, 0),
        ("step", 3, "sat", 4, 1, 1),
        ("base", 4, "unsat", 0, 0, 0),
        ("step", 4, "sat", 6, 1, 1),
        ("base", 5, "unsat", 0, 0, 0),
        ("step", 5, "sat", 8, 1, 1),
        ("base", 6, "unsat", 4, 5, 5),
        ("step", 6, "sat", 10, 1, 1),
        ("base", 7, "unsat", 14, 12, 12),
        ("step", 7, "sat", 12, 1, 1),
        ("base", 8, "unsat", 19, 17, 17),
        ("step", 8, "sat", 14, 1, 1),
        ("base", 9, "unsat", 28, 23, 23),
        ("step", 9, "sat", 16, 1, 1),
        ("base", 10, "unsat", 30, 25, 25),
        ("step", 10, "sat", 18, 1, 1),
        ("base", 11, "sat", 19, 10, 10),
    ],
    "b13_40": [
        ("base", 1, "unsat", 0, 0, 0),
        ("step", 1, "sat", 0, 0, 0),
        ("base", 2, "unsat", 0, 0, 0),
        ("step", 2, "sat", 0, 0, 0),
        ("base", 3, "unsat", 0, 0, 0),
        ("step", 3, "sat", 0, 0, 0),
        ("base", 4, "unsat", 0, 0, 0),
        ("step", 4, "sat", 0, 0, 0),
        ("base", 5, "unsat", 0, 0, 0),
        ("step", 5, "sat", 0, 0, 0),
        ("base", 6, "unsat", 0, 0, 0),
        ("step", 6, "sat", 0, 0, 0),
        ("base", 7, "unsat", 0, 0, 0),
        ("step", 7, "sat", 0, 0, 0),
        ("base", 8, "unsat", 0, 0, 0),
        ("step", 8, "sat", 0, 0, 0),
        ("base", 9, "unsat", 0, 0, 0),
        ("step", 9, "sat", 0, 0, 0),
        ("base", 10, "unsat", 0, 0, 0),
        ("step", 10, "sat", 0, 0, 0),
        ("base", 11, "unsat", 0, 0, 0),
        ("step", 11, "sat", 0, 0, 0),
        ("base", 12, "unsat", 0, 0, 0),
        ("step", 12, "sat", 0, 0, 0),
        ("base", 13, "sat", 0, 0, 0),
    ],
}

#: (case, bound) -> the deterministic two-worker portfolio's row.
PORTFOLIO_PINS = {
    ("b02_1", 16): ("unsat", 115, 119, 119),
}


def _ids(keys):
    return [f"{case}-{bound}" for case, bound in keys]


@pytest.mark.parametrize("impl", _engine_impls())
@pytest.mark.parametrize(
    "key", sorted(SWEEP_PINS), ids=_ids(sorted(SWEEP_PINS))
)
def test_session_sweep_search_is_pinned(impl, key):
    assert sweep_rows(*key, impl) == SWEEP_PINS[key]


@pytest.mark.parametrize("impl", _engine_impls())
@pytest.mark.parametrize("case", sorted(PROVE_PINS))
def test_induction_queries_search_is_pinned(impl, case, monkeypatch):
    assert prove_rows(case, impl, monkeypatch) == PROVE_PINS[case]


@pytest.mark.parametrize("impl", _engine_impls())
@pytest.mark.parametrize(
    "key", sorted(PORTFOLIO_PINS), ids=_ids(sorted(PORTFOLIO_PINS))
)
def test_deterministic_portfolio_search_is_pinned(impl, key):
    assert portfolio_row(*key, impl) == PORTFOLIO_PINS[key]
