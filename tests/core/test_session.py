"""Regression tests for the query semantics of a persistent solver.

Both groups pin bugs that only bite once a session is *shared*: the
serve daemon keeps one warm session per netlist signature and routes
many requests (each with its own deadline) through it, so a per-call
timeout that leaks into the session config, or session counters that
drift on the root-conflict path, silently corrupt every later request.
"""

from __future__ import annotations

import json

from repro.bmc.property import SafetyProperty
from repro.bmc.session import BmcSession
from repro.constraints.clause import BoolLit, Clause, WordLit
from repro.core import HDPLL_SP, HdpllSolver, SolverConfig, Status
from repro.intervals import Interval
from repro.itc99 import instance
from repro.obs import Observation, TraceEmitter
from repro.rtl.builder import CircuitBuilder


def _circuit():
    b = CircuitBuilder("session-fixes")
    a = b.input("a")
    c = b.input("c")
    w = b.input("w", 4)
    flag = b.or_(a, c, name="flag")
    small = b.lt(w, 9, name="small")
    b.output("out", b.and_(flag, small))
    return b.build()


# ----------------------------------------------------------------------
# Per-call timeout must not stick to the session
# ----------------------------------------------------------------------


def test_per_call_timeout_is_not_sticky():
    """A short-deadline query must not shorten the session default.

    The first solve carries an already-expired deadline and comes back
    UNKNOWN; the second passes ``timeout=None`` and must get the
    session's configured budget (unbounded here), not the leftover
    nanosecond one.
    """
    session = HdpllSolver(
        _circuit(), SolverConfig(timeout=None), persistent=True
    )

    first = session.solve({"a": 1}, timeout=1e-9)
    assert first.status is Status.UNKNOWN
    assert "timeout" in (first.note or "")
    # The override was query-scoped: the live config is untouched.
    assert session.config.timeout is None

    second = session.solve({"a": 1}, timeout=None)
    assert second.status is Status.SAT
    assert second.stats.session_solves == 2


def test_explicit_timeout_still_applies_per_call():
    """The override still reaches the solver for the call that asks."""
    session = HdpllSolver(
        _circuit(), SolverConfig(timeout=None), persistent=True
    )
    result = session.solve({}, timeout=1e-9)
    assert result.status is Status.UNKNOWN
    # And a later generous override works after the tiny one.
    result = session.solve({}, timeout=60.0)
    assert result.status is Status.SAT
    assert session.config.timeout is None


# ----------------------------------------------------------------------
# One learning entry: counters, the learn_done event, stamped stats
# ----------------------------------------------------------------------


def test_session_learning_pass_is_counted_and_traced_once():
    inst = instance("b13_1", 6)
    tracer = TraceEmitter.in_memory()
    session = HdpllSolver(
        inst.circuit,
        HDPLL_SP,
        Observation(tracer=tracer),
        persistent=True,
    )
    report = session.learn()
    assert report.relations_learned > 0
    assert session.relations_learned == report.relations_learned
    assert session.learn_seconds > 0.0
    events = [json.loads(line)["ev"] for line in tracer.text().splitlines()]
    assert events.count("learn_done") == 1
    result = session.solve(inst.assumptions)
    assert result.stats.session_solves == 1
    assert result.stats.learned_relations == report.relations_learned
    assert result.stats.learn_time == session.learn_seconds


def test_learning_is_a_no_op_when_switched_off():
    session = HdpllSolver(_circuit(), SolverConfig(), persistent=True)
    report = session.learn()
    assert report.relations_learned == report.probes == 0
    assert session.learn_seconds == 0.0


# ----------------------------------------------------------------------
# install_shifted root-conflict path keeps its accounting
# ----------------------------------------------------------------------


def _bmc_session(config: SolverConfig):
    """A one-frame BMC session over the circuit above, and its frame-0
    variables by base name."""
    bmc = BmcSession(_circuit(), SafetyProperty("out", "out"), config)
    names = {
        name[: -len("@0")]: var
        for name, var in bmc.session.var_by_name.items()
        if name.endswith("@0")
    }
    return bmc, names


def _learned(*literals) -> Clause:
    # High LBD keeps multi-literal clauses in the evictable local tier
    # (binary/low-LBD clauses would be core tier, immune to the cap).
    return Clause(
        literals=tuple(literals), learned=True, origin="conflict", lbd=8
    )


def test_install_shifted_root_conflict_keeps_accounting():
    """A root conflict mid-batch must still fold the installed count
    into ``clauses_shifted`` and run the clause-DB cap.

    The conflicting clause is itself in the database (``add_clause``
    appends before detecting the conflict), so it counts too.
    """
    bmc, names = _bmc_session(SolverConfig(clause_db_max_learned=1))
    # Falsify ``a`` at level 0 so the unit clause (a) below conflicts.
    bmc.session.store.assume(names["a"], Interval.point(0))

    batch = [
        # Install cleanly: literals unassigned, disposable origin.
        _learned(
            BoolLit(names["c"], positive=True),
            WordLit(names["w"], Interval.make(0, 7), positive=True),
            WordLit(names["w"], Interval.make(0, 11), positive=True),
        ),
        _learned(
            BoolLit(names["c"], positive=False),
            WordLit(names["w"], Interval.make(0, 3), positive=True),
            WordLit(names["w"], Interval.make(0, 5), positive=True),
        ),
        # Root conflict: the only literal is false under the trail.
        _learned(BoolLit(names["a"], positive=True)),
        # Never reached — the batch stops at the refutation.
        _learned(
            BoolLit(names["c"], positive=False),
            WordLit(names["w"], Interval.make(8, 15), positive=True),
            WordLit(names["w"], Interval.make(6, 15), positive=True),
        ),
    ]
    installed = bmc.install_shifted(batch, lambda name: name)

    assert installed == 3
    assert bmc.clauses_shifted == 3
    assert bmc.session.root_conflict
    # The cap ran on this exit path: two disposable multi-literal
    # clauses against a cap of one forces an eviction (the conflicting
    # unit clause is never an eviction candidate).
    assert bmc.session.engine.clause_db.clauses_evicted >= 1

    # Later queries are unconditionally UNSAT and carry the counters.
    result = bmc.solve_bound(1)
    assert result.status is Status.UNSAT
    assert result.stats.clauses_shifted == 3


def test_install_shifted_clean_batch_counts_everything():
    """Baseline: a conflict-free batch counts every installed clause."""
    bmc, names = _bmc_session(SolverConfig())
    batch = [
        _learned(
            BoolLit(names["a"], positive=True),
            BoolLit(names["c"], positive=True),
        ),
        _learned(
            BoolLit(names["a"], positive=False),
            WordLit(names["w"], Interval.make(0, 7), positive=True),
        ),
    ]
    installed = bmc.install_shifted(batch, lambda name: name)
    assert installed == 2
    assert bmc.clauses_shifted == 2
    assert not bmc.session.root_conflict
    # Installing the same batch again is a dedup no-op.
    assert bmc.install_shifted(batch, lambda name: name) == 0
    assert bmc.clauses_shifted == 2
