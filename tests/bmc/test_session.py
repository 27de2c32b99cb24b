"""Incremental-session tests: unroller parity, probe-cache keying,
clause eviction, and the randomized differential sweep (session vs
one-shot BMC).

The differential oracle is the load-bearing check: a persistent
:class:`BmcSession` sweeping bounds 1..k must report exactly the same
statuses as a fresh ``solve_circuit`` per bound, and every SAT model
must replay on the sequential simulator with the monitor low at the
violating frame.  Clause shifting, probe-cache reuse and assumption
retraction are all behaviourally invisible or they are bugs.
"""

from __future__ import annotations

import os
from typing import List, Sequence

from repro.bmc import (
    BmcSession,
    IncrementalUnroller,
    cone_signature,
    input_trace_from_model,
    make_bmc_instance,
    unroll,
)
from repro.constraints import ClauseDatabase, DomainStore, Variable
from repro.constraints.clause import Clause, make_bool_lit
from repro.core import SolverConfig, Status, solve_circuit
from repro.harness.parallel import Task, run_tasks
from repro.intervals import Interval
from repro.itc99 import circuit as itc99_circuit
from repro.itc99.generator import (
    random_safety_property,
    random_sequential_circuit,
)
from repro.rtl.simulate import SequentialSimulator

_NUM_SEEDS = 40
_CHUNK = 10
_MAX_BOUND = 4

#: Generator shape for the differential sweep.  Kept small: the Omega
#: leaf certification is exponential in the worst case and the solver
#: timeout cannot interrupt it, so wide random cones can hang a seed
#: (seed 16 at the default width=4/operations=10 does exactly that).
_SWEEP_SHAPE = dict(width=3, num_registers=2, operations=8)

#: Seeds whose unrolling still triggers the exponential Omega blowup at
#: this shape (both engines hang identically, so nothing differential
#: is lost by skipping them).
_PATHOLOGICAL_SEEDS = frozenset({31})


def _test_jobs() -> int:
    return int(os.environ.get("REPRO_TEST_JOBS", "1"))


# ----------------------------------------------------------------------
# Incremental unroller parity
# ----------------------------------------------------------------------


def test_incremental_unroller_matches_batch():
    """Frame-by-frame extension builds the same circuit as batch unroll."""
    circuit = random_sequential_circuit(3)
    batch = unroll(circuit, 5)
    unroller = IncrementalUnroller(circuit, name=batch.name)
    for _ in range(5):
        unroller.extend(1)
    incremental = unroller.unrolled

    def shape(c):
        return sorted(
            (node.output.name, node.kind.value, node.output.width)
            for node in c.nodes
        )

    assert shape(incremental) == shape(batch)
    assert sorted(n.name for n in incremental.inputs) == sorted(
        n.name for n in batch.inputs
    )
    assert set(batch.outputs) <= set(incremental.outputs)


def test_grown_topological_order_matches_a_fresh_dfs():
    """Each frame extension grows the unrolling's memoized order by the
    appended nodes; after each of 16 extensions it equals the order a
    fresh DFS computes."""
    unroller = IncrementalUnroller(itc99_circuit("b13"), free_initial=True)
    unrolled = unroller.unrolled
    for _ in range(16):
        unroller.extend(1)
        grown = [node.index for node in unrolled.topological_nodes()]
        memo = unrolled._topo_cache
        unrolled._topo_cache = None
        fresh = [node.index for node in unrolled.topological_nodes()]
        unrolled._topo_cache = memo
        assert grown == fresh


def test_extend_returns_only_new_nodes():
    circuit = random_sequential_circuit(7)
    unroller = IncrementalUnroller(circuit, free_initial=True)
    first = unroller.extend(1)
    second = unroller.extend(1)
    assert unroller.frames == 2
    assert first and second
    assert not {n.output.name for n in first} & {
        n.output.name for n in second
    }


# ----------------------------------------------------------------------
# Probe-cache cone signatures
# ----------------------------------------------------------------------


def test_cone_signature_is_frame_invariant():
    """Frames >= 1 of a free-initial unrolling share cone signatures,
    so a predicate probed at one frame is a cache hit at the next."""
    circuit = random_sequential_circuit(11)
    unroller = IncrementalUnroller(circuit, free_initial=True)
    unroller.extend(3)
    unrolled = unroller.unrolled
    sig1 = cone_signature(unrolled.net("ok@1"), 1, {})
    sig2 = cone_signature(unrolled.net("ok@2"), 2, {})
    assert sig1 == sig2
    # Frame 0 reads the free-initial register inputs directly, so its
    # cone differs from the steady-state frames.
    sig0 = cone_signature(unrolled.net("ok@0"), 0, {})
    assert sig0 != sig1


# ----------------------------------------------------------------------
# Learned-clause eviction cap
# ----------------------------------------------------------------------


def _bool_vars(count: int) -> List[Variable]:
    return [
        Variable(index=i, name=f"b{i}", width=1) for i in range(count)
    ]


def test_enforce_cap_evicts_low_activity_clauses():
    variables = _bool_vars(60)
    store = DomainStore(variables)
    db = ClauseDatabase(store)
    count = 0
    for i in range(0, 57, 3):
        # Ternary, high-LBD clauses: local tier, eviction-eligible.
        clause = Clause(
            literals=(
                make_bool_lit(variables[i], 1),
                make_bool_lit(variables[i + 1], 1),
                make_bool_lit(variables[i + 2], 1),
            ),
            learned=True,
            origin="conflict",
            activity=float(i),
            lbd=8,
        )
        assert db.add_clause(clause) is None
        count += 1
    before = len(db.clauses)
    removed = db.enforce_cap(8)
    assert removed > 0
    assert db.clauses_evicted == removed
    assert len(db.clauses) == before - removed
    # Same tier and LBD throughout, so the survivors are the most
    # active clauses.
    disposable = [c for c in db.clauses if c.learned]
    assert min(c.activity for c in disposable) >= float(
        3 * removed
    ) - 1e-9


def test_enforce_cap_never_evicts_reason_clauses():
    variables = _bool_vars(12)
    store = DomainStore(variables)
    db = ClauseDatabase(store)
    # Falsify b0 and b1 so the next (ternary, local-tier) clause
    # immediately propagates b2 and becomes its reason.
    store.assume(variables[0], Interval.point(0))
    store.assume(variables[1], Interval.point(0))
    reason = Clause(
        literals=(
            make_bool_lit(variables[0], 1),
            make_bool_lit(variables[1], 1),
            make_bool_lit(variables[2], 1),
        ),
        learned=True,
        origin="conflict",
        activity=0.0,  # least active: first eviction candidate
        lbd=8,
    )
    assert db.add_clause(reason) is None
    assert store.lo[2] == 1  # clause propagated, so it is a reason
    fillers = [
        Clause(
            literals=(
                make_bool_lit(variables[3 + (i % 2)], 1),
                make_bool_lit(variables[5 + (i % 2)], i % 2),
                make_bool_lit(variables[7 + (i % 2)], 1),
            ),
            learned=True,
            origin="conflict",
            activity=1.0 + i,
            lbd=8,
        )
        for i in range(6)
    ]
    for clause in fillers:
        db.add_clause(clause)
    db.enforce_cap(2)
    assert reason in db.clauses


def test_problem_clauses_are_never_disposable():
    variables = _bool_vars(4)
    store = DomainStore(variables)
    db = ClauseDatabase(store)
    problem = Clause(
        literals=(
            make_bool_lit(variables[0], 1),
            make_bool_lit(variables[1], 1),
        ),
    )
    predicate = Clause(
        literals=(
            make_bool_lit(variables[2], 1),
            make_bool_lit(variables[3], 1),
        ),
        learned=True,
        origin="predicate-learning",
    )
    db.add_clause(problem)
    db.add_clause(predicate)
    assert db.enforce_cap(1) == 0
    assert db.clauses_evicted == 0


# ----------------------------------------------------------------------
# Randomized differential sweep: session vs one-shot
# ----------------------------------------------------------------------


def _check_extension_fixpoint(
    session: BmcSession, seed: int, failures: List[str]
) -> None:
    """After every frame extension, scheduling every propagator again
    must add no level-0 event and no conflict: the extension's own
    propagators reached the whole fixpoint."""
    solver = session.session
    extend = solver.extend

    def checked_extend(nodes):
        extension = extend(nodes)
        if not solver.root_conflict:
            mark = len(solver.store.trail)
            solver.engine.enqueue_all()
            conflict = solver.engine.propagate()
            if conflict is not None or len(solver.store.trail) != mark:
                failures.append(
                    f"seed {seed} frame {session.unroller.frames}: "
                    "extension stopped short of the level-0 fixpoint"
                )
        return extension

    solver.extend = checked_extend


def _sweep_chunk(seeds: Sequence[int]) -> List[str]:
    """Session-vs-one-shot oracle over a seed range."""
    prop = random_safety_property()
    config = SolverConfig(predicate_learning=True)
    failures: List[str] = []
    for seed in seeds:
        if seed in _PATHOLOGICAL_SEEDS:
            continue
        circuit = random_sequential_circuit(seed, **_SWEEP_SHAPE)
        session = BmcSession(circuit, prop, config)
        _check_extension_fixpoint(session, seed, failures)
        for bound in range(1, _MAX_BOUND + 1):
            instance = make_bmc_instance(circuit, prop, bound)
            oneshot = solve_circuit(
                instance.circuit, instance.assumptions, config
            )
            incremental = session.solve_bound(bound)
            if oneshot.status is Status.UNKNOWN:
                failures.append(
                    f"seed {seed} bound {bound}: one-shot UNKNOWN"
                )
                continue
            if incremental.status is not oneshot.status:
                failures.append(
                    f"seed {seed} bound {bound}: session says "
                    f"{incremental.status.value}, one-shot says "
                    f"{oneshot.status.value}"
                )
                continue
            if incremental.is_sat:
                trace = input_trace_from_model(
                    circuit, incremental.model, bound
                )
                frames = SequentialSimulator(circuit).run(trace)
                if frames[bound - 1]["ok"] != 0:
                    failures.append(
                        f"seed {seed} bound {bound}: session model "
                        "fails simulation replay"
                    )
        if session.session.session_solves != _MAX_BOUND:
            failures.append(
                f"seed {seed}: expected {_MAX_BOUND} session solves, "
                f"got {session.session.session_solves}"
            )
    return failures


def test_session_sweep_matches_oneshot():
    """Persistent-session statuses and models match per-bound solves,
    and every frame extension reaches the level-0 fixpoint."""
    chunks = [
        range(start, min(start + _CHUNK, _NUM_SEEDS))
        for start in range(0, _NUM_SEEDS, _CHUNK)
    ]
    tasks = [
        Task(
            fn=_sweep_chunk,
            args=(tuple(chunk),),
            label=f"sweep[{chunk[0]}:{chunk[-1] + 1}]",
        )
        for chunk in chunks
    ]
    failures: List[str] = []
    for outcome in run_tasks(tasks, jobs=_test_jobs()):
        if outcome.ok:
            failures.extend(outcome.value)
        else:
            failures.append(
                f"{outcome.label}: worker failed: {outcome.error}"
            )
    assert not failures, "\n".join(failures)


def test_session_reuses_probe_cache_across_frames():
    """Steady-state frames hit the probe cache, and hits install the
    cached clauses (learned relations appear without re-probing)."""
    circuit = random_sequential_circuit(5)
    prop = random_safety_property()
    session = BmcSession(
        circuit, prop, SolverConfig(predicate_learning=True)
    )
    session.solve_bound(4)
    assert session.cache.hits > 0
    assert session.cache.misses > 0
