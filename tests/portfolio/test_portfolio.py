"""Portfolio end-to-end tests.

The load-bearing check is the randomized differential sweep: the
deterministic in-process portfolio must report exactly the same
statuses as a fresh sequential ``solve_circuit`` per instance, and
every SAT model must replay on the sequential simulator with the
monitor low at the violating frame — cube splitting, diversification
and clause sharing are all behaviourally invisible or they are bugs.

The multi-process mode -- a one-host cube hub, run through the harness
every multi-process solve uses -- is exercised separately through its
crash semantics (requeue once, then fail loudly), which also covers
worker start-up, the pipe protocol, and result assembly.
"""

from __future__ import annotations

import os
import time
from typing import List, Sequence

import pytest

from repro import procs
from repro.bmc import input_trace_from_model, make_bmc_instance
from repro.core import HdpllSolver, SolverConfig, Status, solve_circuit
from repro.core.hdpll import HdpllSolver, luby
from repro.dist.hub import CubeHub
from repro.dist.run import run_hosts
from repro.errors import SolverError
from repro.harness.parallel import Task, run_tasks
from repro.itc99.generator import (
    random_safety_property,
    random_sequential_circuit,
)
from repro.portfolio import (
    Cube,
    PortfolioError,
    ProblemSpec,
    build_problem,
    default_cube_depth,
    generate_cubes,
    prove_by_induction_portfolio,
    replay_model,
    rotation_size,
    solve_portfolio,
    worker_config,
)
from repro.portfolio.worker import CubeCancelled
from repro.rtl.simulate import SequentialSimulator

_NUM_SEEDS = 40
_CHUNK = 10
_MAX_BOUND = 3

#: Same generator shape (and pathological-seed skip list) as the BMC
#: session sweep — see tests/bmc/test_session.py for the rationale.
_SWEEP_SHAPE = dict(width=3, num_registers=2, operations=8)
_PATHOLOGICAL_SEEDS = frozenset({31})


def _test_jobs() -> int:
    return int(os.environ.get("REPRO_TEST_JOBS", "1"))


# ----------------------------------------------------------------------
# Diversification and restart schedules
# ----------------------------------------------------------------------


def test_luby_sequence():
    assert [luby(i) for i in range(1, 16)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]


def test_unknown_restart_strategy_rejected():
    circuit = random_sequential_circuit(1, **_SWEEP_SHAPE)
    with pytest.raises(SolverError, match="restart strategy"):
        HdpllSolver(circuit, SolverConfig(restart_strategy="fibonacci"))


def test_worker_rotation_is_diverse_and_cyclic():
    base = SolverConfig(learning_threshold=7)
    configs = [worker_config(base, i) for i in range(rotation_size())]
    # All distinct, cycle wraps, base settings survive the overrides.
    assert len({repr(c) for c in configs}) == rotation_size()
    assert worker_config(base, rotation_size()) == configs[0]
    assert all(c.learning_threshold == 7 for c in configs)
    # Index 0 (the root-cube racer) is the cheapest strategy.
    assert not configs[0].structural_decisions
    assert not configs[0].predicate_learning
    # Both restart schedules and both learning modes are represented.
    assert {c.restart_strategy for c in configs} == {"geometric", "luby"}
    assert {c.predicate_learning for c in configs} == {True, False}
    assert {c.structural_decisions for c in configs} == {True, False}


def test_default_cube_depth():
    assert default_cube_depth(1) == 1
    assert default_cube_depth(2) == 2
    assert default_cube_depth(4) == 3
    assert default_cube_depth(8) == 4


# ----------------------------------------------------------------------
# Randomized differential sweep: portfolio vs sequential
# ----------------------------------------------------------------------


def _sweep_chunk(seeds: Sequence[int]) -> List[str]:
    """Portfolio-vs-sequential oracle over a seed range."""
    prop = random_safety_property()
    failures: List[str] = []
    for seed in seeds:
        if seed in _PATHOLOGICAL_SEEDS:
            continue
        circuit = random_sequential_circuit(seed, **_SWEEP_SHAPE)
        for bound in range(1, _MAX_BOUND + 1):
            instance = make_bmc_instance(circuit, prop, bound)
            sequential = solve_circuit(
                instance.circuit, instance.assumptions, SolverConfig()
            )
            if sequential.status is Status.UNKNOWN:
                failures.append(
                    f"seed {seed} bound {bound}: sequential UNKNOWN"
                )
                continue
            portfolio = solve_portfolio(
                instance.circuit,
                instance.assumptions,
                jobs=3,
                deterministic=True,
            )
            if portfolio.status is not sequential.status:
                failures.append(
                    f"seed {seed} bound {bound}: portfolio says "
                    f"{portfolio.status.value}, sequential says "
                    f"{sequential.status.value}"
                )
                continue
            if portfolio.is_sat:
                trace = input_trace_from_model(
                    circuit, portfolio.model, bound
                )
                frames = SequentialSimulator(circuit).run(trace)
                if frames[bound - 1]["ok"] != 0:
                    failures.append(
                        f"seed {seed} bound {bound}: portfolio model "
                        "fails simulation replay"
                    )
    return failures


def test_portfolio_sweep_matches_sequential():
    """Deterministic portfolio statuses and models match one-shot
    sequential solves across 40 random circuits."""
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


def test_deterministic_mode_is_reproducible():
    """Two identical deterministic runs agree bit-for-bit on status and
    search counters (the property the tests lean on)."""
    circuit = random_sequential_circuit(7, **_SWEEP_SHAPE)
    instance = make_bmc_instance(circuit, random_safety_property(), 3)

    def run():
        return solve_portfolio(
            instance.circuit,
            instance.assumptions,
            jobs=3,
            deterministic=True,
        )

    first, second = run(), run()
    assert first.status is second.status
    assert first.stats.decisions == second.stats.decisions
    assert first.stats.conflicts == second.stats.conflicts
    assert first.stats.cubes_solved == second.stats.cubes_solved
    assert first.stats.clauses_exported == second.stats.clauses_exported


def test_portfolio_stats_and_note_surface():
    circuit = random_sequential_circuit(9, **_SWEEP_SHAPE)
    instance = make_bmc_instance(circuit, random_safety_property(), 2)
    result = solve_portfolio(
        instance.circuit,
        instance.assumptions,
        jobs=2,
        deterministic=True,
    )
    stats = result.stats
    assert result.status is not Status.UNKNOWN
    assert stats.cubes_generated >= 1
    assert stats.cubes_refuted <= stats.cubes_generated
    assert stats.cubes_solved >= 1
    assert result.note.startswith("portfolio:")
    assert stats.solve_time > 0.0
    if result.is_sat:
        assert replay_model(
            instance.circuit, result.model, instance.assumptions
        )


# ----------------------------------------------------------------------
# Multi-process mode: crash requeue semantics
# ----------------------------------------------------------------------

#: Seconds a held-back worker waits for its gate before starting anyway
#: (the test then fails on its assertions instead of hanging).
_GATE_TIMEOUT = 60.0


def _start_after_exit(pid, target, *args):
    """Worker target: run ``target`` once process ``pid`` is gone."""
    deadline = time.monotonic() + _GATE_TIMEOUT
    while time.monotonic() < deadline:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    target(*args)


def _start_after_file(path, target, *args):
    """Worker target: run ``target`` once ``path`` exists."""
    deadline = time.monotonic() + _GATE_TIMEOUT
    while not os.path.exists(path) and time.monotonic() < deadline:
        time.sleep(0.01)
    target(*args)


class _FlagFirstCube:
    """Worker pipe end that creates ``path`` when a cube arrives."""

    def __init__(self, conn, path):
        self._conn = conn
        self._path = path

    def recv(self):
        message = self._conn.recv()
        if message[0] == "cube":
            open(self._path, "a").close()
        return message

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _flag_first_cube(path, target, conn, spec):
    target(_FlagFirstCube(conn, path), spec)


class _HoldBackWorker1:
    """Stand-in for :func:`repro.procs.context` whose worker 1 waits
    for worker 0 to pass a gate before it starts.

    ``gate(first, target, args)`` turns worker 1's target and arguments
    into gated ones (``first`` is worker 0's started process);
    ``flag(target, args)`` does the same for worker 0.
    """

    def __init__(self, context, gate, flag=None):
        self._context = context
        self._gate = gate
        self._flag = flag
        self._started = []
        self.Pipe = self._context.Pipe

    def Process(self, target, args, **kwargs):
        if not self._started:
            if self._flag is not None:
                target, args = self._flag(target, args)
        else:
            target, args = self._gate(self._started[0], target, args)
        process = self._context.Process(target=target, args=args, **kwargs)
        self._started.append(process)
        return process


def _crash_problem():
    spec = ProblemSpec("instance", "b01_1", 10)
    circuit, assumptions = build_problem(spec)
    report = generate_cubes(circuit, assumptions, depth=1)
    assert report.status is None
    return spec, [Cube(())] + list(report.cubes)


def _run_hub(spec, cubes, jobs, root_index=0, **host_options):
    """Serve ``cubes`` from a one-host cube hub with ``jobs`` workers,
    as :func:`solve_portfolio` does, and return the hub's result."""
    hub = CubeHub(
        spec, cubes, SolverConfig(), root_index=root_index, timeout=120.0
    )
    return run_hosts(hub, 1, jobs, **host_options)


def test_crashed_worker_requeues_cube_once(monkeypatch):
    """Worker 0 dies on its first assignment; the cube is requeued and
    the surviving worker still settles the query.

    Worker 1 starts only after worker 0 is gone, so it cannot settle
    the query before worker 0 has taken (and lost) a cube.
    """
    context = procs.context()
    monkeypatch.setattr(
        procs,
        "context",
        lambda: _HoldBackWorker1(
            context,
            gate=lambda first, target, args: (
                _start_after_exit,
                (first.pid, target) + args,
            )
        ),
    )
    spec, cubes = _crash_problem()
    result = _run_hub(
        spec, cubes, jobs=2, crash_cubes={0: tuple(range(len(cubes)))}
    )
    assert result.requeues == 1
    assert result.status == "sat"  # b01_1 is violated by bound 10
    assert result.model is not None
    circuit, assumptions = build_problem(spec)
    assert replay_model(circuit, result.model, assumptions)


def test_duplicate_holder_cancelled_when_cube_decided(
    tmp_path, tmp_path_factory, monkeypatch
):
    """A worker grinding on an already-decided cube gets a cube-scoped
    cancel and lives on, instead of burning until the pool shuts down.

    Worker 0 stalls (test hook) on every cube it is handed, so its
    cubes are only ever decided by worker 1 picking up duplicates once
    the queue drains: the hub's holders are workers, so a worker gets
    duplicates of its sibling's cubes.  Each such result must trigger a
    ``("cancel", index)`` to worker 0 — proven by the marker files the
    stall hook writes on receipt — and the hub must still settle the
    query.
    The step query is UNSAT, so every split cube is UNSAT and the
    verdict needs *all* of them (no root cube, ``root_index=None``):
    the stalled cubes cannot be bypassed.  The problem is b13_1's
    inductive step at its proving depth — UNSAT, but beyond pure
    propagation, so cube generation cannot settle it early.  Worker 1
    starts only once worker 0 holds a cube, so it cannot decide every
    cube before worker 0 has taken one.
    """
    flag = str(tmp_path_factory.mktemp("gate") / "worker-0-has-a-cube")
    context = procs.context()
    monkeypatch.setattr(
        procs,
        "context",
        lambda: _HoldBackWorker1(
            context,
            gate=lambda first, target, args: (
                _start_after_file,
                (flag, target) + args,
            ),
            flag=lambda target, args: (
                _flag_first_cube,
                (flag, target) + args,
            ),
        ),
    )
    spec = ProblemSpec("step", "b13_1", 6)
    circuit, assumptions = build_problem(spec)
    report = generate_cubes(circuit, assumptions, depth=1)
    assert report.status is None
    cubes = list(report.cubes)
    assert len(cubes) >= 2
    result = _run_hub(
        spec,
        cubes,
        jobs=2,
        root_index=None,
        stall_cubes={0: tuple(range(len(cubes)))},
        stall_dir=str(tmp_path),
    )
    assert result.status == "unsat"
    markers = sorted(p.name for p in tmp_path.iterdir())
    assert markers, "stalled duplicate holder never received a cancel"
    assert all(m.startswith("cancelled-0-") for m in markers)


def test_stop_terminates_a_worker_that_never_reported_ready_at_once(
    tmp_path, monkeypatch
):
    """A worker still in set-up cannot hear ``("stop",)``, so stopping
    the pool sends it SIGTERM without the cooperative wait that a ready
    worker gets.  Worker 1 is held in start-up (its gate never opens)
    while worker 0 settles the query alone."""
    never = str(tmp_path / "never-created")
    context = procs.context()
    monkeypatch.setattr(
        procs,
        "context",
        lambda: _HoldBackWorker1(
            context,
            gate=lambda first, target, args: (
                _start_after_file,
                (never, target) + args,
            ),
        ),
    )
    waits = {}
    terminate_then_kill = procs.terminate_then_kill

    def record_wait(process, grace=procs.TERM_GRACE, wait=0.0):
        waits[process.name] = wait
        terminate_then_kill(process, grace, wait)

    monkeypatch.setattr(procs, "terminate_then_kill", record_wait)
    spec, cubes = _crash_problem()
    result = _run_hub(spec, cubes, jobs=2)
    assert result.status == "sat"
    assert waits["portfolio-1"] == 0.0
    assert waits["portfolio-0"] > 0.0


def test_all_workers_crashing_fails_loudly():
    spec, cubes = _crash_problem()
    with pytest.raises(PortfolioError):
        _run_hub(
            spec,
            cubes,
            jobs=2,
            crash_cubes={
                0: tuple(range(len(cubes))),
                1: tuple(range(len(cubes))),
            },
        )


def test_all_workers_crashing_reports_why():
    """The error names how the last worker died (the crash hook exits
    with status 23), not just that the host has no worker left."""
    spec, cubes = _crash_problem()
    with pytest.raises(
        PortfolioError, match=r"all portfolio workers died.*exit 23"
    ):
        _run_hub(
            spec, cubes, jobs=1, crash_cubes={0: tuple(range(len(cubes)))}
        )


# ----------------------------------------------------------------------
# FME leaf checks hear the deadline and the worker
# ----------------------------------------------------------------------


def _leaf_bound_session():
    """b01_1(50) under worker 1's configuration (structural decisions,
    Luby restarts, no learning): the whole query, the root cube, sits
    in one FME leaf check that runs for many seconds."""
    circuit, assumptions = build_problem(ProblemSpec("instance", "b01_1", 50))
    session = HdpllSolver(
        circuit, worker_config(SolverConfig(), 1), persistent=True
    )
    return session, assumptions


def test_leaf_check_ends_at_the_solve_deadline():
    session, assumptions = _leaf_bound_session()
    begin = time.perf_counter()
    result = session.solve(assumptions, timeout=1.0)
    elapsed = time.perf_counter() - begin
    assert result.status is Status.UNKNOWN
    assert "timeout" in result.note
    assert result.stats.fme_checks >= 1
    assert elapsed < 5.0


class _CancelInLeafCheck:
    """A share hook whose ``drain`` -- called only inside a leaf check --
    delivers a cancel of cube 0, as a worker's pipe would."""

    def __init__(self):
        self.drained = 0

    def export(self, clause):
        pass

    def poll(self):
        return ()

    def drain(self):
        self.drained += 1
        raise CubeCancelled(0)


def test_cube_cancel_ends_a_leaf_check_and_the_session_lives_on():
    session, assumptions = _leaf_bound_session()
    channel = _CancelInLeafCheck()
    session.share = channel
    with pytest.raises(CubeCancelled):
        session.solve(assumptions, timeout=30.0)
    assert channel.drained == 1
    assert session.store.decision_level == 0
    session.share = None
    assert session.solve(assumptions, timeout=0.5).status is Status.UNKNOWN


# ----------------------------------------------------------------------
# Portfolio induction
# ----------------------------------------------------------------------


def test_portfolio_induction_proves_b13_counter():
    result = prove_by_induction_portfolio(
        "b13_1", max_k=6, jobs=2, deterministic=True
    )
    from repro.bmc.induction import InductionStatus

    assert result.status is InductionStatus.PROVED
    assert result.depth_stats
