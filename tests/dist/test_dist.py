"""End-to-end distributed solves: real worker hosts (threads of the
caller, attached to the hub over socketpairs), real solver children,
one hub — SAT with model replay, UNSAT verdict assembly, and the
requeue of a crashed host's or a lost worker's cube (that host talks to
the hub over a UNIX socket on localhost, as a ``dist-work`` host
would).

``b01_1`` at bound 10 violates its property within milliseconds (the
SAT paths); ``b02_1`` at bound 10 is UNSAT but *not* refuted during
cube generation, so its verdict genuinely assembles from per-cube
reports at the hub.  Test cost is process startup, not solving.
"""

from __future__ import annotations

import threading

import pytest

import repro.dist.run as dist_run
from repro import procs
from repro.core import SolverConfig, Status
from repro.dist import run_worker_host, solve_dist
from repro.dist.hub import CubeHub
from repro.portfolio.cubes import generate_cubes
from repro.portfolio.worker import ProblemSpec, build_problem, portfolio_worker
from tests.portfolio.test_portfolio import _HoldBackWorker1, _start_after_exit

_TIMEOUT = 120.0
_CONFIG = SolverConfig(predicate_learning=True)


def test_dist_sat_with_model_replay():
    result = solve_dist(
        "b01_1",
        10,
        hosts=2,
        jobs=1,
        timeout=_TIMEOUT,
        base_config=_CONFIG,
    )
    # ``solve_dist`` replays the model on a fresh simulator before
    # returning, so a SAT status here is a *verified* witness.
    assert result.status is Status.SAT
    assert result.model
    assert "dist: cube" in result.note
    assert result.stats.dist_hosts == 2
    assert result.stats.cubes_solved >= 1


def test_dist_unsat_all_cubes():
    result = solve_dist(
        "b02_1",
        10,
        hosts=1,
        jobs=2,
        timeout=_TIMEOUT,
        base_config=_CONFIG,
    )
    assert result.status is Status.UNSAT
    assert result.note.startswith("dist: ")
    assert "UNSAT" in result.note
    assert result.stats.dist_hosts == 1


def test_dist_crash_host_requeues_and_verdict_survives(monkeypatch):
    """Host 0 dies on its first cube; the hub requeues it and host 1
    settles the query.  Host 1 starts only after the hub has dropped
    host 0, so it cannot settle the query before host 0 took a cube."""
    dropped = threading.Event()
    drop_host = CubeHub._drop_host

    def drop_and_release(self, host_id, reason):
        drop_host(self, host_id, reason)
        dropped.set()

    monkeypatch.setattr(CubeHub, "_drop_host", drop_and_release)
    run_host = dist_run.run_worker_host

    def hold_back_host_1(*args, name, **kwargs):
        if name != "host-0":
            assert dropped.wait(60.0), "host 0 never left the hub"
        return run_host(*args, name=name, **kwargs)

    monkeypatch.setattr(dist_run, "run_worker_host", hold_back_host_1)
    result = solve_dist(
        "b01_1",
        10,
        hosts=2,
        jobs=1,
        timeout=_TIMEOUT,
        base_config=_CONFIG,
        crash_hosts=1,
    )
    assert result.status is Status.SAT
    assert result.stats.dist_requeues >= 1
    assert "requeue" in result.note


class _RecordTargets:
    """Stand-in for :func:`repro.procs.context` that records the target
    of every process started from it."""

    def __init__(self, context):
        self._context = context
        self.targets = []
        self.Pipe = context.Pipe

    def Process(self, **kwargs):
        self.targets.append(kwargs["target"])
        return self._context.Process(**kwargs)


def test_dist_starts_only_solver_workers(monkeypatch):
    """The hosts of ``solve_dist`` are threads of the caller: the only
    processes it starts are the solver workers, forked from the
    caller's fork server."""
    recorder = _RecordTargets(procs.context())
    monkeypatch.setattr(procs, "context", lambda: recorder)
    result = solve_dist(
        "b01_1",
        10,
        hosts=2,
        jobs=1,
        timeout=_TIMEOUT,
        base_config=_CONFIG,
    )
    assert result.status is Status.SAT
    assert recorder.targets == [portfolio_worker, portfolio_worker]


def test_dist_host_reports_lost_worker_and_cube_is_requeued(
    monkeypatch, tmp_path
):
    """One host, two workers; worker 0 crashes on its first cube and
    worker 1 starts only once worker 0 is gone.  The host's heartbeats
    keep its lease alive, so only its ``lost`` report gets the cube
    requeued.  Without it, worker 1 would still solve the cube, as a
    duplicate of worker 0's (the hub's holders are workers), but the
    hub would count no requeue."""
    spec = ProblemSpec("instance", "b13_1", 20)  # UNSAT
    circuit, assumptions = build_problem(spec)
    report = generate_cubes(circuit, assumptions, depth=2)
    assert report.status is None
    crash_all = tuple(range(len(report.cubes)))
    context = procs.context()
    monkeypatch.setattr(
        procs,
        "context",
        lambda: _HoldBackWorker1(
            context,
            gate=lambda first, target, args: (
                _start_after_exit,
                (first.pid, target) + args,
            ),
        ),
    )
    hub = CubeHub(
        spec,
        report.cubes,
        base_config=SolverConfig(),
        root_index=None,
        timeout=60.0,
    )
    hub.start(unix_path=str(tmp_path / "hub.sock"))
    try:
        # Worker 0 crashes on whichever cube it is handed first.
        run_worker_host(hub.address, 2, crash_cubes={0: crash_all})
        result = hub.wait(timeout=5.0)
    finally:
        hub.close()
    assert result is not None
    assert result.status == "unsat", result.note
    assert result.requeues == 1


def test_dist_rejects_unknown_case():
    with pytest.raises(Exception, match="unknown|no such|instance"):
        solve_dist("no_such_case", 5, hosts=1, jobs=1, timeout=5.0)
