"""Distributed cube-and-conquer driver: one query, many hosts.

:func:`solve_dist` is the single-query API (and what the ``dist-1h`` /
``dist-2h`` bench engines call): it generates cubes exactly like
:func:`repro.portfolio.solve.solve_portfolio`, starts a
:class:`~repro.dist.hub.CubeHub` on a UNIX socket, launches ``hosts``
worker-host processes against it (each starting ``jobs`` local solver
workers), and interprets the hub's verdict as a
:class:`~repro.core.result.SolverResult` — including the mandatory
simulator replay of any SAT model, which must never be weaker in the
distributed path than in the local one.

On a real deployment the hub and the hosts live on different machines
(see ``docs/distributed.md``); this driver is the single-machine
harness the benchmarks and tests use, so host processes are
``multiprocessing`` children (forked from the preloaded fork server in
:mod:`repro.procs`) rather than SSH sessions — the wire protocol
between them is byte-identical either way.
"""

from __future__ import annotations

import logging
import os
import shutil
import tempfile
import time
from typing import Optional, Tuple

from repro import procs
from repro.core.config import SolverConfig
from repro.core.result import SolverResult, SolverStats, Status
from repro.dist.hub import CubeHub, DistError, DistResult
from repro.dist.worker import run_worker_host
from repro.portfolio.cubes import Cube, generate_cubes
from repro.portfolio.solve import (
    _SUM_COUNTERS,
    default_cube_depth,
    replay_model,
)
from repro.portfolio.worker import ProblemSpec, build_problem

logger = logging.getLogger(__name__)

#: Seconds granted past the solve deadline for hosts to report in.
_SETTLE_GRACE = 10.0


def _host_main(
    address: Tuple[str, object],
    jobs: int,
    name: str,
    log_level: Optional[str],
    crash_cubes: Tuple[int, ...] = (),
) -> None:
    """Worker-host process entry point (``Process`` target)."""
    if log_level:
        from repro.obs import configure_logging

        configure_logging(log_level)
    try:
        run_worker_host(
            address, jobs, name=name, crash_cubes=crash_cubes
        )
    except DistError as error:
        logger.warning("dist host %s: %s", name, error)
        raise SystemExit(1)


def solve_dist(
    case: str,
    bound: int,
    *,
    hosts: int = 2,
    jobs: int = 2,
    timeout: Optional[float] = None,
    base_config: Optional[SolverConfig] = None,
    cube_depth: Optional[int] = None,
    lease_s: float = 30.0,
    crash_hosts: int = 0,
) -> SolverResult:
    """Distributed cube-and-conquer solve of one registry instance.

    ``hosts`` worker-host processes each run ``jobs`` local solver
    workers; diversification indices are global, so a 2-host x 2-job
    run explores the same strategy spread as a 4-worker portfolio.
    ``crash_hosts`` is the requeue test hook: that many of the launched
    hosts run with the crash-on-first-assignment worker hook, dying as
    soon as they take a cube — the hub must requeue their cubes onto
    the surviving hosts without changing the verdict.
    """
    base_config = base_config or SolverConfig()
    hosts = max(1, hosts)
    jobs = max(1, jobs)
    start = time.perf_counter()
    spec = ProblemSpec("instance", case, bound)
    circuit, assumptions = build_problem(spec)
    total_workers = hosts * jobs
    depth = (
        cube_depth
        if cube_depth is not None
        else default_cube_depth(total_workers)
    )
    report = generate_cubes(
        circuit, assumptions, depth, max_cubes=4 * total_workers
    )

    def finalize(dist_result: Optional[DistResult]) -> SolverResult:
        stats = SolverStats()
        stats.cubes_generated = len(report.cubes) + len(report.refuted)
        stats.cubes_refuted = len(report.refuted)
        stats.dist_hosts = 0
        stats.dist_requeues = 0
        stats.dist_clauses_relayed = 0
        if dist_result is None:  # settled during generation
            stats.solve_time = time.perf_counter() - start
            return SolverResult(
                status=report.status or Status.UNKNOWN,
                stats=stats,
                note=report.note,
            )
        if dist_result.failure:
            raise DistError(dist_result.failure)
        for outcome in dist_result.outcomes.values():
            for name in _SUM_COUNTERS:
                setattr(
                    stats,
                    name,
                    getattr(stats, name) + int(outcome.stats.get(name, 0)),
                )
            stats.max_decision_level = max(
                stats.max_decision_level,
                int(outcome.stats.get("max_decision_level", 0)),
            )
        stats.cubes_solved = len(dist_result.outcomes)
        totals = dist_result.share_totals
        stats.clauses_exported = totals.get("exported", 0)
        stats.clauses_imported = totals.get("installed", 0)
        received = totals.get("received", 0)
        stats.share_import_hit_rate = (
            totals.get("installed", 0) / received if received else 0.0
        )
        stats.dist_hosts = dist_result.hosts_seen
        stats.dist_requeues = dist_result.requeues
        stats.dist_clauses_relayed = dist_result.clauses_relayed
        stats.solve_time = time.perf_counter() - start
        status = Status(dist_result.status)
        model = None
        note = dist_result.note
        if status is Status.SAT:
            model = dist_result.model
            if model is None or not replay_model(
                circuit, model, assumptions
            ):
                raise DistError(
                    "distributed SAT model failed simulator replay "
                    f"(cube {dist_result.winning_cube}, worker "
                    f"{dist_result.winning_worker} on host "
                    f"{dist_result.winning_host})"
                )
            note = (
                f"dist: cube {dist_result.winning_cube} SAT on worker "
                f"{dist_result.winning_worker} (host "
                f"{dist_result.winning_host})"
            )
        elif status is Status.UNSAT and not note:
            root = dist_result.outcomes.get(0)
            if root is not None and root.status == "unsat":
                note = "dist: root cube UNSAT"
            else:
                note = f"dist: all {len(report.cubes)} cubes UNSAT"
        if dist_result.requeues and note:
            note += f" ({dist_result.requeues} cube requeues)"
        return SolverResult(status=status, model=model, stats=stats, note=note)

    if report.status is not None:
        return finalize(None)

    cubes = [Cube(())] + list(report.cubes)
    hub = CubeHub(
        spec,
        cubes,
        base_config=base_config,
        root_index=0,
        timeout=timeout,
        lease_s=lease_s,
    )
    tmpdir = tempfile.mkdtemp(prefix="repro-dist-")
    socket_path = os.path.join(tmpdir, "hub.sock")
    processes = []
    try:
        address = hub.start(unix_path=socket_path)
        from repro.obs import effective_level_spec

        level_spec = effective_level_spec()
        context = procs.context()
        for index in range(hosts):
            crash = (
                tuple(range(len(cubes))) if index < crash_hosts else ()
            )
            process = context.Process(
                target=_host_main,
                args=(
                    address,
                    jobs,
                    f"host-{index}",
                    level_spec,
                    crash,
                ),
                # NOT daemonic: hosts start their own worker children.
                daemon=False,
                name=f"dist-host-{index}",
            )
            process.start()
            processes.append(process)
        deadline = (
            time.monotonic() + timeout + _SETTLE_GRACE
            if timeout is not None
            else None
        )
        dist_result = None
        while dist_result is None:
            if deadline is not None and time.monotonic() >= deadline:
                dist_result = hub.abort("dist driver wait expired")
                break
            dist_result = hub.wait(timeout=0.5)
            if dist_result is None and not any(
                p.is_alive() for p in processes
            ):
                # Give the hub one last sweep: the connection-drop
                # handler may have settled a failure verdict already.
                dist_result = hub.wait(timeout=0.0)
                if dist_result is None:
                    raise DistError("all dist worker hosts died")
    finally:
        hub.close()
        stop_deadline = time.monotonic() + 2.0
        for process in processes:
            procs.terminate_then_kill(
                process, wait=max(0.0, stop_deadline - time.monotonic())
            )
        shutil.rmtree(tmpdir, ignore_errors=True)
    return finalize(dist_result)
