"""Distributed cube-and-conquer driver: one query, many hosts.

:func:`solve_dist` is the single-query API (and what the ``dist-1h`` /
``dist-2h`` bench engines call): it generates cubes exactly like
:func:`repro.portfolio.solve.solve_portfolio`, starts a
:class:`~repro.dist.hub.CubeHub` on a UNIX socket, launches ``hosts``
worker-host processes against it (each starting ``jobs`` local solver
workers), and interprets the hub's verdict as a
:class:`~repro.core.result.SolverResult` through the same
:func:`~repro.portfolio.solve.cube_solver_result` as the local
portfolio — including the mandatory simulator replay of any SAT model.
:func:`solve_on_hub` is the part ``dist-serve`` shares: split, serve,
interpret.

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
from typing import Callable, Optional, Tuple

from repro import procs
from repro.core.config import SolverConfig
from repro.core.result import SolverResult
from repro.dist.hub import CubeHub, DistError
from repro.dist.worker import run_worker_host
from repro.obs import effective_level_spec
from repro.portfolio.cubes import Cube, generate_cubes
from repro.portfolio.ledger import CubeResult
from repro.portfolio.solve import cube_solver_result, default_cube_depth
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


def solve_on_hub(
    spec: ProblemSpec,
    workers: int,
    cube_depth: Optional[int],
    drive: Callable[[CubeHub], CubeResult],
    **hub_options,
) -> Tuple[SolverResult, Optional[CubeResult]]:
    """Split ``spec`` into cubes for ``workers`` workers in all, serve
    them (root cube first) from a :class:`CubeHub` built with
    ``hub_options``, and turn the verdict into a :class:`SolverResult`.

    ``drive(hub)`` starts the hub, gets hosts to it, waits for the
    verdict, closes the hub and returns its result; it is not called
    when cube generation settles the query, and the returned
    :class:`CubeResult` is then None.  A structural failure (a cube lost
    twice) raises :class:`DistError`.
    """
    start = time.perf_counter()
    circuit, assumptions = build_problem(spec)
    depth = (
        cube_depth if cube_depth is not None else default_cube_depth(workers)
    )
    report = generate_cubes(
        circuit, assumptions, depth, max_cubes=4 * workers
    )
    result = None
    if report.status is None:
        result = drive(
            CubeHub(
                spec, [Cube(())] + list(report.cubes), root_index=0,
                **hub_options,
            )
        )
        if result.failure:
            raise DistError(result.failure)
    solved = cube_solver_result(
        "dist", report, result, circuit, assumptions, start
    )
    stats = solved.stats
    stats.dist_hosts = result.hosts_seen if result is not None else 0
    stats.dist_requeues = result.requeues if result is not None else 0
    stats.dist_clauses_relayed = (
        result.clauses_relayed if result is not None else 0
    )
    return solved, result


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
    hosts = max(1, hosts)
    jobs = max(1, jobs)

    def drive(hub: CubeHub) -> CubeResult:
        tmpdir = tempfile.mkdtemp(prefix="repro-dist-")
        processes = []
        try:
            address = hub.start(unix_path=os.path.join(tmpdir, "hub.sock"))
            level_spec = effective_level_spec()
            context = procs.context()
            for index in range(hosts):
                crash = (
                    tuple(range(len(hub.cubes)))
                    if index < crash_hosts
                    else ()
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
            result = None
            while result is None:
                if deadline is not None and time.monotonic() >= deadline:
                    return hub.abort("dist driver wait expired")
                result = hub.wait(timeout=0.5)
                if result is None and not any(
                    p.is_alive() for p in processes
                ):
                    # Give the hub one last sweep: the connection-drop
                    # handler may have settled a failure verdict already.
                    result = hub.wait(timeout=0.0)
                    if result is None:
                        raise DistError("all dist worker hosts died")
            return result
        finally:
            hub.close()
            stop_deadline = time.monotonic() + 2.0
            for process in processes:
                procs.terminate_then_kill(
                    process, wait=max(0.0, stop_deadline - time.monotonic())
                )
            shutil.rmtree(tmpdir, ignore_errors=True)

    return solve_on_hub(
        ProblemSpec("instance", case, bound),
        hosts * jobs,
        cube_depth,
        drive,
        base_config=base_config or SolverConfig(),
        timeout=timeout,
        lease_s=lease_s,
    )[0]
