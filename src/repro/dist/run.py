"""Cube-and-conquer drivers on a cube hub: one query, many hosts.

:func:`run_hosts` is the harness of every in-process multi-process
solve.  It attaches ``hosts`` worker hosts to a
:class:`~repro.dist.hub.CubeHub`, each a daemon thread of the caller
that talks to the hub over a socketpair (:meth:`CubeHub.attach`) and
runs ``jobs`` solver workers (:func:`~repro.dist.worker.run_worker_host`),
forked from the caller's preloaded fork server (:mod:`repro.procs`).
It then waits for the verdict, closes the hub and joins the hosts.
The local portfolio (:func:`repro.portfolio.solve.solve_portfolio`) is
one such host; :func:`solve_dist` runs several.

:func:`solve_dist` is the single-query API (and what the ``dist-1h`` /
``dist-2h`` ratio-gate engines call): it generates cubes exactly like
:func:`~repro.portfolio.solve.solve_portfolio`, serves them from a hub
to ``hosts`` hosts, and interprets the verdict as a
:class:`~repro.core.result.SolverResult` through the same
:func:`~repro.portfolio.solve.cube_solver_result` as the local
portfolio — including the mandatory simulator replay of any SAT model.
:func:`solve_on_hub` is the part ``dist-serve`` shares: split, serve,
interpret.

On a real deployment the hub and the hosts live on different machines
(see ``docs/distributed.md``): ``dist-serve`` listens on a socket and
each host is a ``dist-work`` process.  The wire protocol between hub and
hosts is byte-identical either way.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.core.config import SolverConfig
from repro.core.result import SolverResult
from repro.dist.hub import CubeHub, DistError
from repro.dist.worker import run_worker_host
from repro.portfolio.cubes import Cube, generate_cubes
from repro.portfolio.ledger import CubeResult
from repro.portfolio.solve import cube_solver_result, default_cube_depth
from repro.portfolio.worker import ProblemSpec, build_problem

logger = logging.getLogger(__name__)

#: Seconds granted past the solve deadline for hosts to report in.
_SETTLE_GRACE = 10.0
#: Seconds the driver waits for its hosts to stop after the verdict: a
#: host sees the closed hub hang up at once, then gives its workers the
#: stop and SIGTERM graces (1 s each).
_STOP_WAIT = 5.0


def run_hosts(
    hub: CubeHub,
    hosts: int,
    jobs: int,
    crash_hosts: int = 0,
    **host_options,
) -> CubeResult:
    """Solve ``hub``'s cubes on ``hosts`` in-process worker hosts of
    ``jobs`` workers each, and return the hub's verdict.

    ``host_options`` go to every :func:`run_worker_host` (``optimize``,
    ``telemetry`` and the per-worker test hooks).  ``crash_hosts`` is
    the requeue test hook: that many hosts crash every worker on its
    first cube, and the hub must requeue their cubes onto the others.
    A cube lost twice raises :class:`DistError`; so does every host
    dying before the verdict, with the last host's error.
    """
    failures: List[Exception] = []

    def host_main(index: int, conn) -> None:
        options = dict(host_options)
        if index < crash_hosts:
            every_cube = tuple(range(len(hub.cubes)))
            options["crash_cubes"] = {local: every_cube for local in range(jobs)}
        try:
            run_worker_host(conn, jobs, name=f"host-{index}", **options)
        except Exception as error:  # noqa: BLE001 - the caller re-raises
            # A failed host's cubes are the hub's to requeue.
            logger.warning("dist host-%d: %s", index, error)
            failures.append(error)

    threads = []
    try:
        for index in range(hosts):
            thread = threading.Thread(
                target=host_main,
                args=(index, hub.attach()),
                daemon=True,
                name=f"dist-host-{index}",
            )
            thread.start()
            threads.append(thread)
        deadline = (
            time.monotonic() + hub.timeout + _SETTLE_GRACE
            if hub.timeout is not None
            else None
        )
        result = None
        while result is None:
            if deadline is not None and time.monotonic() >= deadline:
                return hub.abort("driver wait expired")
            result = hub.wait(timeout=0.5)
            if result is None and not any(t.is_alive() for t in threads):
                # Give the hub one last sweep: the connection-drop
                # handler may have settled a failure verdict already.
                result = hub.wait(timeout=0.0)
                if result is None:
                    raise (
                        failures[-1]
                        if failures
                        else DistError("all worker hosts died")
                    )
        if result.failure:
            raise DistError(result.failure)
        return result
    finally:
        hub.close()
        stop_deadline = time.monotonic() + _STOP_WAIT
        for thread in threads:
            thread.join(max(0.0, stop_deadline - time.monotonic()))


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
    crash_hosts: int = 0,
) -> SolverResult:
    """Distributed cube-and-conquer solve of one registry instance.

    ``hosts`` worker hosts each run ``jobs`` local solver workers;
    diversification indices are global, so a 2-host x 2-job run
    explores the same strategy spread as a 4-worker portfolio.
    ``crash_hosts`` is :func:`run_hosts`' requeue test hook.
    """
    hosts = max(1, hosts)
    jobs = max(1, jobs)
    return solve_on_hub(
        ProblemSpec("instance", case, bound),
        hosts * jobs,
        None,
        lambda hub: run_hosts(hub, hosts, jobs, crash_hosts=crash_hosts),
        base_config=base_config or SolverConfig(),
        timeout=timeout,
    )[0]
