"""Portfolio master: run worker processes, relay clauses, survive crashes.

The master owns N worker processes (duplex pipe each, started from the
preloaded fork server in :mod:`repro.procs`) and drives a
:class:`~repro.portfolio.ledger.CubeLedger` with them as holders: a
worker that reports ready (or finishes a cube) gets the ledger's next
cube, each result goes into the ledger, and the duplicate holders it
names get a cube-scoped ``("cancel", index)``.  The cube contract (root
cube, least-covered duplicates, first report wins, the verdict rule,
requeue once then fail) is stated in :mod:`repro.portfolio.ledger`.

Here a crashed worker is a released holder: losing the same cube twice,
or losing every worker, raises :class:`PortfolioError`.
:func:`start_workers` / :func:`stop_workers` are shared with the
distributed worker host (:mod:`repro.dist.worker`).
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait as connection_wait
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import procs
from repro.core.config import SolverConfig
from repro.errors import SolverError
from repro.obs import effective_level_spec
from repro.portfolio.cubes import Cube
from repro.portfolio.ledger import CubeLedger, CubeOutcome, CubeResult
from repro.portfolio.worker import (
    ProblemSpec,
    WorkerSpec,
    portfolio_worker,
)

if TYPE_CHECKING:
    from repro.obs.telemetry import TelemetryHub

#: Seconds the master waits in one poll round before sweeping for
#: silently-died workers and checking the deadline.
_POLL_INTERVAL = 0.05
#: Seconds workers get to exit after a cooperative stop before being
#: terminated.
_STOP_GRACE = 1.0


class PortfolioError(SolverError):
    """Unrecoverable portfolio failure (crashed cubes, dead pool)."""


class WorkerProcess:
    """One started :func:`portfolio_worker`: its process, the parent's
    pipe end, and the cube it is solving (tracked by worker hosts)."""

    __slots__ = ("index", "process", "conn", "cube")

    def __init__(self, index: int, process, conn):
        #: The worker's (global) index, as in its :class:`WorkerSpec`.
        self.index = index
        self.process = process
        self.conn = conn
        self.cube: Optional[int] = None

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # worker death surfaces via its pipe on the next poll


def start_workers(
    specs: Sequence[WorkerSpec], name: str
) -> List[WorkerProcess]:
    """Start one worker process per spec from :func:`repro.procs.context`,
    named ``{name}-{worker_index}``."""
    context = procs.context()
    workers = []
    for spec in specs:
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=portfolio_worker,
            args=(child_conn, spec),
            daemon=True,
            name=f"{name}-{spec.worker_index}",
        )
        process.start()
        child_conn.close()
        workers.append(WorkerProcess(spec.worker_index, process, parent_conn))
    return workers


def stop_workers(workers: Iterable[WorkerProcess]) -> None:
    """Send every worker ``("stop",)``, give them one shared stop grace
    to exit, terminate the rest, and close the pipes."""
    workers = list(workers)
    for worker in workers:
        worker.send(("stop",))
    stop_deadline = time.monotonic() + _STOP_GRACE
    for worker in workers:
        procs.terminate_then_kill(
            worker.process,
            _STOP_GRACE,
            wait=max(0.0, stop_deadline - time.monotonic()),
        )
        worker.conn.close()


def run_pool(
    problem: ProblemSpec,
    cubes: Sequence[Cube],
    jobs: int,
    base_config: SolverConfig,
    timeout: Optional[float] = None,
    optimize: bool = False,
    root_index: Optional[int] = 0,
    crash_cubes: Optional[Dict[int, Tuple[int, ...]]] = None,
    stall_cubes: Optional[Dict[int, Tuple[int, ...]]] = None,
    stall_dir: Optional[str] = None,
    telemetry: Optional["TelemetryHub"] = None,
) -> CubeResult:
    """Solve every cube of ``problem`` on ``jobs`` diversified workers.

    ``crash_cubes`` and ``stall_cubes`` (worker index -> cube indices)
    are the test hooks forwarded to :class:`WorkerSpec`; stalled cubes
    block until cancelled, proving the duplicate-cancellation path
    (markers land in ``stall_dir``).  ``root_index`` names the cube
    whose UNSAT alone settles the query (``None`` when no root cube is
    in the list).  ``telemetry`` (a TelemetryHub) gives every worker a
    clock-aligned trace/metrics shard; the caller merges afterwards.
    """
    if not cubes:
        raise ValueError("run_pool needs at least one cube")
    jobs = max(1, jobs)
    deadline = (
        time.monotonic() + timeout if timeout is not None else None
    )

    def remaining() -> Optional[float]:
        if deadline is None:
            return base_config.timeout
        return max(0.0, deadline - time.monotonic())

    level_spec = effective_level_spec()
    specs = [
        WorkerSpec(
            problem=problem,
            worker_index=index,
            base_config=base_config,
            optimize=optimize,
            crash_cubes=tuple((crash_cubes or {}).get(index, ())),
            stall_cubes=tuple((stall_cubes or {}).get(index, ())),
            stall_dir=stall_dir,
            telemetry=(
                telemetry.worker_config(
                    f"p{index}", label=f"portfolio-{index}"
                )
                if telemetry is not None
                else None
            ),
            log_level=level_spec,
        )
        for index in range(jobs)
    ]
    live: Dict[int, WorkerProcess] = {
        worker.index: worker for worker in start_workers(specs, "portfolio")
    }
    ledger = CubeLedger(len(cubes), root_index)

    def assign(worker: WorkerProcess) -> None:
        index = ledger.next_cube(worker.index)
        if index is not None:
            worker.send(
                ("cube", index, cubes[index].assumptions, remaining())
            )

    def drop_worker(worker: WorkerProcess, reason: str) -> None:
        live.pop(worker.index, None)
        worker.conn.close()
        procs.terminate_then_kill(worker.process, _STOP_GRACE)
        lost = ledger.release(worker.index)
        if lost is not None:
            raise PortfolioError(
                f"cube {lost} lost to repeated worker crashes ({reason})"
            )
        if not live and ledger.verdict() is None:
            raise PortfolioError(
                f"all portfolio workers died ({reason})"
            )

    def handle(worker: WorkerProcess, message) -> None:
        kind = message[0]
        if kind == "ready":
            assign(worker)
        elif kind == "clauses":
            for peer in live.values():
                if peer is not worker:
                    peer.send(("clauses", message[2]))
        elif kind == "result":
            _, w_index, cube_index, status, model, stats, totals = message
            outcome = CubeOutcome(cube_index, status, model, stats, w_index)
            # Duplicate holders grinding on the decided cube free up for
            # the next assignment.  A cancel that crosses the peer's own
            # result on the pipe is dropped as stale by the worker.
            for holder in ledger.record(worker.index, outcome, totals):
                live[holder].send(("cancel", cube_index))
            assign(worker)
        elif kind == "fatal":
            drop_worker(worker, f"worker {worker.index}: {message[2]}")
        else:  # pragma: no cover - protocol guard
            raise PortfolioError(f"unexpected message {kind!r}")

    note = ""
    try:
        while True:
            status = ledger.verdict()
            if status is not None:
                break
            if deadline is not None and time.monotonic() > deadline:
                status = "unknown"
                note = f"portfolio timeout after {timeout:.1f}s"
                break
            if not live:
                raise PortfolioError("all portfolio workers died")
            conns = {w.conn: w for w in live.values()}
            ready = connection_wait(
                list(conns), timeout=_POLL_INTERVAL
            )
            if not ready:
                for worker in list(live.values()):
                    if not worker.process.is_alive():
                        drop_worker(
                            worker,
                            f"worker {worker.index} died "
                            f"(exit {worker.process.exitcode})",
                        )
                continue
            for conn in ready:
                worker = conns[conn]
                if worker.index not in live:
                    continue  # dropped earlier this round
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    drop_worker(
                        worker,
                        f"worker {worker.index} pipe closed "
                        f"(exit {worker.process.exitcode})",
                    )
                    continue
                handle(worker, message)
    finally:
        stop_workers(live.values())
    return ledger.result(status, note)
