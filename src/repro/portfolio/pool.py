"""Portfolio workers: one supervisor, driven by the local cube pool.

:class:`WorkerPool` is the parent side of the worker pipe protocol
(:mod:`repro.portfolio.worker`).  It starts the workers from the
preloaded fork server (:mod:`repro.procs`), relays each exported clause
batch to the local peers, sends cube-scoped cancels, turns a closed
pipe, a dead process or a ``fatal`` message into one :class:`Lost`
event carrying the cube the worker held, and stops the workers.  Two
drivers feed it cubes: :func:`run_pool` from an in-process
:class:`~repro.portfolio.ledger.CubeLedger` whose holders are worker
indices (the ledger states the cube contract; losing the same cube
twice, or every worker, raises :class:`PortfolioError`), and
:func:`repro.dist.worker.run_worker_host` from a cube hub.
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait as connection_wait
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
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

#: Seconds one :meth:`WorkerPool.poll` waits for a message before
#: sweeping for silently-died workers.
_POLL_INTERVAL = 0.05
#: Seconds workers get to exit after a cooperative stop before being
#: terminated.
_STOP_GRACE = 1.0


class PortfolioError(SolverError):
    """Unrecoverable portfolio failure (crashed cubes, dead pool)."""


class Finished(NamedTuple):
    """A worker decided a cube and is idle again."""

    worker: int
    outcome: CubeOutcome
    totals: Dict[str, int]


class Exported(NamedTuple):
    """A worker exported a clause batch (already sent to its peers)."""

    worker: int
    batch: list


class Lost(NamedTuple):
    """A worker is gone, with the cube it held (or None)."""

    worker: int
    cube: Optional[int]
    reason: str


Event = Union[Finished, Exported, Lost]


class _Worker:
    __slots__ = ("index", "process", "conn", "listening", "idle", "cube")

    def __init__(self, index: int, process, conn):
        self.index = index  # as in its WorkerSpec
        self.process = process
        self.conn = conn
        #: Reported ready, so it reads its pipe.
        self.listening = False
        self.idle = False
        #: The cube it is solving (None when idle or cancelled).
        self.cube: Optional[int] = None

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # worker death surfaces via its pipe on the next poll


class WorkerPool:
    """The started workers of one query; leaving the ``with`` block
    stops them."""

    def __init__(self, specs: Sequence[WorkerSpec], name: str):
        """Start one worker per spec, named ``{name}-{worker_index}``."""
        context = procs.context()
        #: Live workers by worker index.
        self.live: Dict[int, _Worker] = {}
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
            self.live[spec.worker_index] = _Worker(
                spec.worker_index, process, parent_conn
            )

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def idle(self) -> List[int]:
        """Indices of the live workers waiting for a cube."""
        return [worker.index for worker in self.live.values() if worker.idle]

    def assign(
        self,
        worker: int,
        cube: int,
        assumptions: Sequence[Tuple[str, int, int]],
        timeout: Optional[float],
    ) -> None:
        target = self.live[worker]
        target.idle, target.cube = False, cube
        target.send(("cube", cube, assumptions, timeout))

    def cancel(self, cube: int) -> None:
        """Tell every worker solving the decided ``cube`` to abandon it;
        it turns idle once it reports ready."""
        for worker in self.live.values():
            if worker.cube == cube:
                worker.cube = None
                worker.send(("cancel", cube))

    def share(self, batch, source: Optional[int] = None) -> None:
        """Send a clause payload batch to every live worker but
        ``source``."""
        for worker in self.live.values():
            if worker.index != source:
                worker.send(("clauses", batch))

    def poll(self, wake=None) -> List[Event]:
        """Wait up to ``_POLL_INTERVAL`` seconds for worker messages, or
        until ``wake`` (an object with a ``fileno``) turns readable;
        return what the worker messages mean to the driver."""
        by_conn = {worker.conn: worker for worker in self.live.values()}
        waitables = list(by_conn) + ([wake] if wake is not None else [])
        ready = connection_wait(waitables, timeout=_POLL_INTERVAL)
        if not ready:
            return [
                self._lose(worker, "died")
                for worker in list(self.live.values())
                if not worker.process.is_alive()
            ]
        events: List[Event] = []
        for conn in ready:
            worker = by_conn.get(conn)
            if worker is None or worker.index not in self.live:
                continue  # ``wake``, or lost earlier this round
            try:
                message = conn.recv()
            except (EOFError, OSError):
                events.append(self._lose(worker, "pipe closed"))
                continue
            kind = message[0]
            if kind == "ready":
                worker.listening = worker.idle = True
            elif kind == "clauses":
                self.share(message[2], source=worker.index)
                events.append(Exported(worker.index, message[2]))
            elif kind == "result":
                _, _, cube, status, model, stats, totals = message
                worker.idle, worker.cube = True, None
                outcome = CubeOutcome(cube, status, model, stats, worker.index)
                events.append(Finished(worker.index, outcome, totals))
            elif kind == "fatal":
                events.append(self._lose(worker, f"failed: {message[2]}"))
            else:  # pragma: no cover - protocol guard
                raise PortfolioError(f"unexpected message {kind!r}")
        return events

    def _lose(self, worker: _Worker, what: str) -> Lost:
        del self.live[worker.index]
        worker.conn.close()
        procs.terminate_then_kill(worker.process)
        return Lost(
            worker.index,
            worker.cube,
            f"worker {worker.index} {what} (exit {worker.process.exitcode})",
        )

    def stop(self) -> None:
        """Send every live worker ``("stop",)``.  Those that reported
        ready get one shared stop grace to exit; the others cannot hear
        it (they are still setting up) and get SIGTERM at once.  Reap
        them all and close the pipes."""
        # Those that cannot hear the stop first: no wait delays them.
        workers = sorted(self.live.values(), key=lambda w: w.listening)
        self.live = {}
        for worker in workers:
            worker.send(("stop",))
        stop_deadline = time.monotonic() + _STOP_GRACE
        for worker in workers:
            wait = max(0.0, stop_deadline - time.monotonic())
            procs.terminate_then_kill(
                worker.process, wait=wait if worker.listening else 0.0
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
    ledger = CubeLedger(len(cubes), root_index)
    note = ""
    with WorkerPool(specs, "portfolio") as workers:
        while True:
            status = ledger.verdict()
            if status is not None:
                break
            if deadline is not None and time.monotonic() > deadline:
                status = "unknown"
                note = f"portfolio timeout after {timeout:.1f}s"
                break
            for worker in workers.idle():
                index = ledger.next_cube(worker)
                if index is not None:
                    workers.assign(
                        worker, index, cubes[index].assumptions, remaining()
                    )
            for event in workers.poll():
                if isinstance(event, Finished):
                    # Duplicate holders grinding on the decided cube free
                    # up for the next assignment; the cube-scoped cancel
                    # reaches exactly the holders the ledger returns.  A
                    # cancel that crosses the peer's own result on the
                    # pipe is dropped as stale by the worker.
                    holders = ledger.record(
                        event.worker, event.outcome, event.totals
                    )
                    if holders:
                        workers.cancel(event.outcome.index)
                elif isinstance(event, Lost):
                    lost = ledger.release(event.worker)
                    if lost is not None:
                        raise PortfolioError(
                            f"cube {lost} lost to repeated worker crashes "
                            f"({event.reason})"
                        )
                    if not workers.live and ledger.verdict() is None:
                        raise PortfolioError(
                            f"all portfolio workers died ({event.reason})"
                        )
    return ledger.result(status, note)
