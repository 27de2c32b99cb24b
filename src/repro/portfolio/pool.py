"""Portfolio master: schedule cubes, relay clauses, survive crashes.

The master owns N worker processes (duplex pipe each, started from the
preloaded fork server in :mod:`repro.procs`) and a cube list.
Cube index 0 is conventionally the *root cube* — the whole problem
with no splitting assumptions — so the portfolio degenerates gracefully
into a pure diversified race when splitting buys nothing: the first of
{root solved, all split cubes solved} decides.

Scheduling is pull-based: a worker that reports ready (or finishes a
cube) gets the next pending cube; once the queue drains, idle workers
are handed *duplicates* of in-flight cubes (fewest current assignees
first) — on a loaded machine the diversified duplicate often finishes
first, and late results for already-decided cubes are simply dropped.

Result semantics (the issue's contract):

* first SAT anywhere wins and cancels every other worker,
* UNSAT requires the root cube UNSAT *or* every split cube UNSAT,
* anything else (timeouts, budget exhaustion) is UNKNOWN,
* a worker crash requeues its cube once; losing the same cube twice —
  or losing every worker — raises :class:`PortfolioError`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro import procs
from repro.core.config import SolverConfig
from repro.errors import SolverError
from repro.obs import effective_level_spec
from repro.portfolio.cubes import Cube
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


@dataclass
class CubeOutcome:
    """First accepted verdict for one cube."""

    index: int
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Dict[str, int]]
    stats: Dict[str, object]
    worker: int


@dataclass
class PoolResult:
    """Everything the master learned, for the caller to interpret."""

    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Dict[str, int]] = None
    winning_cube: Optional[int] = None
    winning_worker: Optional[int] = None
    outcomes: Dict[int, CubeOutcome] = field(default_factory=dict)
    #: Sum over workers of their exporter/importer totals.
    share_totals: Dict[str, int] = field(default_factory=dict)
    requeues: int = 0
    note: str = ""


class _Worker:
    __slots__ = ("index", "process", "conn", "assigned")

    def __init__(self, index, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        #: Cube indices currently assigned to this worker.
        self.assigned: Set[int] = set()


def run_pool(
    problem: ProblemSpec,
    cubes: Sequence[Cube],
    jobs: int,
    base_config: SolverConfig,
    timeout: Optional[float] = None,
    optimize: bool = False,
    root_index: Optional[int] = 0,
    share: bool = True,
    share_max_size: Optional[int] = None,
    share_max_lbd: Optional[int] = None,
    crash_cubes: Optional[Dict[int, Tuple[int, ...]]] = None,
    stall_cubes: Optional[Dict[int, Tuple[int, ...]]] = None,
    stall_dir: Optional[str] = None,
    telemetry: Optional["TelemetryHub"] = None,
) -> PoolResult:
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

    context = procs.context()
    workers: List[_Worker] = []
    share_kwargs = {}
    if share_max_size is not None:
        share_kwargs["share_max_size"] = share_max_size
    if share_max_lbd is not None:
        share_kwargs["share_max_lbd"] = share_max_lbd
    level_spec = effective_level_spec()
    for index in range(jobs):
        parent_conn, child_conn = context.Pipe(duplex=True)
        spec = WorkerSpec(
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
            **share_kwargs,
        )
        process = context.Process(
            target=portfolio_worker,
            args=(child_conn, spec),
            daemon=True,
            name=f"portfolio-{index}",
        )
        process.start()
        child_conn.close()
        workers.append(_Worker(index, process, parent_conn))

    live: Dict[int, _Worker] = {w.index: w for w in workers}
    pending: List[int] = list(range(len(cubes)))
    done: Dict[int, CubeOutcome] = {}
    retries: Dict[int, int] = {}
    totals: Dict[int, Dict[str, int]] = {}
    result = PoolResult(status="unknown")

    def split_indices() -> List[int]:
        return [i for i in range(len(cubes)) if i != root_index]

    def verdict() -> Optional[str]:
        for outcome in done.values():
            if outcome.status == "sat":
                return "sat"
        if root_index is not None:
            root = done.get(root_index)
            if root is not None and root.status == "unsat":
                return "unsat"
        splits = split_indices()
        if splits and all(i in done for i in splits):
            if all(done[i].status == "unsat" for i in splits):
                return "unsat"
        if len(done) == len(cubes):
            return "unknown"
        return None

    def assign(worker: _Worker) -> None:
        if pending:
            index = pending.pop(0)
        else:
            # Queue drained: duplicate the least-covered in-flight cube.
            candidates = [
                i
                for i in range(len(cubes))
                if i not in done and i not in worker.assigned
            ]
            if not candidates:
                return  # genuinely nothing left for this worker
            index = min(
                candidates,
                key=lambda i: (
                    sum(1 for w in live.values() if i in w.assigned),
                    i,
                ),
            )
        worker.assigned.add(index)
        worker.conn.send(
            ("cube", index, cubes[index].assumptions, remaining())
        )

    def drop_worker(worker: _Worker, reason: str) -> None:
        live.pop(worker.index, None)
        try:
            worker.conn.close()
        except Exception:
            pass
        procs.terminate_then_kill(worker.process, _STOP_GRACE)
        for index in sorted(worker.assigned):
            if index in done:
                continue
            still_held = any(
                index in w.assigned for w in live.values()
            )
            if still_held:
                continue
            if retries.get(index, 0) >= 1:
                raise PortfolioError(
                    f"cube {index} lost to repeated worker crashes "
                    f"({reason})"
                )
            retries[index] = retries.get(index, 0) + 1
            result.requeues += 1
            pending.insert(0, index)
        if not live and (pending or len(done) < len(cubes)):
            raise PortfolioError(
                f"all portfolio workers died ({reason})"
            )

    def handle(worker: _Worker, message) -> None:
        kind = message[0]
        if kind == "ready":
            assign(worker)
        elif kind == "clauses":
            if share:
                for peer in live.values():
                    if peer.index != worker.index:
                        try:
                            peer.conn.send(("clauses", message[2]))
                        except (BrokenPipeError, OSError):
                            pass  # peer death surfaces via its pipe
        elif kind == "result":
            _, w_index, cube_index, status, model, stats, w_totals = (
                message
            )
            totals[w_index] = w_totals
            worker.assigned.discard(cube_index)
            if cube_index not in done:
                done[cube_index] = CubeOutcome(
                    index=cube_index,
                    status=status,
                    model=model,
                    stats=stats,
                    worker=w_index,
                )
                # The cube is decided: duplicate holders grinding on it
                # are cancelled (cube-scoped, the worker survives) so
                # they free up for the next assignment.  A cancel that
                # crosses the peer's own result on the pipe is dropped
                # as stale by the worker.
                for peer in live.values():
                    if (
                        peer.index != worker.index
                        and cube_index in peer.assigned
                    ):
                        peer.assigned.discard(cube_index)
                        try:
                            peer.conn.send(("cancel", cube_index))
                        except (BrokenPipeError, OSError):
                            pass  # peer death surfaces via its pipe
            assign(worker)
        elif kind == "fatal":
            drop_worker(worker, f"worker {worker.index}: {message[2]}")
        else:  # pragma: no cover - protocol guard
            raise PortfolioError(f"unexpected message {kind!r}")

    try:
        while True:
            settled = verdict()
            if settled is not None:
                result.status = settled
                break
            if deadline is not None and time.monotonic() > deadline:
                result.status = "unknown"
                result.note = f"portfolio timeout after {timeout:.1f}s"
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
        for worker in live.values():
            try:
                worker.conn.send(("stop",))
            except Exception:
                pass
        stop_deadline = time.monotonic() + _STOP_GRACE
        for worker in live.values():
            procs.terminate_then_kill(
                worker.process,
                _STOP_GRACE,
                wait=max(0.0, stop_deadline - time.monotonic()),
            )
            try:
                worker.conn.close()
            except Exception:
                pass

    for outcome in done.values():
        if outcome.status == "sat":
            result.model = outcome.model
            result.winning_cube = outcome.index
            result.winning_worker = outcome.worker
            break
    result.outcomes = done
    result.share_totals = {
        key: sum(t.get(key, 0) for t in totals.values())
        for key in ("exported", "suppressed", "received", "installed")
    }
    return result
