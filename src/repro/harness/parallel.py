"""Crash-isolated parallel worker pool for harness runs.

Every experiment surface (tables, scaling, ablation, the differential
test) executes ``(engine, instance, config)`` tasks.  This module runs
such tasks across worker *processes* (started by
:func:`repro.procs.context`) so that

* a worker that overruns its **hard wall-clock deadline** is killed and
  recorded as a timeout (``-to-``) instead of hanging the harness,
* a worker that **dies** — unhandled exception, ``os._exit``, OOM kill,
  recursion blowup — yields an abort outcome (``-A-``) carrying the
  exit reason instead of crashing the whole run, and
* a crashed worker gets **one bounded retry** after a short backoff
  (transient failures recover; deterministic ones fail twice and are
  reported once).

Results are merged in deterministic task order, so a parallel run's
output is identical to the sequential run's, cell for cell (wall times
aside).  ``jobs=1`` bypasses multiprocessing entirely and runs tasks
inline — the historical sequential path.  Every task runs to its end
or its hard deadline; nothing cancels it early.  Solves that race on
one query belong to the cube portfolio (:mod:`repro.portfolio`).

The hard deadline is a *backstop*, not the primary timeout: engines
honour their cooperative ``timeout=`` budget themselves (and return a
clean ``-to-`` record with counters), so the kill only fires for a
worker whose cooperative deadline failed — the derived hard deadline
leaves the cooperative one a 2x + grace head start.

Observability under concurrency: :func:`run_engine_tasks` takes a
:class:`~repro.obs.telemetry.TelemetryHub`, and every task then writes
its own shard into the hub's directory (trace, metrics snapshot, log
file and, if it dies, a flight-recorder dump), never a shared
descriptor; the hub merges the shards into one timeline afterwards.

``__main__`` caveat: worker processes re-import the parent's
``__main__``, so ``jobs > 1`` requires an importable main module — a
real script file (with the usual ``if __name__ == "__main__"`` guard)
or ``python -m``.  Driving the pool from stdin or a bare REPL makes
every worker die on re-import; the pool degrades gracefully (``-A-``
records, no hang) but nothing runs in parallel.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import procs
from repro.harness.runner import RunRecord, run_engine

logger = logging.getLogger(__name__)

#: Hard deadline = cooperative timeout * factor + grace.  The slack is
#: deliberately generous: the kill is for *stuck* workers, and a worker
#: killed mid-solve loses its counters, which parallel/sequential
#: byte-identity wants to keep rare.
HARD_TIMEOUT_FACTOR = 2.0
HARD_TIMEOUT_GRACE = 5.0

#: Seconds before a crashed task's single retry is launched.
RETRY_BACKOFF = 0.25

#: Scheduler poll interval while workers are running.
_POLL_INTERVAL = 0.05


@dataclass(frozen=True)
class Task:
    """One unit of pool work: a picklable call returning a result.

    ``fn`` must be an importable module-level callable (workers
    unpickle it by reference).  ``timeout`` is the *cooperative*
    budget the callee itself honours; the pool derives the hard kill
    deadline from it unless ``hard_timeout`` overrides it.
    """

    fn: Callable[..., Any]
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    timeout: Optional[float] = None
    hard_timeout: Optional[float] = None
    label: str = ""

    def hard_deadline_seconds(self) -> Optional[float]:
        if self.hard_timeout is not None:
            return self.hard_timeout
        if self.timeout is not None:
            return self.timeout * HARD_TIMEOUT_FACTOR + HARD_TIMEOUT_GRACE
        return None


@dataclass
class TaskOutcome:
    """What happened to one task, in submission order."""

    index: int
    label: str
    ok: bool
    value: Any = None
    #: Human-readable failure ("ValueError: ...", "exitcode 7",
    #: "signal 9", "hard timeout: killed after 12.0s").
    error: str = ""
    #: True when the pool killed the worker at the hard deadline.
    timed_out: bool = False
    #: Launch attempts consumed (2 = the single retry was used).
    attempts: int = 1
    seconds: float = 0.0


def _child_main(conn, fn, args, kwargs) -> None:
    """Worker process entry point: run the task, ship the outcome."""
    try:
        value = fn(*args, **kwargs)
        payload = ("ok", value)
    except BaseException as error:  # report, never crash silently
        payload = ("error", f"{type(error).__name__}: {error}")
    try:
        conn.send(payload)
    except Exception as error:  # unpicklable value / broken pipe
        try:
            conn.send(("error", f"result transport failed: {error}"))
        except Exception:
            pass
    finally:
        conn.close()


class _Running:
    """Bookkeeping for one live worker process."""

    __slots__ = ("task", "index", "process", "conn", "started", "attempt")

    def __init__(self, task, index, process, conn, attempt):
        self.task = task
        self.index = index
        self.process = process
        self.conn = conn
        self.started = time.monotonic()
        self.attempt = attempt

    def label_for_log(self) -> str:
        return self.task.label or self.task.fn.__name__


def _run_inline(tasks: Sequence[Task]) -> List[TaskOutcome]:
    """jobs=1: the historical sequential path, no subprocesses.

    Hard timeouts cannot be enforced inline (there is nothing to kill);
    the cooperative ``timeout`` each engine honours is the only budget,
    exactly as before this module existed.
    """
    outcomes: List[TaskOutcome] = []
    for index, task in enumerate(tasks):
        start = time.monotonic()
        try:
            value = task.fn(*task.args, **task.kwargs)
            outcome = TaskOutcome(
                index=index, label=task.label, ok=True, value=value
            )
        except Exception as error:
            outcome = TaskOutcome(
                index=index,
                label=task.label,
                ok=False,
                error=f"{type(error).__name__}: {error}",
            )
        outcome.seconds = time.monotonic() - start
        outcomes.append(outcome)
    return outcomes


def run_tasks(tasks: Sequence[Task], jobs: int = 1) -> List[TaskOutcome]:
    """Run tasks with up to ``jobs`` concurrent worker processes.

    Returns one :class:`TaskOutcome` per task **in submission order**
    regardless of completion order.  ``jobs <= 1`` runs inline.
    """
    tasks = list(tasks)
    if jobs <= 1 or not tasks:
        return _run_inline(tasks)

    ctx = procs.context()
    outcomes: Dict[int, TaskOutcome] = {}
    #: (index, task, attempt, not_before) — crashed tasks awaiting retry.
    retries: List[Tuple[int, Task, int, float]] = []
    pending: List[Tuple[int, Task]] = list(enumerate(tasks))
    pending.reverse()  # pop() from the end keeps submission order
    running: List[_Running] = []

    def launch(index: int, task: Task, attempt: int) -> None:
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_child_main,
            args=(send_conn, task.fn, task.args, task.kwargs),
            daemon=True,
        )
        process.start()
        send_conn.close()  # child holds the write end now
        running.append(_Running(task, index, process, recv_conn, attempt))
        logger.debug(
            "pool launch: task %d (%s) attempt %d pid %d",
            index, task.label or task.fn.__name__, attempt, process.pid,
        )

    def finish_crash(entry: _Running, reason: str) -> None:
        if entry.attempt == 1:
            retries.append(
                (
                    entry.index,
                    entry.task,
                    entry.attempt + 1,
                    time.monotonic() + RETRY_BACKOFF * entry.attempt,
                )
            )
            logger.warning(
                "pool worker crashed (%s), retrying task %d (%s)",
                reason, entry.index, entry.label_for_log(),
            )
            return
        outcomes[entry.index] = TaskOutcome(
            index=entry.index,
            label=entry.task.label,
            ok=False,
            error=reason,
            attempts=entry.attempt,
            seconds=time.monotonic() - entry.started,
        )
        logger.warning(
            "pool worker crashed twice (%s), recording abort for task %d",
            reason, entry.index,
        )

    try:
        while pending or retries or running:
            # Start retries whose backoff has elapsed, then fresh tasks.
            now = time.monotonic()
            ready_retries = [r for r in retries if r[3] <= now]
            for entry in ready_retries:
                if len(running) >= jobs:
                    break
                retries.remove(entry)
                launch(entry[0], entry[1], entry[2])
            while pending and len(running) < jobs:
                index, task = pending.pop()
                launch(index, task, attempt=1)
            if not running:
                if retries:  # every slot idle, waiting out a backoff
                    time.sleep(
                        max(0.0, min(r[3] for r in retries) - time.monotonic())
                    )
                continue

            ready = connection_wait(
                [entry.conn for entry in running], timeout=_POLL_INTERVAL
            )
            completed: List[_Running] = []
            for entry in running:
                if entry.conn not in ready:
                    continue
                try:
                    kind, payload = entry.conn.recv()
                except (EOFError, OSError):
                    # Pipe closed with no result: the process died.
                    entry.process.join()
                    code = entry.process.exitcode
                    reason = (
                        f"signal {-code}" if code is not None and code < 0
                        else f"exitcode {code}"
                    )
                    finish_crash(entry, reason)
                else:
                    entry.process.join()
                    if kind == "ok":
                        outcomes[entry.index] = TaskOutcome(
                            index=entry.index,
                            label=entry.task.label,
                            ok=True,
                            value=payload,
                            attempts=entry.attempt,
                            seconds=time.monotonic() - entry.started,
                        )
                    else:
                        finish_crash(entry, payload)
                entry.conn.close()
                completed.append(entry)
            for entry in completed:
                running.remove(entry)

            # Hard-deadline enforcement: kill overrunning workers.
            now = time.monotonic()
            overran: List[_Running] = []
            for entry in running:
                limit = entry.task.hard_deadline_seconds()
                if limit is not None and now - entry.started > limit:
                    overran.append(entry)
            for entry in overran:
                # SIGTERM first: a postmortem flight dump is worth one
                # second of patience.
                procs.terminate_then_kill(entry.process)
                entry.conn.close()
                running.remove(entry)
                elapsed = time.monotonic() - entry.started
                outcomes[entry.index] = TaskOutcome(
                    index=entry.index,
                    label=entry.task.label,
                    ok=False,
                    error=f"hard timeout: killed after {elapsed:.1f}s",
                    timed_out=True,
                    attempts=entry.attempt,
                    seconds=elapsed,
                )
                logger.warning(
                    "pool killed task %d after %.1fs (hard deadline %.1fs)",
                    entry.index, elapsed, entry.task.hard_deadline_seconds(),
                )
    finally:
        for entry in running:  # interrupted: leave no orphans behind
            entry.process.kill()
            entry.process.join()
            entry.conn.close()

    return [outcomes[index] for index in range(len(tasks))]


# ----------------------------------------------------------------------
# Engine-task layer: (engine, instance, config) -> RunRecord
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineTask:
    """One ``run_engine`` call, fully described by picklable fields.

    The worker rebuilds the instance from ``(case, bound)`` via the
    ITC99 registry rather than shipping a pickled circuit, so worker
    startup stays cheap and the task description stays tiny.
    """

    case: str
    bound: int
    engine: str
    timeout: Optional[float] = None
    learning_threshold: Optional[int] = None
    #: Log level for the worker; ``None`` inherits the parent's
    #: configured level (the log-config inheritance fix).  A task with
    #: a telemetry shard logs to the shard's log file ("info" when no
    #: level is set), any other task to its stderr.
    log_level: Optional[str] = None
    #: Cross-process telemetry shard config (minted by a TelemetryHub):
    #: the task's trace, metrics snapshot, log file and flight ring.
    telemetry: Optional["TelemetryConfig"] = None
    #: Explicit hard kill deadline override (tests/CI).
    hard_timeout: Optional[float] = None
    #: Deliberate failure injection (tests/CI only): "abort" raises
    #: inside the worker, "hang" sleeps past the hard deadline.
    inject_crash: str = ""


def _engine_worker(task: EngineTask) -> RunRecord:
    """Worker body: solve one instance, in its telemetry shard if any."""
    from repro.intervals import reset_interval_cache

    # Cold interning cache per task: a worker process starts cold, so
    # the inline path must too or cache-hit-rate stats would depend on
    # execution mode and task order.
    reset_interval_cache()
    if task.telemetry is None:
        if task.log_level:
            from repro.obs import configure_logging

            configure_logging(task.log_level)
        return _solve_task(task)
    from repro.obs.telemetry import WorkerTelemetry

    telemetry = WorkerTelemetry(task.telemetry)
    telemetry.install_signal_dump()
    telemetry.capture_log(task.log_level or "info")
    label = f"{task.case}({task.bound})/{task.engine}"
    start = time.perf_counter()
    telemetry.task_begin(label)
    try:
        record = _solve_task(task, telemetry.observation())
    except BaseException as error:
        logger.exception("task %s crashed", label)
        telemetry.task_end(label, "crash", time.perf_counter() - start)
        telemetry.dump_flight(f"{type(error).__name__}: {error}")
        telemetry.close()
        raise
    telemetry.task_end(label, record.status, time.perf_counter() - start)
    telemetry.record_metrics(
        {
            name: value
            for name, value in dataclasses.asdict(record).items()
            if name != "bound"
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
        }
    )
    telemetry.close()
    return record


def _solve_task(task: EngineTask, observation=None) -> RunRecord:
    """Build the task's instance and run its engine (or its injected
    failure)."""
    from repro.itc99 import instance

    if task.inject_crash == "abort":
        raise RuntimeError("injected crash (inject_crash='abort')")
    if task.inject_crash == "hang":
        time.sleep(3600.0)
    return run_engine(
        instance(task.case, task.bound),
        task.engine,
        task.timeout,
        learning_threshold=task.learning_threshold,
        observation=observation,
    )


def outcome_to_record(
    outcome: TaskOutcome, case: str, bound: int, engine: str
) -> RunRecord:
    """An ``-A-``/``-to-`` :class:`RunRecord` for a failed outcome."""
    return RunRecord(
        case=case,
        bound=bound,
        engine=engine,
        status="-to-" if outcome.timed_out else "-A-",
        seconds=outcome.seconds,
        note=outcome.error,
    )


def run_engine_tasks(
    specs: Sequence[EngineTask],
    jobs: int = 1,
    telemetry: Optional["TelemetryHub"] = None,
) -> List[RunRecord]:
    """Run engine tasks (parallel when ``jobs > 1``) into RunRecords.

    Crashed workers become ``-A-`` records carrying the exit reason;
    hard-killed workers become ``-to-`` records.

    ``telemetry`` (a :class:`~repro.obs.telemetry.TelemetryHub`) gives
    every task a per-worker shard in the hub's directory: trace,
    resource samples, flight ring, metrics snapshot and log file
    (``worker-<id>.log``), clock-aligned to the hub's epoch (the caller
    merges afterwards).  A worker that dies leaves a flight-recorder
    dump there, whose path is appended to the failed record's note.
    """
    from repro.obs import effective_level_spec

    specs = list(specs)
    # Log-config inheritance: workers start from an unconfigured
    # interpreter and never see the parent's --log-level/REPRO_LOG;
    # ship the effective spec into every task that does not pin its own.
    level_spec = effective_level_spec()
    if level_spec:
        specs = [
            dataclasses.replace(spec, log_level=level_spec)
            if spec.log_level is None
            else spec
            for spec in specs
        ]
    if telemetry is not None:
        specs = [
            dataclasses.replace(
                spec,
                telemetry=telemetry.worker_config(
                    f"t{index:04d}",
                    label=f"{spec.case}({spec.bound})/{spec.engine}",
                ),
            )
            for index, spec in enumerate(specs)
        ]
    tasks = [
        Task(
            fn=_engine_worker,
            args=(spec,),
            timeout=spec.timeout,
            hard_timeout=spec.hard_timeout,
            label=f"{spec.case}({spec.bound})/{spec.engine}",
        )
        for spec in specs
    ]
    outcomes = run_tasks(tasks, jobs=jobs)
    records: List[RunRecord] = []
    for spec, outcome in zip(specs, outcomes):
        if outcome.ok:
            records.append(outcome.value)
            continue
        record = outcome_to_record(
            outcome, spec.case, spec.bound, spec.engine
        )
        if spec.telemetry is not None and spec.telemetry.flight_path.exists():
            note = record.note or ""
            record = dataclasses.replace(
                record,
                note=(note + "; " if note else "")
                + f"flight recorder dump: {spec.telemetry.flight_path}",
            )
        records.append(record)
    return records

