"""Portfolio worker process: one diversified session, many cubes.

Workers never receive a circuit over the pipe — unrolled circuits are
deeply recursive object graphs that pickle badly — they receive a tiny
:class:`ProblemSpec` and rebuild the problem from the ITC99 registry
(exactly like the crash-isolated task pool in
:mod:`repro.harness.parallel`).  Each worker owns one persistent
:class:`~repro.core.hdpll.HdpllSolver` configured by the
diversification rotation, solves cube after cube against it (cube
assumptions ride on the session's retractable assumption levels, so
learned clauses survive from cube to cube), and exchanges learned
clauses with its peers through the master over its duplex pipe.

Wire protocol (all tuples, first element is the kind):

master -> worker   ("cube", index, assumptions, timeout)
                   ("clauses", payload_batch)
                   ("cancel", cube_index)
                   ("stop",)
worker -> master   ("ready", worker_index)
                   ("clauses", worker_index, payload_batch)
                   ("result", worker_index, cube_index, status,
                    model, stats, share_totals)
                   ("fatal", worker_index, message)

``stop`` is honoured *mid-solve*: the share hook the solver polls every
few search iterations, and throughout an FME leaf check, also drains
the pipe, and raises :class:`WorkerStopped` when a stop arrives —
unwinding cleanly through the solver (whose persistent mode backtracks
in a ``finally``).

``cancel`` is the cube-scoped variant: the master sends it when another
worker already decided the named cube, so a duplicate holder abandons
*that cube only* (raising :class:`CubeCancelled` if it is the one being
solved), reports ready, and lives on for the next assignment.  A cancel
naming any other cube is stale — the worker already finished it and the
result crossed the cancel on the pipe — and is dropped silently.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.config import SolverConfig
from repro.core.hdpll import HdpllSolver
from repro.intervals import Interval, reset_interval_cache
from repro.portfolio.diversify import worker_config
from repro.portfolio.share import (
    ClauseExporter,
    ClauseImporter,
    payload_digest,
)
from repro.rtl.circuit import Circuit

if TYPE_CHECKING:
    from repro.obs.telemetry import TelemetryConfig, WorkerTelemetry

#: How often (in share-hook polls, i.e. search-loop iterations) a
#: worker checks its pipe for stop/clauses messages.  Power of two; the
#: check is a cheap ``Connection.poll(0)`` but not free.
POLL_STRIDE = 16


class WorkerStopped(BaseException):
    """Raised inside the search loop when the master cancels a worker.

    Deliberately a ``BaseException``: broad ``except Exception`` result
    handling (e.g. the harness runner's abort guard) must not swallow a
    cancellation.
    """


class CubeCancelled(WorkerStopped):
    """Cube-scoped cancellation: abandon the current cube, keep living.

    Subclasses :class:`WorkerStopped` so the solver unwinds identically
    (persistent mode backtracks to level 0 in a ``finally``), but the
    worker loop catches it before the process-level handler does and
    goes back to the master for the next cube.
    """

    def __init__(self, cube_index: int):
        super().__init__(f"cube {cube_index} cancelled")
        self.cube_index = cube_index


@dataclass(frozen=True)
class ProblemSpec:
    """Picklable recipe for rebuilding a problem in a worker.

    ``kind`` selects the construction:

    * ``"instance"`` — the registry BMC instance ``case`` at ``bound``,
    * ``"base"``     — the k-induction base case at depth ``bound``,
    * ``"step"``     — the k-induction inductive step at depth ``bound``.
    """

    kind: str
    case: str
    bound: int


def build_problem(spec: ProblemSpec) -> Tuple[Circuit, Dict[str, int]]:
    """(circuit, base assumptions) for a problem spec."""
    if spec.kind == "instance":
        from repro.itc99 import instance

        built = instance(spec.case, spec.bound)
        return built.circuit, dict(built.assumptions)

    from repro.bmc.property import make_bmc_instance
    from repro.bmc.unroll import frame_name, unroll_free_initial
    from repro.itc99 import CIRCUITS, circuit as get_circuit

    circuit_name, _, property_name = spec.case.partition("_")
    sequential = get_circuit(circuit_name)
    prop = CIRCUITS[circuit_name][1][property_name]
    if spec.kind == "base":
        built = make_bmc_instance(sequential, prop, spec.bound)
        return built.circuit, dict(built.assumptions)
    if spec.kind == "step":
        k = spec.bound
        step_circuit = unroll_free_initial(sequential, k + 1)
        assumptions: Dict[str, int] = {
            frame_name(prop.ok_signal, frame): 1 for frame in range(k)
        }
        assumptions[frame_name(prop.ok_signal, k)] = 0
        return step_circuit, assumptions
    raise ValueError(f"unknown problem kind {spec.kind!r}")


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one worker process needs, shipped when it starts."""

    problem: ProblemSpec
    worker_index: int
    base_config: SolverConfig
    #: Run ``rtl.optimize`` on the rebuilt circuit before compiling.
    optimize: bool = False
    #: Test hook: hard-exit (simulating a crash) when assigned any of
    #: these cube indices — exercises the master's requeue path.
    crash_cubes: Tuple[int, ...] = ()
    #: Test hook: instead of solving these cubes, block on the pipe
    #: until a matching ``("cancel", index)`` (or ``("stop",)``)
    #: arrives — exercises the master's duplicate-cancellation path.
    #: A received cancel is proven by a marker file in ``stall_dir``.
    stall_cubes: Tuple[int, ...] = ()
    stall_dir: Optional[str] = None
    #: Cross-process telemetry shard config (minted by the master's
    #: TelemetryHub; carries the clock-offset epoch).
    telemetry: Optional["TelemetryConfig"] = None
    #: Log level inherited from the parent (workers start with logging
    #: unconfigured and would otherwise ignore ``--log-level``).
    log_level: Optional[str] = None


class _WorkerChannel:
    """The share hook a worker plugs into its solver.

    ``poll`` (called once per search-loop iteration) drains the pipe
    every :data:`POLL_STRIDE` calls — delivering peer clauses mid-solve
    and honouring mid-solve cancellation — then hands any pending
    imported clauses to the solver.  ``drain`` (called throughout an FME
    leaf check's integer search) drains the pipe alone, so a stop or a
    cancel also ends a long leaf check.
    """

    def __init__(self, conn, exporter: ClauseExporter,
                 importer: ClauseImporter, emitter=None):
        self._conn = conn
        self.exporter = exporter
        self.importer = importer
        #: Optional telemetry emitter: installed shared clauses are
        #: announced as ``share`` events carrying their payload digests,
        #: the importer half of the merged timeline's clause flow.
        self._emitter = emitter
        self._pending = []
        self._tick = 0
        #: Cube index being solved right now (None while idle); a
        #: ``cancel`` only takes effect when it names this cube.
        self.current_cube: Optional[int] = None

    def export(self, clause) -> None:
        self.exporter.export(clause)

    def enqueue(self, payloads) -> None:
        clauses, keys = self.importer.accept_keyed(payloads)
        self._pending.extend(clauses)
        if keys and self._emitter is not None:
            self._emitter.event(
                "share", dl=0, action="install",
                clauses=len(keys), keys=keys,
                lbd=[clause.lbd for clause in clauses],
            )

    def drain(self) -> None:
        while self._conn.poll():
            message = self._conn.recv()
            if message[0] == "stop":
                raise WorkerStopped()
            if message[0] == "clauses":
                self.enqueue(message[1])
            elif message[0] == "cancel":
                # Cube-scoped: only the cube being solved right now can
                # be cancelled; a cancel for any other index is stale
                # (our result crossed it on the pipe) and is dropped.
                if message[1] == self.current_cube:
                    raise CubeCancelled(message[1])
            # "cube" cannot arrive mid-solve: the master assigns one
            # cube at a time and waits for its result.

    def poll(self):
        self._tick += 1
        if self._tick % POLL_STRIDE == 0:
            self.drain()
        if not self._pending:
            return ()
        pending = self._pending
        self._pending = []
        return pending


def _stats_payload(stats) -> Dict[str, object]:
    """Plain-dict snapshot of a query's stats (pipe-friendly)."""
    return stats.as_dict(include_histograms=False)


def _stall_until_cancelled(
    conn, spec: WorkerSpec, cube_index: int, channel: "_WorkerChannel"
) -> bool:
    """Test hook body for ``stall_cubes``: pretend the cube is hard.

    Blocks on the pipe instead of solving, so the cube stays in-flight
    until a peer decides it and the master's ``("cancel", index)``
    arrives.  Returns True (after reporting ready) when cancelled,
    False when a ``stop`` ended the pool; a received cancel is recorded
    as a marker file in ``stall_dir`` for the test to assert on.
    """
    while True:
        message = conn.recv()
        if message[0] == "stop":
            return False
        if message[0] == "clauses":
            channel.enqueue(message[1])
            continue
        if message[0] == "cancel" and message[1] == cube_index:
            if spec.stall_dir:
                marker = os.path.join(
                    spec.stall_dir,
                    f"cancelled-{spec.worker_index}-{cube_index}.txt",
                )
                with open(marker, "w", encoding="utf-8") as handle:
                    handle.write("cancelled\n")
            conn.send(("ready", spec.worker_index))
            return True


def _worker_body(
    conn, spec: WorkerSpec, telemetry: Optional["WorkerTelemetry"] = None
) -> None:
    reset_interval_cache()  # per-process interning state
    if spec.log_level:
        from repro.obs import configure_logging

        configure_logging(spec.log_level)
    circuit, base_assumptions = build_problem(spec.problem)
    if spec.optimize:
        from repro.rtl.optimize import optimize

        circuit = optimize(circuit)
    config = worker_config(spec.base_config, spec.worker_index)
    observation = telemetry.observation() if telemetry is not None else None
    session = HdpllSolver(circuit, config, observation, persistent=True)
    session.learn()

    emitter = telemetry.emitter if telemetry is not None else None

    def send_batch(batch) -> None:
        if emitter is not None:
            # The exporter half of the clause flow: every payload in
            # the batch is named by its cross-process digest so the
            # merged timeline can pair it with install events.
            emitter.event(
                "share", dl=0, action="export",
                clauses=len(batch),
                keys=[payload_digest(p) for p in batch],
                lbd=[p[1] for p in batch],
            )
        conn.send(("clauses", spec.worker_index, batch))

    exporter = ClauseExporter(sink=send_batch)
    importer = ClauseImporter(session.var_by_name)
    channel = _WorkerChannel(conn, exporter, importer, emitter=emitter)
    session.share = channel

    conn.send(("ready", spec.worker_index))
    while True:
        message = conn.recv()
        kind = message[0]
        if kind == "stop":
            return
        if kind == "clauses":
            channel.enqueue(message[1])
            continue
        if kind == "cancel":
            # Stale: names a cube whose result we already sent (the
            # cancel crossed it on the pipe while we sat idle).
            continue
        if kind != "cube":  # pragma: no cover - protocol guard
            raise ValueError(f"unexpected message {kind!r}")
        _, cube_index, cube_assumptions, timeout = message
        if cube_index in spec.crash_cubes:
            if telemetry is not None:
                telemetry.dump_flight(
                    f"crash_cubes test hook (cube {cube_index})"
                )
            os._exit(23)  # test hook: simulated hard crash
        if cube_index in spec.stall_cubes:
            if _stall_until_cancelled(conn, spec, cube_index, channel):
                continue
            return  # stop arrived while stalled
        merged: Dict[str, object] = dict(base_assumptions)
        for name, lo, hi in cube_assumptions:
            merged[name] = Interval.make(lo, hi)
        exporter.cube_names = frozenset(
            name for name, _, _ in cube_assumptions
        )
        if emitter is not None:
            emitter.event(
                "cube", dl=0, n=cube_index,
                size=len(cube_assumptions), outcome="begin",
            )
        channel.current_cube = cube_index
        try:
            result = session.solve(merged, timeout=timeout)
        except CubeCancelled:
            # Another worker already decided this cube: drop it, tell
            # the master we are free, and keep the session warm for the
            # next assignment.
            exporter.cube_names = frozenset()
            exporter.flush()
            if emitter is not None:
                emitter.event(
                    "cube", dl=0, n=cube_index,
                    size=len(cube_assumptions), outcome="cancelled",
                )
            conn.send(("ready", spec.worker_index))
            continue
        finally:
            channel.current_cube = None
        exporter.cube_names = frozenset()
        exporter.flush()
        if emitter is not None:
            emitter.event(
                "cube", dl=0, n=cube_index,
                size=len(cube_assumptions), outcome=result.status.value,
            )
        stats_payload = _stats_payload(result.stats)
        if telemetry is not None:
            telemetry.record_metrics(stats_payload)
        conn.send(
            (
                "result",
                spec.worker_index,
                cube_index,
                result.status.value,
                result.model if result.is_sat else None,
                stats_payload,
                {
                    "exported": exporter.exported,
                    "suppressed": exporter.suppressed,
                    "received": importer.received,
                    "installed": importer.installed,
                },
            )
        )


def portfolio_worker(conn, spec: WorkerSpec) -> None:
    """Process entry point: run the worker body, report fatal errors."""
    telemetry = None
    if spec.telemetry is not None:
        from repro.obs.telemetry import WorkerTelemetry

        telemetry = WorkerTelemetry(spec.telemetry)
        telemetry.install_signal_dump()
    try:
        _worker_body(conn, spec, telemetry=telemetry)
    except (WorkerStopped, EOFError, KeyboardInterrupt):
        pass  # master went away or cancelled us: silent exit
    except BaseException as error:  # noqa: BLE001 - crash reporting
        if telemetry is not None:
            telemetry.dump_flight(f"{type(error).__name__}: {error}")
        try:
            conn.send(
                (
                    "fatal",
                    spec.worker_index,
                    f"{type(error).__name__}: {error}",
                )
            )
        except Exception:
            pass
    finally:
        if telemetry is not None:
            telemetry.close()
        try:
            conn.close()
        except Exception:
            pass
