"""Distributed worker host: local portfolio workers fed from a hub.

One worker host connects to a :class:`~repro.dist.hub.CubeHub`,
introduces itself (``hello``), and starts ``jobs`` local solver
processes — exactly the processes the in-process portfolio pool uses
(:func:`repro.portfolio.worker.portfolio_worker`, started and stopped by
the pool's :func:`~repro.portfolio.pool.start_workers` /
:func:`~repro.portfolio.pool.stop_workers`), diversified by their
*global* worker index (the hub assigns each host a base index so
rotations never collide across hosts).  The host then runs a single
event loop:

* a local worker reporting ready (or finishing a cube) triggers a
  ``pull`` from the hub and the cube is handed to that worker over its
  pipe, re-using the pool's ``("cube", ...)`` message unchanged;
* clause batches exported by a local worker are rebroadcast to the
  *local* peers directly (no hub round-trip for same-host sharing) and
  uploaded to the hub, which relays them — LBD-filtered — to every
  other host;
* clause batches and decided-cube notices piggy-backed on hub responses
  are forwarded to the local workers (``("clauses", ...)`` /
  ``("cancel", ...)`` — duplicate holders abandon decided cubes);
* a heartbeat renews this host's cube leases whenever no other request
  has done so recently, so the hub's lost-host requeue only fires on
  genuinely dead hosts;
* a local worker that dies mid-cube is reported with ``lost``, so the
  hub requeues that cube at once instead of leaving it leased to this
  (still heartbeating) host.

The loop ends when the hub says ``stop`` (verdict settled), the hub
connection drops, or every local worker has died.
"""

from __future__ import annotations

import logging
import socket
import time
from multiprocessing.connection import wait as connection_wait
from typing import Dict, List, Optional, Tuple

from repro.core.config import SolverConfig
from repro.dist.hub import DistError
from repro.obs import effective_level_spec
from repro.portfolio.pool import WorkerProcess, start_workers, stop_workers
from repro.portfolio.worker import ProblemSpec, WorkerSpec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode,
    encode,
)

logger = logging.getLogger(__name__)

#: Seconds the host waits in one child-pipe poll round.
_POLL_INTERVAL = 0.05
#: Seconds an idle host waits before retrying a ``wait``-answered pull.
_PULL_RETRY = 0.2


class HubClient:
    """Blocking NDJSON request/response client for the hub socket."""

    def __init__(self, address: Tuple[str, object]):
        kind, target = address
        if kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(str(target))
        elif kind == "tcp":
            host, port = target  # type: ignore[misc]
            sock = socket.create_connection((str(host), int(port)))
        else:
            raise ValueError(f"unknown hub address kind {kind!r}")
        self._sock = sock
        self._reader = sock.makefile("rb")

    def call(self, message: Dict[str, object]) -> Dict[str, object]:
        try:
            self._sock.sendall(encode(message))
            line = self._reader.readline(MAX_LINE_BYTES + 1)
        except (ConnectionError, OSError) as error:
            raise DistError(f"hub connection lost: {error}") from None
        if not line:
            raise DistError("hub closed the connection")
        try:
            response = decode(line)
        except ProtocolError as error:
            raise DistError(f"bad hub response: {error}") from None
        if not response.get("ok", False):
            raise DistError(
                f"hub rejected {message.get('op')!r}: "
                f"{response.get('error')}"
            )
        return response

    def close(self) -> None:
        try:
            self._reader.close()
            self._sock.close()
        except OSError:
            pass


def run_worker_host(
    address: Tuple[str, object],
    jobs: int,
    name: Optional[str] = None,
    base_config: Optional[SolverConfig] = None,
    crash_cubes: Tuple[int, ...] = (),
) -> Dict[str, int]:
    """Run one worker host against the hub at ``address`` until the hub
    stops the solve; returns a small summary counter dict.

    ``base_config`` overrides the hub-shipped solver configuration
    (tests); ``crash_cubes`` is the pool's crash-on-assignment test
    hook, applied to every local worker — it makes the whole host die
    deterministically on its first assignment, which is how the requeue
    path is exercised end to end.
    """
    jobs = max(1, jobs)
    client = HubClient(address)
    summary = {"cubes_solved": 0, "clauses_uploaded": 0}
    children: List[WorkerProcess] = []
    try:
        welcome = client.call(
            {
                "op": "hello",
                "name": name or socket.gethostname(),
                "slots": jobs,
            }
        )
        problem = ProblemSpec(**welcome["problem"])  # type: ignore[arg-type]
        config = (
            base_config
            if base_config is not None
            else SolverConfig(**welcome["config"])  # type: ignore[arg-type]
        )
        base_index = int(welcome["base_index"])  # type: ignore[arg-type]
        lease_s = float(welcome.get("lease_s", 30.0))  # type: ignore[arg-type]
        # Well under lease_s / 3 so leases never expire on a live host;
        # capped low so a busy host still notices ``stop`` quickly.
        heartbeat_s = max(0.5, min(2.0, lease_s / 3.0))

        level_spec = effective_level_spec()
        children = start_workers(
            [
                WorkerSpec(
                    problem=problem,
                    worker_index=base_index + index,
                    base_config=config,
                    crash_cubes=crash_cubes,
                    log_level=level_spec,
                )
                for index in range(jobs)
            ],
            "dist",
        )

        try:
            _host_loop(
                client, children, summary, welcome, heartbeat_s
            )
        except DistError as error:
            # A hub that vanishes mid-run is indistinguishable from a
            # settled hub that already exited; either way this host has
            # nothing left to do, so drain cleanly rather than failing.
            message = str(error)
            if not message.startswith(
                ("hub connection lost", "hub closed")
            ):
                raise
            logger.info("dist host: stopping (%s)", error)
    finally:
        stop_workers(children)
        client.close()
    return summary


def _host_loop(
    client: HubClient,
    children: List[WorkerProcess],
    summary: Dict[str, int],
    welcome: Dict[str, object],
    heartbeat_s: float,
) -> None:
    live: Dict[int, WorkerProcess] = {c.index: c for c in children}
    idle: List[WorkerProcess] = []
    stop = False
    next_pull = 0.0
    last_call = time.monotonic()

    def deliver(response: Dict[str, object]) -> None:
        """Forward piggy-backed hub state to the local workers."""
        nonlocal stop
        for batch in response.get("clauses", ()):  # type: ignore[union-attr]
            payloads = [
                (
                    tuple(tuple(literal) for literal in payload[0]),
                    int(payload[1]),
                )
                for payload in batch
            ]
            for child in live.values():
                child.send(("clauses", payloads))
        for index in response.get("decided", ()):  # type: ignore[union-attr]
            for child in live.values():
                if child.cube == index:
                    child.send(("cancel", index))
                    child.cube = None
        if response.get("stop"):
            stop = True

    def call(message: Dict[str, object]) -> Dict[str, object]:
        nonlocal last_call
        response = client.call(message)
        last_call = time.monotonic()
        deliver(response)
        return response

    deliver(welcome)

    def drop_child(child: WorkerProcess, reason: str) -> None:
        live.pop(child.index, None)
        if child in idle:
            idle.remove(child)
        child.conn.close()
        logger.warning("dist host: lost worker %d (%s)", child.index, reason)
        if child.cube is not None:
            # This host's heartbeats keep its leases alive, so the hub
            # must be told: it requeues the cube once, and a second
            # loss fails the solve.
            cube, child.cube = child.cube, None
            call({"op": "lost", "cube": cube})

    while True:
        if stop:
            return
        if not live:
            raise DistError("all local workers died")
        ready = connection_wait(
            [child.conn for child in live.values()],
            timeout=_POLL_INTERVAL,
        )
        conn_to_child = {child.conn: child for child in live.values()}
        for conn in ready:
            child = conn_to_child[conn]
            try:
                message = conn.recv()
            except (EOFError, OSError):
                drop_child(
                    child,
                    f"pipe closed (exit {child.process.exitcode})",
                )
                continue
            kind = message[0]
            if kind == "ready":
                child.cube = None
                if child not in idle:
                    idle.append(child)
            elif kind == "clauses":
                _, _worker, batch = message
                for peer in live.values():
                    if peer is not child:
                        peer.send(("clauses", batch))
                response = call(
                    {
                        "op": "clauses",
                        "batch": [
                            [list(payload[0]), payload[1]]
                            for payload in batch
                        ],
                    }
                )
                summary["clauses_uploaded"] += int(
                    response.get("admitted", 0)  # type: ignore[arg-type]
                )
            elif kind == "result":
                (
                    _,
                    _worker,
                    cube_index,
                    status,
                    model,
                    stats,
                    totals,
                ) = message
                child.cube = None
                call(
                    {
                        "op": "result",
                        "worker": child.index,
                        "cube": cube_index,
                        "status": status,
                        "model": model,
                        "stats": stats,
                        "share": totals,
                    }
                )
                summary["cubes_solved"] += 1
                if child not in idle:
                    idle.append(child)
            elif kind == "fatal":
                drop_child(child, f"fatal: {message[2]}")
            if stop:
                return

        now = time.monotonic()
        while idle and not stop and now >= next_pull:
            child = idle[0]
            response = call({"op": "pull"})
            if stop:
                return
            cube = response.get("cube")
            if cube is None:
                if response.get("wait"):
                    next_pull = now + _PULL_RETRY
                break
            idle.pop(0)
            index = int(cube["index"])  # type: ignore[index]
            assumptions = [
                (str(name), int(lo), int(hi))
                for name, lo, hi in cube["assumptions"]  # type: ignore[index]
            ]
            child.cube = index
            child.send(
                ("cube", index, assumptions, cube.get("timeout"))  # type: ignore[union-attr]
            )
        if time.monotonic() - last_call > heartbeat_s:
            call({"op": "heartbeat"})
