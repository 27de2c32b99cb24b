"""Distributed worker host: a hub client driving a local worker pool.

One worker host connects to a :class:`~repro.dist.hub.CubeHub`,
introduces itself (``hello``), and starts ``jobs`` local solver workers
in a :class:`~repro.portfolio.pool.WorkerPool`, the supervisor the
in-process portfolio pool drives too.  They are diversified by their
*global* worker index (the hub assigns each host a base index so
rotations never collide across hosts).  This module keeps only the hub
conversation:

* an idle local worker triggers a ``pull`` (retried after a short pause
  while the hub answers ``wait``), and the pulled cube goes to it;
* a decided cube goes back as ``result``;
* a clause batch a local worker exported (the pool has relayed it to
  the local peers already) is uploaded with ``clauses``; the hub relays
  it, LBD-filtered, to every other host;
* a local worker lost mid-cube is reported with ``lost``, so the hub
  requeues that cube at once instead of leaving it leased to this
  (still heartbeating) host;
* a ``heartbeat`` renews this host's cube leases whenever no other
  request has done so recently, so the hub's lost-host requeue only
  fires on genuinely dead hosts;
* the clause batches and decided cubes piggy-backed on every hub
  response are handed on to the local workers (duplicate holders
  abandon decided cubes).

The loop ends when the hub says ``stop`` (verdict settled) or hangs
up (it does on close; the host waits on it with its workers' pipes),
or every local worker has died.
"""

from __future__ import annotations

import logging
import socket
import time
from multiprocessing.connection import wait as connection_wait
from typing import Dict, Optional, Tuple

from repro.core.config import SolverConfig
from repro.dist.hub import DistError
from repro.obs import effective_level_spec
from repro.portfolio.pool import Exported, Finished, WorkerPool
from repro.portfolio.worker import ProblemSpec, WorkerSpec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode,
    encode,
)

logger = logging.getLogger(__name__)

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

    def fileno(self) -> int:
        return self._sock.fileno()

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
    crash_cubes: Tuple[int, ...] = (),
) -> Dict[str, int]:
    """Run one worker host against the hub at ``address`` until the hub
    stops the solve; returns a small summary counter dict.

    ``crash_cubes`` is the pool's crash-on-assignment test hook, applied
    to every local worker — it makes the whole host die
    deterministically on its first assignment, which is how the requeue
    path is exercised end to end.
    """
    jobs = max(1, jobs)
    client = HubClient(address)
    summary = {"cubes_solved": 0, "clauses_uploaded": 0}
    try:
        welcome = client.call(
            {
                "op": "hello",
                "name": name or socket.gethostname(),
                "slots": jobs,
            }
        )
        problem = ProblemSpec(**welcome["problem"])  # type: ignore[arg-type]
        config = SolverConfig(**welcome["config"])  # type: ignore[arg-type]
        base_index = int(welcome["base_index"])  # type: ignore[arg-type]
        lease_s = float(welcome.get("lease_s", 30.0))  # type: ignore[arg-type]
        # Well under lease_s / 3 so leases never expire on a live host;
        # capped low so a busy host still notices ``stop`` quickly.
        heartbeat_s = max(0.5, min(2.0, lease_s / 3.0))

        level_spec = effective_level_spec()
        specs = [
            WorkerSpec(
                problem=problem,
                worker_index=base_index + index,
                base_config=config,
                crash_cubes=crash_cubes,
                log_level=level_spec,
            )
            for index in range(jobs)
        ]
        with WorkerPool(specs, "dist") as workers:
            try:
                _host_loop(client, workers, summary, welcome, heartbeat_s)
            except DistError as error:
                # A hub that vanishes mid-run is indistinguishable from a
                # settled hub that already exited; either way this host
                # has nothing left to do, so drain cleanly rather than
                # failing.
                if not str(error).startswith(
                    ("hub connection lost", "hub closed")
                ):
                    raise
                logger.info("dist host: stopping (%s)", error)
    finally:
        client.close()
    return summary


def _host_loop(
    client: HubClient,
    workers: WorkerPool,
    summary: Dict[str, int],
    welcome: Dict[str, object],
    heartbeat_s: float,
) -> None:
    stop = False
    next_pull = 0.0
    last_call = time.monotonic()

    def deliver(response: Dict[str, object]) -> None:
        """Hand piggy-backed hub state on to the local workers."""
        nonlocal stop
        for batch in response.get("clauses", ()):  # type: ignore[union-attr]
            workers.share(
                [
                    (
                        tuple(tuple(literal) for literal in payload[0]),
                        int(payload[1]),
                    )
                    for payload in batch
                ]
            )
        for index in response.get("decided", ()):  # type: ignore[union-attr]
            workers.cancel(index)
        if response.get("stop"):
            stop = True

    def call(message: Dict[str, object]) -> Dict[str, object]:
        nonlocal last_call
        response = client.call(message)
        last_call = time.monotonic()
        deliver(response)
        return response

    deliver(welcome)
    while not stop:
        if not workers.live:
            raise DistError("all local workers died")
        for event in workers.poll(wake=client):
            if isinstance(event, Finished):
                outcome = event.outcome
                call(
                    {
                        "op": "result",
                        "worker": event.worker,
                        "cube": outcome.index,
                        "status": outcome.status,
                        "model": outcome.model,
                        "stats": outcome.stats,
                        "share": event.totals,
                    }
                )
                summary["cubes_solved"] += 1
            elif isinstance(event, Exported):
                response = call(
                    {
                        "op": "clauses",
                        "batch": [
                            [list(payload[0]), payload[1]]
                            for payload in event.batch
                        ],
                    }
                )
                summary["clauses_uploaded"] += int(
                    response.get("admitted", 0)  # type: ignore[arg-type]
                )
            else:
                logger.warning("dist host: %s", event.reason)
                if event.cube is not None:
                    # This host's heartbeats keep its leases alive, so
                    # the hub must be told: it requeues the cube once,
                    # and a second loss fails the solve.
                    call({"op": "lost", "cube": event.cube})
            if stop:
                return
        if connection_wait([client], timeout=0):
            return  # the hub hung up: between requests it sends nothing

        now = time.monotonic()
        idle = workers.idle()
        while idle and now >= next_pull:
            response = call({"op": "pull"})
            cube = response.get("cube")
            if stop or cube is None:
                if response.get("wait"):
                    next_pull = now + _PULL_RETRY
                break
            workers.assign(
                idle.pop(0),
                int(cube["index"]),  # type: ignore[index]
                [
                    (str(name), int(lo), int(hi))
                    for name, lo, hi in cube["assumptions"]  # type: ignore[index]
                ],
                cube.get("timeout"),  # type: ignore[union-attr]
            )
        if not stop and time.monotonic() - last_call > heartbeat_s:
            call({"op": "heartbeat"})
