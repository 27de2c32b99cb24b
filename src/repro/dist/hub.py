"""Distributed cube hub: a work-stealing queue over NDJSON sockets.

The hub owns one query's cube list and serves it to *worker hosts* —
processes (typically on other machines) that each run a local pool of
diversified portfolio workers and pull cubes as their workers free up.
Framing reuses the solver daemon's wire format
(:mod:`repro.serve.protocol`): one UTF-8 JSON object per line, over a
UNIX or TCP socket.  The protocol is strictly worker-driven
request/response — the hub never pushes — so a host behind NAT or an
SSH tunnel works unmodified, and every response piggy-backs the pending
broadcast state (relayed clause batches, decided cubes, stop flag).

Operations (``op`` selects the handler; all responses carry ``ok``):

=============  =======================================================
``hello``      register a host (``name``, ``slots``); the response
               assigns the host id and a globally-unique *base worker
               index* (diversification rotations must not collide
               across hosts) and carries the :class:`ProblemSpec`
               fields plus the solver configuration, so hosts need no
               out-of-band problem distribution.
``pull``       request a cube; the response carries ``cube`` (index,
               assumptions, remaining timeout), ``wait`` (nothing for
               this host right now — in-flight cubes may still
               requeue), or ``stop`` (verdict settled).
``result``     report a cube verdict (first report wins; duplicates
               are dropped).
``lost``       hand back a cube (``cube``) whose local worker died
               mid-solve; it is released like a lost host's cube.
``clauses``    upload learned-clause payload batches; the hub admits
               them through an LBD filter and relays them to every
               other host.
``heartbeat``  renew this host's cube leases.
=============  =======================================================

Every pulled cube carries a *lease*: a deadline renewed by any request
from the holding host.  A host that goes silent past its lease — or
whose connection drops — loses its cubes back to the queue.

The hub keeps its cubes in a :class:`~repro.portfolio.ledger.CubeLedger`
with host ids as holders, under the hub lock; the ledger's docstring
states the contract (least-covered duplicates, first report wins, the
verdict rule, requeue once then fail) that this transport shares with
the in-process pool.
"""

from __future__ import annotations

import logging
import socket
import threading
import time
import dataclasses
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.config import SolverConfig
from repro.errors import SolverError
from repro.portfolio.cubes import Cube
from repro.portfolio.ledger import (
    SHARE_KEYS,
    CubeLedger,
    CubeOutcome,
    CubeResult,
)
from repro.portfolio.share import DEFAULT_MAX_LBD, clause_payload_key
from repro.portfolio.worker import ProblemSpec
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    error_response,
)

logger = logging.getLogger(__name__)

#: Seconds a pulled cube stays leased without any request from its
#: holder before the hub requeues it.
DEFAULT_LEASE_S = 30.0

#: Relayed clause batches are re-chunked to this many payloads so one
#: response line stays far below ``MAX_LINE_BYTES``.
_RELAY_CHUNK = 64


class DistError(SolverError):
    """Unrecoverable distributed-solve failure."""


class _Host:
    __slots__ = (
        "host_id",
        "name",
        "slots",
        "base_index",
        "clause_cursor",
        "decided_cursor",
        "last_seen",
    )

    def __init__(self, host_id, name, slots, base_index):
        self.host_id = host_id
        self.name = name
        self.slots = slots
        self.base_index = base_index
        #: Next entry of the hub's clause log to relay to this host.
        self.clause_cursor = 0
        #: How many decided cubes (in decision order) this host has
        #: been told about.
        self.decided_cursor = 0
        self.last_seen = time.monotonic()


class CubeHub:
    """The distributed cube queue (see module docstring).

    Construct with the query (problem spec, cube list, base config),
    :meth:`start` a listener, hand the address to worker hosts, then
    :meth:`wait` for the verdict.  Thread-based: one listener thread
    plus one handler thread per connected host — host counts are
    single digits, so threads beat an event loop on simplicity.
    """

    def __init__(
        self,
        problem: ProblemSpec,
        cubes: Sequence[Cube],
        base_config: Optional[SolverConfig] = None,
        root_index: Optional[int] = 0,
        timeout: Optional[float] = None,
        lease_s: float = DEFAULT_LEASE_S,
        relay_max_lbd: int = DEFAULT_MAX_LBD,
    ):
        if not cubes:
            raise ValueError("CubeHub needs at least one cube")
        self.problem = problem
        self.cubes = list(cubes)
        self.base_config = base_config or SolverConfig()
        self.lease_s = lease_s
        self.relay_max_lbd = relay_max_lbd
        self._deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        self._timeout = timeout

        self._lock = threading.Lock()
        self._ledger = CubeLedger(len(self.cubes), root_index)
        self._hosts: Dict[str, _Host] = {}
        self._next_host = 0
        self._next_base_index = 0
        #: (owner host_id, payload) log of admitted shared clauses.
        self._clause_log: List[Tuple[str, tuple]] = []
        self._clause_keys: Set[tuple] = set()
        self._hosts_seen = 0

        self._settled = threading.Event()
        self._result: Optional[CubeResult] = None
        self._listener: Optional[socket.socket] = None
        #: Open host connections, which :meth:`close` hangs up on.
        self._conns: Set[socket.socket] = set()
        self._closing = False
        self.address: Optional[Tuple[str, object]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(
        self,
        unix_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> Tuple[str, object]:
        """Bind and start accepting hosts; returns the bound address as
        ``("unix", path)`` or ``("tcp", (host, port))``."""
        if unix_path is not None:
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(unix_path)
            self.address = ("unix", unix_path)
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((host, port))
            self.address = ("tcp", listener.getsockname())
        listener.listen(16)
        listener.settimeout(0.2)
        self._listener = listener
        thread = threading.Thread(
            target=self._accept_loop, name="dist-hub-accept", daemon=True
        )
        thread.start()
        logger.info("dist hub: listening on %s", self.address)
        return self.address

    def wait(self, timeout: Optional[float] = None) -> Optional[CubeResult]:
        """Block until the verdict settles; returns the
        :class:`CubeResult`, or ``None`` if ``timeout`` elapsed with the
        run still undecided (the run keeps going — callers poll)."""
        wait_deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            if self._settled.is_set():
                return self._result
            with self._lock:
                self._sweep_leases()
                self._maybe_settle()
            if self._settled.is_set():
                return self._result
            if (
                wait_deadline is not None
                and time.monotonic() >= wait_deadline
            ):
                return None
            step = 0.1
            if wait_deadline is not None:
                step = min(step, max(0.0, wait_deadline - time.monotonic()))
            self._settled.wait(step)

    def abort(self, note: str = "aborted") -> CubeResult:
        """Force-settle an UNKNOWN verdict (no-op if already settled);
        returns the final :class:`CubeResult` either way."""
        with self._lock:
            self._settle("unknown", note=note)
        assert self._result is not None
        return self._result

    def close(self) -> None:
        """Stop accepting and hang up on every host: a host sees its
        connection drop at once, even while it waits on its workers,
        and stops them as a ``stop`` would make it."""
        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            for conn in self._conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass

    @property
    def settled(self) -> bool:
        return self._settled.is_set()

    # ------------------------------------------------------------------
    # Accept / per-connection handling
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                self._conns.add(conn)
            thread = threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="dist-hub-conn",
                daemon=True,
            )
            thread.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        host_id: Optional[str] = None
        reader = conn.makefile("rb")
        try:
            while True:
                line = reader.readline(MAX_LINE_BYTES + 1)
                if not line:
                    return
                try:
                    request = decode(line)
                except ProtocolError as error:
                    conn.sendall(encode(error_response({}, str(error))))
                    continue
                try:
                    response, host_id = self._dispatch(request, host_id)
                except Exception as error:  # noqa: BLE001 - must respond
                    logger.exception("dist hub: request failed")
                    response = error_response(
                        request, f"{type(error).__name__}: {error}"
                    )
                conn.sendall(encode(response))
        except (ConnectionError, OSError, ValueError):
            pass
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:
                pass
            with self._lock:
                self._conns.discard(conn)
                if host_id is not None:
                    self._drop_host(host_id, "connection closed")

    # ------------------------------------------------------------------
    # Request dispatch (all under the hub lock)
    # ------------------------------------------------------------------
    def _dispatch(self, request, host_id):
        op = request.get("op")
        with self._lock:
            if op == "hello":
                return self._op_hello(request)
            if host_id is None or host_id not in self._hosts:
                return (
                    error_response(request, "hello required first"),
                    host_id,
                )
            host = self._hosts[host_id]
            host.last_seen = time.monotonic()
            self._sweep_leases()
            if op == "pull":
                response = self._op_pull(request, host)
            elif op == "result":
                response = self._op_result(request, host)
            elif op == "lost":
                response = self._op_lost(request, host)
            elif op == "clauses":
                response = self._op_clauses(request, host)
            elif op == "heartbeat":
                response = {"id": request.get("id"), "ok": True}
            else:
                return (
                    error_response(request, f"unknown op {op!r}"),
                    host_id,
                )
            self._maybe_settle()
            self._augment(response, host)
            return response, host_id

    def _op_hello(self, request):
        name = str(request.get("name", "host"))
        slots = max(1, int(request.get("slots", 1)))
        host_id = f"h{self._next_host}"
        self._next_host += 1
        self._hosts_seen += 1
        host = _Host(host_id, name, slots, self._next_base_index)
        self._next_base_index += slots
        self._hosts[host_id] = host
        logger.info(
            "dist hub: host %s (%s) joined with %d slots, base index %d",
            host_id,
            name,
            slots,
            host.base_index,
        )
        response = {
            "id": request.get("id"),
            "ok": True,
            "protocol": PROTOCOL_VERSION,
            "host": host_id,
            "base_index": host.base_index,
            "lease_s": self.lease_s,
            "problem": dataclasses.asdict(self.problem),
            "config": dataclasses.asdict(self.base_config),
        }
        self._augment(response, host)
        return response, host_id

    def _op_pull(self, request, host: _Host):
        response: Dict[str, object] = {"id": request.get("id"), "ok": True}
        if self._settled.is_set() or self._past_deadline():
            return response  # _augment stamps stop
        index = self._ledger.next_cube(host.host_id)
        if index is None:
            response["wait"] = True
            return response
        response["cube"] = {
            "index": index,
            "assumptions": [
                list(entry) for entry in self.cubes[index].assumptions
            ],
            "timeout": self._remaining(),
        }
        return response

    def _op_result(self, request, host: _Host):
        model = request.get("model")
        share = request.get("share")
        # Duplicate holders on other hosts learn of the decision from
        # the ``decided`` list on their next response.
        self._ledger.record(
            host.host_id,
            CubeOutcome(
                index=int(request["cube"]),
                status=str(request["status"]),
                model=dict(model) if isinstance(model, dict) else None,
                stats=dict(request.get("stats") or {}),
                worker=int(request.get("worker", host.base_index)),
                host=host.host_id,
            ),
            {key: int(share.get(key, 0)) for key in SHARE_KEYS}
            if isinstance(share, dict)
            else None,
        )
        return {"id": request.get("id"), "ok": True}

    def _op_lost(self, request, host: _Host):
        index = int(request["cube"])
        self._release(
            host, f"host {host.host_id} lost its worker on cube {index}", [index]
        )
        return {"id": request.get("id"), "ok": True}

    def _op_clauses(self, request, host: _Host):
        admitted = 0
        for payload in request.get("batch", ()):  # type: ignore[union-attr]
            literals = tuple(tuple(literal) for literal in payload[0])
            lbd = int(payload[1])
            if not (len(literals) <= 2 or 0 < lbd <= self.relay_max_lbd):
                continue
            key = clause_payload_key((literals, lbd))
            if key in self._clause_keys:
                continue
            self._clause_keys.add(key)
            self._clause_log.append((host.host_id, (literals, lbd)))
            admitted += 1
        return {
            "id": request.get("id"),
            "ok": True,
            "admitted": admitted,
        }

    # ------------------------------------------------------------------
    # Broadcast state piggy-backed on every response
    # ------------------------------------------------------------------
    def _augment(self, response: Dict[str, object], host: _Host) -> None:
        batches: List[List[tuple]] = []
        chunk: List[tuple] = []
        while host.clause_cursor < len(self._clause_log):
            owner, payload = self._clause_log[host.clause_cursor]
            host.clause_cursor += 1
            if owner == host.host_id:
                continue
            chunk.append(payload)
            if len(chunk) >= _RELAY_CHUNK:
                batches.append(chunk)
                chunk = []
        if chunk:
            batches.append(chunk)
        if batches:
            response["clauses"] = [
                [list(payload) for payload in batch] for batch in batches
            ]
        decided = list(self._ledger.outcomes)
        if host.decided_cursor < len(decided):
            response["decided"] = decided[host.decided_cursor:]
            host.decided_cursor = len(decided)
        if self._settled.is_set() or self._past_deadline():
            response["stop"] = True

    # ------------------------------------------------------------------
    # Leases, requeue, verdict
    # ------------------------------------------------------------------
    def _sweep_leases(self) -> None:
        now = time.monotonic()
        for host in list(self._hosts.values()):
            if (
                now - host.last_seen > self.lease_s
                and self._ledger.held(host.host_id)
            ):
                self._release(
                    host,
                    f"host {host.host_id} lease expired "
                    f"({now - host.last_seen:.1f}s silent)",
                )

    def _drop_host(self, host_id: str, reason: str) -> None:
        host = self._hosts.pop(host_id, None)
        if host is None:
            return
        logger.info("dist hub: host %s left (%s)", host_id, reason)
        self._release(host, reason)

    def _release(
        self,
        host: _Host,
        reason: str,
        cubes: Optional[Iterable[int]] = None,
    ) -> None:
        requeues = self._ledger.requeues
        lost = self._ledger.release(host.host_id, cubes)
        if lost is not None:
            self._settle(
                "unknown",
                failure=(
                    f"cube {lost} lost twice to host failures ({reason})"
                ),
            )
        elif self._ledger.requeues > requeues:
            logger.info(
                "dist hub: requeued %d cube(s) (%s)",
                self._ledger.requeues - requeues,
                reason,
            )

    def _maybe_settle(self) -> None:
        if self._settled.is_set():
            return
        verdict = self._ledger.verdict()
        if verdict is not None:
            self._settle(verdict)
        elif self._past_deadline():
            note = (
                f"dist timeout after {self._timeout:.1f}s"
                if self._timeout is not None
                else "dist timeout"
            )
            self._settle("unknown", note=note)

    def _settle(
        self, status: str, note: str = "", failure: Optional[str] = None
    ) -> None:
        if self._settled.is_set():
            return
        result = self._ledger.result(status, note)
        result.clauses_relayed = len(self._clause_log)
        result.hosts_seen = self._hosts_seen
        result.failure = failure
        self._result = result
        self._settled.set()

    def _past_deadline(self) -> bool:
        return (
            self._deadline is not None
            and time.monotonic() > self._deadline
        )

    def _remaining(self) -> Optional[float]:
        if self._deadline is None:
            return self.base_config.timeout
        return max(0.0, self._deadline - time.monotonic())
