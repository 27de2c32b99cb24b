"""Solver-as-a-service daemon: asyncio front, warm sessions behind.

One long-lived process multiplexes concurrent solve requests over the
existing machinery:

* **framing** — newline-delimited JSON over TCP and/or a UNIX socket
  (:mod:`repro.serve.protocol`); each connection may pipeline requests,
  responses carry the request ``id`` and may arrive out of order;
* **admission control** — a semaphore caps concurrently *solving*
  requests (``max_inflight``); excess requests queue, and their queue
  wait counts against their deadline;
* **deadlines** — ``timeout_s`` maps onto the solver's cooperative
  budget: the remaining time at dispatch becomes the per-query
  ``timeout`` (and, for a cold build, the predicate-learning
  :class:`~repro.core.recursive.ProbeDeadline`), so an expired request
  returns ``unknown`` without killing the warm session;
* **warm sessions** — a :class:`~repro.serve.cache.SessionCache` keyed
  by :func:`netlist_signature` with single-flight builds; queries on
  one session are serialized (``HdpllSolver`` is not thread-safe),
  queries on different sessions run concurrently on a thread pool;
* **escalation** — requests carrying ``jobs > 1`` route to the
  cube-and-conquer portfolio pool instead of the warm session;
* **telemetry** — request counters and latency gauges flow through the
  existing :mod:`repro.obs.telemetry` exporter into ``metrics.json`` /
  ``metrics.prom`` in the telemetry directory; SIGTERM drains inflight
  requests and flushes both before exiting.
"""

from __future__ import annotations

import asyncio
import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import HDPLL_SP, SolverConfig, Status
from repro.core.result import SolverResult
from repro.errors import CircuitError, SolverError
from repro.intervals import Interval
from repro.serve.cache import SessionCache, SessionEntry
from repro.serve.loadgen import percentile
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    error_response,
)

logger = logging.getLogger(__name__)

#: Latency samples kept for the p50/p99 window (ring buffer).
_LATENCY_WINDOW = 2048


@dataclass
class ServeConfig:
    """Daemon configuration (CLI flags map 1:1 onto these fields)."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (printed at startup).  Set
    #: negative to disable TCP entirely (UNIX socket only).
    port: int = 0
    #: Optional UNIX socket path (served in addition to TCP).
    unix_path: Optional[str] = None
    #: Concurrently *solving* requests; arrivals beyond this queue.
    max_inflight: int = 4
    cache_entries: int = 8
    cache_bytes: int = 512 * 1024 * 1024
    #: Deadline applied when a request carries no ``timeout_s``.
    default_timeout_s: Optional[float] = 120.0
    #: Cap on the per-request ``jobs`` escalation knob.
    max_jobs: int = 8
    #: Telemetry directory (metrics.json / metrics.prom land here).
    telemetry_dir: Optional[str] = None
    #: Base solver configuration for warm sessions (the paper engine).
    solver: SolverConfig = field(default_factory=lambda: HDPLL_SP)
    #: Run escalated queries on the deterministic in-process portfolio
    #: (tests; production uses the multi-process pool).
    portfolio_deterministic: bool = False
    #: Flush the metrics exports every N completed requests (and always
    #: on drain).
    metrics_flush_every: int = 64


@dataclass
class _ProblemInfo:
    """Resolved (case, bound): cache key + the instance's assumptions."""

    key: str
    assumptions: Dict[str, object]


class SolverServer:
    """The daemon: sockets, admission, session cache, telemetry."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.cache = SessionCache(
            max_entries=config.cache_entries,
            max_bytes=config.cache_bytes,
        )
        self._admission = asyncio.Semaphore(max(1, config.max_inflight))
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, config.max_inflight + 1),
            thread_name_prefix="serve-solve",
        )
        self._servers: List[asyncio.AbstractServer] = []
        self._request_tasks: "set[asyncio.Task]" = set()
        self._connection_tasks: "set[asyncio.Task]" = set()
        self._draining = False
        self._stopped = asyncio.Event()
        #: (case, bound) -> resolved cache key + assumptions; lets warm
        #: requests skip the unroll entirely.
        self._problems: Dict[Tuple[str, int], _ProblemInfo] = {}
        self._problems_lock = asyncio.Lock()
        self.counters: Dict[str, int] = {
            "requests_total": 0,
            "requests_ok": 0,
            "requests_error": 0,
            "status_sat": 0,
            "status_unsat": 0,
            "status_unknown": 0,
            "deadline_expired": 0,
            "escalated": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "connections": 0,
        }
        self._latencies: List[float] = []
        self._since_flush = 0
        self._telemetry = None
        if config.telemetry_dir is not None:
            from repro.obs.telemetry import TelemetryHub, WorkerTelemetry

            # The daemon is its own single "worker": no shard tracing
            # (requests are summarized by metrics, not per-event), no
            # resource sampler thread churn beyond the built-in one.
            hub = TelemetryHub(config.telemetry_dir, trace=False)
            self._telemetry = WorkerTelemetry(
                hub.worker_config("server", label="serve")
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        config = self.config
        if config.port >= 0:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_connection,
                    host=config.host,
                    port=config.port,
                    limit=MAX_LINE_BYTES,
                )
            )
        if config.unix_path:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection,
                    path=config.unix_path,
                    limit=MAX_LINE_BYTES,
                )
            )
        if not self._servers:
            raise SolverError(
                "serve: no endpoint configured (TCP disabled and no "
                "--unix-socket)"
            )
        for kind, address in self.endpoints():
            logger.info("serve: listening on %s %s", kind, address)

    def endpoints(self) -> List[Tuple[str, object]]:
        """``[("tcp", (host, port)), ("unix", path), ...]`` actually bound."""
        bound: List[Tuple[str, object]] = []
        for server in self._servers:
            for sock in server.sockets or ():
                name = sock.getsockname()
                if isinstance(name, str):
                    bound.append(("unix", name))
                else:
                    bound.append(("tcp", (name[0], name[1])))
        return bound

    async def serve_forever(self) -> None:
        """Block until :meth:`drain_and_stop` completes."""
        await self._stopped.wait()

    async def drain_and_stop(self) -> None:
        """Graceful shutdown: stop accepting, finish inflight requests,
        flush telemetry, release the executor."""
        if self._draining:
            return
        self._draining = True
        logger.info(
            "serve: draining (%d inflight)", len(self._request_tasks)
        )
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        if self._request_tasks:
            await asyncio.gather(
                *self._request_tasks, return_exceptions=True
            )
        # Inflight work is done and responded to; idle connection
        # readers are just blocking on readline and can be reaped.
        for task in list(self._connection_tasks):
            task.cancel()
        if self._connection_tasks:
            await asyncio.gather(
                *self._connection_tasks, return_exceptions=True
            )
        self.flush_telemetry()
        if self._telemetry is not None:
            self._telemetry.close()
            self._merge_telemetry()
        self._executor.shutdown(wait=False)
        self._stopped.set()
        logger.info("serve: stopped")

    def flush_telemetry(self) -> None:
        """Write the metrics snapshot and regenerate the exports."""
        self._since_flush = 0
        if self._telemetry is None:
            return
        # Latency gauges are floats (overwrite semantics): the window's
        # current percentiles, not an accumulating sum.
        clause_db = self.cache.clause_db_snapshot()
        self._telemetry.record_metrics(
            {
                "serve_latency_p50_s": percentile(self._latencies, 0.50),
                "serve_latency_p99_s": percentile(self._latencies, 0.99),
                "serve_cache_entries": float(len(self.cache)),
                "serve_cache_bytes": float(self.cache.total_bytes()),
                # Warm-session learned-clause DB shape (LBD tiers).
                "serve_clause_db_core": float(clause_db["core"]),
                "serve_clause_db_mid": float(clause_db["mid"]),
                "serve_clause_db_local": float(clause_db["local"]),
                "serve_clause_db_mean_lbd": float(clause_db["mean_lbd"]),
            }
        )
        self._telemetry.write_metrics()
        self._merge_telemetry()

    def _merge_telemetry(self) -> None:
        from repro.obs.telemetry import merge_directory

        assert self.config.telemetry_dir is not None
        merge_directory(self.config.telemetry_dir)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        self._count("connections")
        task = asyncio.current_task()
        if task is not None:
            self._connection_tasks.add(task)
            task.add_done_callback(self._connection_tasks.discard)
        write_lock = asyncio.Lock()

        async def respond(message: Dict[str, object]) -> None:
            async with write_lock:
                try:
                    writer.write(encode(message))
                    await writer.drain()
                except (ConnectionError, ProtocolError):
                    pass  # client went away mid-response

        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    ValueError,
                    asyncio.LimitOverrunError,
                ):  # oversized line: unrecoverable framing state
                    await respond(
                        error_response({}, "request line too long")
                    )
                    break
                except ConnectionError:
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode(line)
                except ProtocolError as error:
                    await respond(error_response({}, str(error)))
                    continue
                task = asyncio.ensure_future(
                    self._serve_request(request, respond)
                )
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        except asyncio.CancelledError:
            # Drain reaps idle readers; ending the task normally keeps
            # asyncio.streams from logging the cancellation (3.11).
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _serve_request(self, request, respond) -> None:
        try:
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as error:  # one bad request must not kill the daemon
            logger.exception("serve: request failed")
            self._count("requests_error")
            response = error_response(
                request, f"{type(error).__name__}: {error}"
            )
        await respond(response)

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Dict[str, object]) -> Dict[str, object]:
        op = request.get("op")
        if op == "ping":
            return {
                "id": request.get("id"),
                "ok": True,
                "pong": True,
                "protocol": PROTOCOL_VERSION,
            }
        if op == "stats":
            return {
                "id": request.get("id"),
                "ok": True,
                "counters": dict(self.counters),
                "latency": {
                    "p50_s": percentile(self._latencies, 0.50),
                    "p99_s": percentile(self._latencies, 0.99),
                    "samples": len(self._latencies),
                },
                "cache": self.cache.snapshot(),
                "clause_db": self.cache.clause_db_snapshot(),
                "inflight": len(self._request_tasks),
                "draining": self._draining,
            }
        if op == "solve":
            return await self._solve(request)
        self._count("requests_error")
        return error_response(request, f"unknown op {op!r}")

    async def _solve(self, request: Dict[str, object]) -> Dict[str, object]:
        arrival = time.perf_counter()
        self._count("requests_total")
        if self._draining:
            self._count("requests_error")
            return error_response(request, "server is draining")
        try:
            case = str(request["case"])
            bound = int(request["bound"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError):
            self._count("requests_error")
            return error_response(
                request, "solve needs 'case' (str) and 'bound' (int)"
            )
        timeout_s = request.get("timeout_s", self.config.default_timeout_s)
        deadline = (
            arrival + float(timeout_s)  # type: ignore[arg-type]
            if timeout_s is not None
            else None
        )
        jobs = min(int(request.get("jobs", 1)), self.config.max_jobs)  # type: ignore[arg-type]
        want_model = bool(request.get("want_model", True))

        async with self._admission:
            queue_s = time.perf_counter() - arrival
            if deadline is not None and time.perf_counter() >= deadline:
                return self._expired(request, queue_s, arrival)
            try:
                extra = _parse_assumptions(request.get("assumptions"))
            except ProtocolError as error:
                self._count("requests_error")
                return error_response(request, str(error))
            try:
                if jobs > 1:
                    self._count("escalated")
                    result = await self._solve_portfolio(
                        case, bound, jobs, deadline
                    )
                    cache_state = "portfolio"
                    engine = "portfolio"
                    session_solves = 0
                else:
                    entry, cache_state = await self._entry_for(
                        case, bound, deadline
                    )
                    async with entry.lock:
                        remaining = _remaining(deadline)
                        if remaining is not None and remaining <= 0.0:
                            return self._expired(
                                request, queue_s, arrival
                            )
                        merged = dict(
                            self._problems[(case, bound)].assumptions
                        )
                        merged.update(extra)
                        result = await self._run(
                            entry.session.solve, merged, remaining
                        )
                    engine = "session"
                    session_solves = entry.session.session_solves
            except CircuitError as error:
                self._count("requests_error")
                return error_response(request, str(error))

        wall_s = time.perf_counter() - arrival
        return self._finish(
            request,
            result,
            engine=engine,
            cache_state=cache_state,
            queue_s=queue_s,
            wall_s=wall_s,
            session_solves=session_solves,
            want_model=want_model,
        )

    # ------------------------------------------------------------------
    # Solve plumbing
    # ------------------------------------------------------------------
    async def _run(self, fn, *args):
        return await asyncio.get_event_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _entry_for(
        self, case: str, bound: int, deadline: Optional[float]
    ) -> Tuple[SessionEntry, str]:
        """The warm session for (case, bound), building it on a miss.

        Key resolution is two-stage so warm hits never unroll: the
        first request for a (case, bound) builds the instance once to
        learn its netlist signature; later requests go straight from
        the problem map to the cache.
        """
        info = self._problems.get((case, bound))
        built = None
        if info is None:
            from repro.constraints.compile import netlist_signature
            from repro.itc99 import instance

            built = await self._run(instance, case, bound)
            key = netlist_signature(built.circuit.nodes)
            async with self._problems_lock:
                info = self._problems.setdefault(
                    (case, bound),
                    _ProblemInfo(
                        key=key, assumptions=dict(built.assumptions)
                    ),
                )
        was_hit = self.cache.peek(info.key) is not None

        async def build() -> SessionEntry:
            return await self._build_entry(case, bound, info, built, deadline)

        entry = await self.cache.get_or_create(info.key, build)
        # Structurally identical netlists can in principle carry
        # different net names; a session only serves problems whose
        # assumption names it can resolve.  Salt the key and build a
        # dedicated session otherwise (never observed with the ITC99
        # registry, but correctness must not rest on that).
        if not all(
            name in entry.session.var_by_name for name in info.assumptions
        ):
            salted = f"{info.key}:{case}@{bound}"
            info = _ProblemInfo(
                key=salted, assumptions=dict(info.assumptions)
            )
            async with self._problems_lock:
                self._problems[(case, bound)] = info
            was_hit = self.cache.peek(salted) is not None
            entry = await self.cache.get_or_create(salted, build)
        state = "hit" if was_hit else "miss"
        self._count("cache_hits" if was_hit else "cache_misses")
        return entry, state

    async def _build_entry(
        self,
        case: str,
        bound: int,
        info: _ProblemInfo,
        built,
        deadline: Optional[float],
    ) -> SessionEntry:
        """Compile a fresh warm session (executor-side heavy lifting)."""
        from repro.core.hdpll import HdpllSolver
        from repro.itc99 import instance

        def compile_session():
            start = time.perf_counter()
            inst = built if built is not None else instance(case, bound)
            session = HdpllSolver(
                inst.circuit, self.config.solver, persistent=True
            )
            # The cold-path warm-up honours the triggering request's
            # deadline: probe learning stops cooperatively and the
            # session stays usable (just less warmed-up).
            session.learn(deadline=deadline)
            return session, time.perf_counter() - start

        session, build_seconds = await self._run(compile_session)
        return SessionEntry(
            key=info.key,
            case=case,
            bound=bound,
            session=session,
            base_assumptions=info.assumptions,
            build_seconds=build_seconds,
        )

    async def _solve_portfolio(
        self, case: str, bound: int, jobs: int, deadline: Optional[float]
    ) -> SolverResult:
        from repro.portfolio import ProblemSpec, solve_portfolio

        remaining = _remaining(deadline)

        def run():
            return solve_portfolio(
                spec=ProblemSpec("instance", case, bound),
                jobs=jobs,
                timeout=remaining,
                base_config=self.config.solver,
                deterministic=self.config.portfolio_deterministic,
            )

        return await self._run(run)

    # ------------------------------------------------------------------
    # Response assembly and metrics
    # ------------------------------------------------------------------
    def _expired(self, request, queue_s: float, arrival: float):
        self._count("deadline_expired", "status_unknown", "requests_ok")
        wall_s = time.perf_counter() - arrival
        self._observe_latency(wall_s)
        return {
            "id": request.get("id"),
            "ok": True,
            "status": "unknown",
            "note": "deadline expired before dispatch",
            "engine": "none",
            "cache": "none",
            "queue_s": round(queue_s, 6),
            "solve_s": 0.0,
            "wall_s": round(wall_s, 6),
            "stats": {},
        }

    def _finish(
        self,
        request,
        result: SolverResult,
        *,
        engine: str,
        cache_state: str,
        queue_s: float,
        wall_s: float,
        session_solves: int,
        want_model: bool,
    ) -> Dict[str, object]:
        status = result.status.value
        self._count("requests_ok", f"status_{status}")
        if (
            result.status is Status.UNKNOWN
            and "timeout" in (result.note or "")
        ):
            self._count("deadline_expired")
        self._observe_latency(wall_s)
        response: Dict[str, object] = {
            "id": request.get("id"),
            "ok": True,
            "status": status,
            "note": result.note,
            "engine": engine,
            "cache": cache_state,
            "queue_s": round(queue_s, 6),
            "solve_s": round(result.stats.solve_time, 6),
            "wall_s": round(wall_s, 6),
            "stats": {
                "decisions": result.stats.decisions,
                "conflicts": result.stats.conflicts,
                "propagations": result.stats.propagations,
                "session_solves": session_solves,
                "clauses_shifted": result.stats.clauses_shifted,
                "learned_relations": result.stats.learned_relations,
            },
        }
        if want_model and result.is_sat and result.model is not None:
            response["model"] = dict(result.model)
        return response

    def _observe_latency(self, wall_s: float) -> None:
        self._latencies.append(wall_s)
        if len(self._latencies) > _LATENCY_WINDOW:
            del self._latencies[: len(self._latencies) - _LATENCY_WINDOW]
        self._since_flush += 1
        if self._since_flush >= max(1, self.config.metrics_flush_every):
            self.flush_telemetry()

    def _count(self, *names: str) -> None:
        """Add one to each named counter: in :attr:`counters` (the
        ``stats`` op) and, as ``serve_<name>``, in the metrics export."""
        for name in names:
            self.counters[name] += 1
        if self._telemetry is not None:
            self._telemetry.record_metrics(
                {f"serve_{name}": 1 for name in names}
            )


def _remaining(deadline: Optional[float]) -> Optional[float]:
    if deadline is None:
        return None
    return max(0.0, deadline - time.perf_counter())


def _parse_assumptions(raw) -> Dict[str, object]:
    """Request assumptions -> solver assumption mapping."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ProtocolError("'assumptions' must be an object")
    parsed: Dict[str, object] = {}
    for name, value in raw.items():
        if isinstance(value, bool):
            parsed[name] = int(value)
        elif isinstance(value, int):
            parsed[name] = value
        elif (
            isinstance(value, (list, tuple))
            and len(value) == 2
            and all(isinstance(v, int) for v in value)
        ):
            parsed[name] = Interval.make(value[0], value[1])
        else:
            raise ProtocolError(
                f"assumption {name!r} must be an int or [lo, hi]"
            )
    return parsed


async def run_server(
    config: ServeConfig, *, announce=None
) -> SolverServer:
    """Start a server, install signal-driven drain, and block until it
    stops.  ``announce(server)`` is called once the sockets are bound
    (the CLI prints the endpoints there)."""
    import signal

    server = SolverServer(config)
    await server.start()
    if announce is not None:
        announce(server)
    loop = asyncio.get_event_loop()

    def initiate_drain() -> None:
        asyncio.ensure_future(server.drain_and_stop())

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, initiate_drain)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-UNIX event loop: rely on KeyboardInterrupt
    try:
        await server.serve_forever()
    finally:
        await server.drain_and_stop()
    return server
