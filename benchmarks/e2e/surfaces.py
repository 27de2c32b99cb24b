"""The surfaces: set one up, run a workload on it, record verdicts.

Each surface calls the program only through its public functions:

* ``one-shot`` — ``repro.itc99.instance`` + ``HdpllSolver(...).solve``;
* ``serve`` — a real ``repro-hdpll serve`` daemon over a UNIX socket,
  reached through ``repro.serve.client.ServeClient``;
* ``cubes`` — ``repro.portfolio.solve_portfolio`` (pipe transport) and
  ``repro.dist.solve_dist`` (socket transport).

A surface is a class whose ``setup()`` does everything a user pays
before the first query (imports, registry, daemon start, priming) and
whose ``run(seconds)`` returns the verdict records of the timed region.
Records carry the SAT model; :mod:`oracle` checks them after the run.  Layers are timed from outside, by spans around the calls
(:mod:`spans`), and only when the run is traced.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e.metrics import SpeedProbe, decided
from benchmarks.e2e.spans import NullTracer, Tracer
from benchmarks.e2e.workloads import (
    OVERHEAD_PAIRS,
    QUERY_TIMEOUT_S,
    SERVE_PRIMED,
    SERVE_PROBLEMS,
    SERVE_RATE,
    Query,
    Workload,
    paced_arrivals,
    query_rounds,
    serve_requests,
)

#: Solver counters copied from ``SolverStats`` into one-shot records.
ONE_SHOT_STATS = (
    "learn_time",
    "solve_time",
    "fme_time",
    "learned_relations",
    "decisions",
    "conflicts",
    "j_conflicts",
    "structural_decisions",
    "restarts",
    "heap_picks",
    "heap_stale_pops",
    "literals_minimized",
    "propagations",
    "narrowings",
    "propagator_wakeups",
    "clause_visits",
    "watch_moves",
    "clauses_evicted",
    "learned_lbd_mean",
    "interval_cache_hit_rate",
    "fme_checks",
    "fme_conflicts",
)

#: Counters copied from portfolio / dist results into cubes records.
CUBES_STATS = (
    "cubes_generated",
    "cubes_solved",
    "cubes_refuted",
    "clauses_exported",
    "clauses_imported",
    "share_import_hit_rate",
    "dist_requeues",
    "dist_clauses_relayed",
)

#: Profiler phase -> layer span name (one-shot traced runs).
PHASE_LAYERS = {
    "learn": "core.predlearn",
    "learn/bcp": "constraints.bcp",
    "learn/icp": "constraints.icp",
    "search": "core.search",
    "search/decide": "core.search.decide",
    "search/propagate": "core.search.propagate",
    "search/propagate/bcp": "constraints.bcp",
    "search/propagate/icp": "constraints.icp",
    "search/conflict": "core.search.conflict",
    "search/fme": "fme.leaf",
}


class Surface:
    """Shared constructor; ``close()`` releases what ``setup()`` started.

    ``probe`` times the reference work while ``run()`` goes on, at
    moments when the run itself computes nothing (see
    :func:`metrics.at_reference_speed`).
    """

    def __init__(self, workload: Workload, seed: int, tracer=None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer or NullTracer()
        self.probe = SpeedProbe()
        #: Traced ÷ untraced cost of the same work (traced runs only).
        self.trace_overhead: Optional[float] = None

    def close(self) -> None:
        pass

    def _rounds(self, seconds: float):
        rounds = query_rounds(self.workload, self.seed)
        return itertools.islice(rounds, self.workload.rounds(seconds))


class OneShotSurface(Surface):
    """Closed loop, one client: a fresh ``HdpllSolver`` per query."""

    def setup(self) -> None:
        from repro.core import HDPLL_BASE, HDPLL_S, HDPLL_SP
        from repro.itc99 import circuit

        self.configs = {
            "hdpll": HDPLL_BASE,
            "hdpll+s": HDPLL_S,
            "hdpll+sp": HDPLL_SP,
        }
        for family in self.workload.families:
            circuit(family.case.partition("_")[0])
        # One tiny solve per engine finishes the solver's lazy imports,
        # which a long-lived caller pays once, not per query.
        for engine in sorted({f.engine for f in self.workload.families}):
            self.solve(Query("warmup", "b01_1", 3, engine), NullTracer())

    def solve(self, query: Query, tracer) -> List[dict]:
        from repro.core import HdpllSolver
        from repro.intervals.interval import reset_interval_cache
        from repro.itc99 import instance
        from repro.obs import Observation, PhaseProfiler

        config = self.configs[query.engine].with_overrides(timeout=QUERY_TIMEOUT_S)
        profiler = PhaseProfiler() if tracer.enabled else None
        observation = Observation(profiler=profiler) if tracer.enabled else None
        reset_interval_cache()  # outside the timed region, see README
        qid = query.qid
        record = {
            "qid": qid,
            "case": query.case,
            "bound": query.bound,
            "engine": query.engine,
            "status": None,
        }
        start = time.perf_counter()
        try:
            with tracer.span("query", qid) as root:
                with tracer.span("bmc.unroll", qid, root):
                    inst = instance(query.case, query.bound)
                with tracer.span("constraints.compile", qid, root):
                    solver = HdpllSolver(inst.circuit, config, observation)
                with tracer.span("core.solve", qid, root) as solve_span:
                    solve_start = time.perf_counter()
                    result = solver.solve(inst.assumptions)
        except Exception as error:  # a failed query is a data point
            record["latency_s"] = time.perf_counter() - start
            record["error"] = f"{type(error).__name__}: {error}"
            return [record]
        record["latency_s"] = time.perf_counter() - start
        if profiler is not None:
            _phase_spans(tracer, qid, solve_span, solve_start, profiler)
        stats = result.stats
        record.update({
            "status": result.status.value,
            "model": result.model,
            "stats": {name: getattr(stats, name) for name in ONE_SHOT_STATS},
            "nodes": len(inst.circuit.nodes),
            "variables": len(solver.system.variables),
            "propagators": len(solver.system.propagators),
        })
        if profiler is not None:
            record["phases"] = dict(profiler.totals)
        return [record]

    def run(self, seconds: float) -> List[dict]:
        if self.tracer.enabled:
            self.trace_overhead = self._overhead()
        return closed_loop(
            self._rounds(seconds), lambda query: self.solve(query, self.tracer), self.probe
        )

    def _overhead(self) -> float:
        """Traced ÷ untraced wall of the first queries of the run."""
        first = next(query_rounds(self.workload, self.seed))[:OVERHEAD_PAIRS]
        plain = sum(self.solve(q, NullTracer())[0]["latency_s"] for q in first)
        traced = sum(self.solve(q, Tracer())[0]["latency_s"] for q in first)
        return traced / plain


def _phase_spans(tracer, qid, solve_span, solve_start, profiler) -> None:
    """Profiler phases as child spans of the ``core.solve`` span, laid
    out back to back inside their parent phase."""
    sids = {"": solve_span}
    cursor = {"": solve_start}
    for path in sorted(profiler.totals, key=lambda p: (p.count("/"), p)):
        parent = path.rpartition("/")[0]
        if parent not in sids or path not in PHASE_LAYERS:
            continue
        seconds = profiler.totals[path]
        sids[path] = tracer.child(
            PHASE_LAYERS[path], qid, sids[parent], cursor[parent], seconds
        )
        cursor[path] = cursor[parent]
        cursor[parent] += seconds


def closed_loop(rounds, solve, probe: Optional[SpeedProbe] = None) -> List[dict]:
    """Solve every query of ``rounds`` in order, one at a time; the
    speed probe runs between queries, outside the timed region."""
    records: List[dict] = []
    for round_queries in rounds:
        for query in round_queries:
            records.extend(solve(query))
            if probe is not None:
                probe.sample_if_due()
    return records


class CubesSurface(Surface):
    """Closed loop, one client: each query through both transports, the
    transport that goes first alternating per query."""

    def setup(self) -> None:
        import repro.dist  # noqa: F401  (import cost belongs to set-up)
        import repro.portfolio  # noqa: F401
        from repro.itc99 import circuit

        for family in self.workload.families:
            circuit(family.case.partition("_")[0])
        self.turn = 0

    def _call(self, transport: str, query: Query) -> dict:
        from repro.dist import solve_dist
        from repro.portfolio import ProblemSpec, solve_portfolio

        qid = f"{query.qid}.{transport}"
        record = {
            "qid": qid,
            "query": query.qid,
            "case": query.case,
            "bound": query.bound,
            "engine": transport,
            "status": None,
        }
        start = time.perf_counter()
        try:
            with self.tracer.span(
                "portfolio.query" if transport == "pipe" else "dist.query", qid
            ):
                if transport == "pipe":
                    result = solve_portfolio(
                        spec=ProblemSpec("instance", query.case, query.bound),
                        jobs=2,
                        timeout=QUERY_TIMEOUT_S,
                    )
                else:
                    result = solve_dist(
                        query.case,
                        query.bound,
                        hosts=2,
                        jobs=1,
                        timeout=QUERY_TIMEOUT_S,
                    )
        except Exception as error:  # a failed call is a data point
            record["latency_s"] = time.perf_counter() - start
            record["error"] = f"{type(error).__name__}: {error}"
            return record
        record["latency_s"] = time.perf_counter() - start
        record["status"] = result.status.value
        record["model"] = result.model
        record["stats"] = {name: getattr(result.stats, name, 0) for name in CUBES_STATS}
        return record

    def solve(self, query: Query) -> List[dict]:
        order = ("pipe", "socket") if self.turn % 2 == 0 else ("socket", "pipe")
        self.turn += 1
        return [self._call(transport, query) for transport in order]

    def run(self, seconds: float) -> List[dict]:
        records = closed_loop(self._rounds(seconds), self.solve, self.probe)
        if self.tracer.enabled:
            busy = sum(r["latency_s"] for r in records)
            self.trace_overhead = (busy + self.tracer.bookkeeping_s) / busy
        return records


class ServeSurface(Surface):
    """Open loop against a real daemon: requests arrive on a seeded
    schedule at :data:`SERVE_RATE`, alternating over two connections,
    whether or not earlier ones have been answered."""

    def __init__(self, workload: Workload, seed: int, tracer=None):
        super().__init__(workload, seed, tracer)
        self.layers: Dict[str, float] = {}
        self.capacity_qps: Optional[float] = None
        self.process: Optional[subprocess.Popen] = None
        self.socket_dir: Optional[str] = None
        self.clients: list = []

    # The clients' connections must outlive setup() and run(), so both
    # run inside one asyncio loop owned by the surface.
    def setup(self) -> None:
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._setup())

    def run(self, seconds: float) -> List[dict]:
        return self.loop.run_until_complete(self._run(seconds))

    def close(self) -> None:
        if self.clients:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.clients = []
        if self.process is not None:
            _stop(self.process)
            self.process = None
        if self.socket_dir is not None:
            shutil.rmtree(self.socket_dir, ignore_errors=True)
            self.socket_dir = None
        self.loop.close()

    async def _setup(self) -> None:
        from repro.serve.client import ServeClient

        self.socket_dir = tempfile.mkdtemp(prefix="repro-serve-")
        self.socket = os.path.join(self.socket_dir, "serve.sock")
        self.process = _start_daemon(self.socket)
        self.clients = [await ServeClient.open(path=self.socket) for _ in range(2)]
        pong = await self.clients[0].ping()
        if not pong.get("ok"):
            raise RuntimeError(f"daemon ping failed: {pong}")
        for case, bound in SERVE_PROBLEMS[:SERVE_PRIMED]:
            primed = await self.clients[0].solve(
                case, bound, timeout_s=QUERY_TIMEOUT_S, want_model=False
            )
            if not primed.get("ok"):
                raise RuntimeError(f"priming {case}({bound}) failed: {primed}")

    async def _request(self, lane: int, qid: str, problem, due: float) -> dict:
        from repro.serve.client import ServeConnectionError

        case, bound = problem
        record = {"qid": qid, "case": case, "bound": bound, "engine": "serve"}
        record["due"] = due
        record["sent"] = time.perf_counter()
        try:
            response = await self.clients[lane].solve(
                case, bound, timeout_s=QUERY_TIMEOUT_S, want_model=True
            )
        except ServeConnectionError as error:
            response = {"ok": False, "error": str(error)}
        record["done"] = time.perf_counter()
        record["latency_s"] = record["done"] - due
        if not response.get("ok"):
            record["status"] = None
            record["error"] = str(response.get("error"))
            return record
        record["status"] = response.get("status")
        for name in ("cache", "queue_s", "solve_s", "wall_s"):
            record[name] = response.get(name)
        record["model"] = response.get("model")
        return record

    async def _run(self, seconds: float) -> List[dict]:
        requests = serve_requests(self.seed)
        arrivals = paced_arrivals(self.seed, SERVE_RATE, seconds)
        problems = [next(requests) for _ in arrivals]
        outstanding = 0
        backlog_max = 0

        async def fire(index: int, offset: float) -> dict:
            nonlocal outstanding, backlog_max
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outstanding += 1
            backlog_max = max(backlog_max, outstanding)
            try:
                return await self._request(index % 2, f"r{index}", problems[index], due)
            finally:
                outstanding -= 1

        async def probe_when_idle() -> None:
            # Only with nothing outstanding and no request due for 0.1 s:
            # then the daemon is idle and no response or send waits on
            # the reference work, which blocks this event loop.
            while not all(task.done() for task in tasks):
                await asyncio.sleep(0.1)
                elapsed = time.perf_counter() - start
                following = bisect.bisect(arrivals, elapsed)
                next_due = arrivals[following] if following < len(arrivals) else seconds
                if outstanding == 0 and next_due - elapsed > 0.1:
                    self.probe.sample_if_due()

        before = await self.clients[0].stats()
        cpu_before = _cpu_seconds(self.process.pid)
        start = time.perf_counter()
        tasks = [asyncio.ensure_future(fire(i, t)) for i, t in enumerate(arrivals)]
        prober = asyncio.ensure_future(probe_when_idle())
        records = list(await asyncio.gather(*tasks))
        cpu = _cpu_seconds(self.process.pid) - cpu_before
        await prober
        after = await self.clients[0].stats()
        # Decided requests per daemon CPU-second: the daemon computes on
        # one core at a time (its solver holds the interpreter lock), so
        # this is the rate it can sustain; paced runs past saturation
        # agreed within 2% (README).  Errors and expired requests cost
        # the daemon almost nothing and are left out, so answering
        # without solving does not read as capacity.
        self.capacity_qps = sum(1 for r in records if decided(r)) / cpu
        self.layers = {
            "serve.evictions": after["cache"]["evictions"] - before["cache"]["evictions"],
            "serve.joined_builds": (
                after["cache"]["joined_builds"] - before["cache"]["joined_builds"]
            ),
            "serve.backlog_max": backlog_max,
        }
        if self.tracer.enabled:
            _serve_spans(self.tracer, records)
            busy = sum(r["done"] - r["sent"] for r in records)
            self.trace_overhead = (busy + self.tracer.bookkeeping_s) / busy
        return records


def _cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` (Linux ``/proc``)."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _serve_spans(tracer, records: List[dict]) -> None:
    """Spans of each request, from client timestamps and the daemon's
    reported ``queue_s`` / ``solve_s`` / ``wall_s`` (a miss's build time
    is what the daemon spent outside queue and solve)."""
    for r in records:
        root = tracer.child("serve.request", r["qid"], None, r["due"], r["done"] - r["due"])
        tracer.child("loadgen.lag", r["qid"], root, r["due"], r["sent"] - r["due"])
        if r.get("status") is None:
            continue
        queue_s, solve_s, wall_s = r["queue_s"], r["solve_s"], r["wall_s"]
        cursor = r["sent"]
        phases = [("serve.queue", queue_s)]
        if r["cache"] == "miss":
            phases.append(("serve.build", max(0.0, wall_s - queue_s - solve_s)))
        phases.append(("serve.solve", solve_s))
        for name, seconds in phases:
            tracer.child(name, r["qid"], root, cursor, seconds)
            cursor += seconds


def _start_daemon(socket_path: str) -> subprocess.Popen:
    """``repro-hdpll serve`` as a child process, run from this checkout's
    sources; returns once it printed its listening line."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.harness", "serve",
            "--no-tcp", "--unix-socket", socket_path,
            "--cache-entries", "8", "--max-inflight", "2",
        ],
        stdout=subprocess.PIPE,
        env=env,
    )
    line = process.stdout.readline()
    if b'"listening"' not in line:
        _stop(process)
        raise RuntimeError(f"daemon did not start: {line!r}")
    return process


def _stop(process: subprocess.Popen) -> None:
    """SIGTERM (graceful drain), then kill if it does not exit."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    if process.stdout is not None:
        process.stdout.close()


SURFACES = {"one-shot": OneShotSurface, "serve": ServeSurface, "cubes": CubesSurface}
