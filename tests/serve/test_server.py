"""Solver-daemon end-to-end tests.

Everything runs through real sockets (TCP in-process, or a UNIX socket
for the subprocess drain test) and the real wire protocol — the serve
stack has no test-only seams.  Tests drive their own event loop with
``asyncio.run``; there is deliberately no pytest-asyncio dependency.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.serve.cache import SessionCache, SessionEntry
from repro.serve.client import ServeClient
from repro.serve.loadgen import run_load
from repro.serve.server import ServeConfig, SolverServer

#: (case, bound) pairs with known statuses, small enough that a full
#: cold build stays well under a second.
_SAT = ("b01_1", 10)
_UNSAT = ("b13_1", 8)


async def _start_server(**overrides) -> tuple:
    config = ServeConfig(
        port=0, telemetry_dir=None, max_inflight=2, **overrides
    )
    server = SolverServer(config)
    await server.start()
    ((_, (host, port)),) = server.endpoints()
    return server, host, port


# ----------------------------------------------------------------------
# Concurrent load and protocol-level behaviour
# ----------------------------------------------------------------------


def test_concurrent_mixed_circuit_load():
    """Interleaved requests for two different netlists on one
    connection: statuses are right, each netlist compiles exactly once
    (single-flight), and repeats hit the warm session."""

    async def run():
        server, host, port = await _start_server()
        client = await ServeClient.open(host=host, port=port)
        try:
            responses = await asyncio.gather(
                client.solve(*_SAT, want_model=True),
                client.solve(*_UNSAT, want_model=False),
                client.solve(*_SAT, want_model=False),
                client.solve(*_UNSAT, want_model=False),
                client.solve(*_SAT, want_model=False),
            )
            stats = await client.stats()
        finally:
            await client.close()
            await server.drain_and_stop()
        return responses, stats

    responses, stats = asyncio.run(run())
    assert [r["status"] for r in responses] == [
        "sat", "unsat", "sat", "unsat", "sat",
    ]
    assert all(r["ok"] and r["engine"] == "session" for r in responses)
    assert "model" in responses[0] and responses[0]["model"]
    cache = stats["cache"]
    # Two distinct netlists -> two compiles, no matter how the five
    # requests raced; everything else was a hit or joined a build.
    assert cache["entries"] == 2
    assert cache["misses"] == 2
    assert cache["hits"] + cache["joined_builds"] == 3
    assert stats["counters"]["requests_ok"] == 5
    # The warm sessions' learned-clause DB shape is reported per tier;
    # these tiny circuits may learn nothing, but the keys must be
    # present and consistent.
    clause_db = stats["clause_db"]
    assert set(clause_db) == {"core", "mid", "local", "mean_lbd"}
    assert all(clause_db[tier] >= 0 for tier in ("core", "mid", "local"))
    assert clause_db["mean_lbd"] >= 0.0


def test_bad_requests_do_not_kill_the_connection():
    async def run():
        server, host, port = await _start_server()
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(b"this is not json\n")
            writer.write(b'{"op": "no-such-op", "id": 1}\n')
            writer.write(b'{"op": "solve", "id": 2}\n')
            writer.write(b'{"op": "ping", "id": 3}\n')
            await writer.drain()
            lines = [await reader.readline() for _ in range(4)]
        finally:
            writer.close()
            await writer.wait_closed()
            await server.drain_and_stop()
        return [json.loads(line) for line in lines]

    replies = asyncio.run(run())
    by_id = {r.get("id"): r for r in replies}
    assert not by_id[None]["ok"]  # undecodable line
    assert not by_id[1]["ok"] and "unknown op" in by_id[1]["error"]
    assert not by_id[2]["ok"] and "case" in by_id[2]["error"]
    assert by_id[3]["ok"] and by_id[3]["pong"]


def test_stats_counters_match_the_metrics_export(tmp_path):
    """Every count reaches both views: the ``stats`` op's counters and
    the ``serve_*`` counters of ``metrics.prom``.  Error replies and a
    request expired before dispatch used to update only the first."""
    from repro.obs.telemetry import parse_prometheus

    async def run():
        server = SolverServer(
            ServeConfig(port=0, max_inflight=2, telemetry_dir=str(tmp_path))
        )
        await server.start()
        ((_, (host, port)),) = server.endpoints()
        reader, writer = await asyncio.open_connection(host, port)
        replies = []
        try:
            for request in (
                {"op": "solve", "id": 1, "case": _SAT[0]},
                {"op": "no-such-op", "id": 2},
                {"op": "solve", "id": 3, "case": _SAT[0], "bound": _SAT[1],
                 "timeout_s": 0},
                {"op": "stats", "id": 4},
            ):
                writer.write((json.dumps(request) + "\n").encode())
                await writer.drain()
                replies.append(json.loads(await reader.readline()))
        finally:
            writer.close()
            await writer.wait_closed()
            await server.drain_and_stop()
        return replies

    missing_bound, unknown_op, expired, stats = asyncio.run(run())
    assert not missing_bound["ok"] and not unknown_op["ok"]
    assert expired["status"] == "unknown"
    counters = stats["counters"]
    assert counters["requests_error"] == 2
    assert counters["status_unknown"] == 1
    assert counters["deadline_expired"] == 1
    prom = parse_prometheus((tmp_path / "metrics.prom").read_text())
    exported = {
        family[len("repro_serve_"):]: value
        for (family, labels), value in prom.items()
        if ("worker", "server") in labels
        and family.startswith("repro_serve_")
    }
    assert {name: exported.get(name, 0) for name in counters} == counters


def test_loadgen_summary():
    async def run():
        server, host, port = await _start_server()
        try:
            summary = await run_load(
                host=host,
                port=port,
                cases=[_SAT, _UNSAT],
                total=8,
                concurrency=3,
                timeout_s=60.0,
            )
        finally:
            await server.drain_and_stop()
        return summary

    summary = asyncio.run(run())
    assert summary["errors"] == 0
    assert summary["statuses"] == {"sat": 4, "unsat": 4}
    assert summary["cache_hits"] >= 4  # everything after the 2 builds
    assert summary["latency"]["p50_s"] > 0.0
    assert summary["server"]["counters"]["requests_ok"] == 8


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


def test_deadline_expiry_returns_unknown_without_killing_session():
    """A request whose deadline is already gone at dispatch — and one
    that expires inside the solver — both come back ``unknown``, and
    the warm session keeps answering correctly afterwards."""

    async def run():
        server, host, port = await _start_server()
        client = await ServeClient.open(host=host, port=port)
        try:
            # Warm the session first so the expiry hits a live entry.
            first = await client.solve(*_SAT, want_model=False)
            expired = await client.solve(
                *_SAT, timeout_s=1e-9, want_model=False
            )
            after = await client.solve(*_SAT, want_model=False)
            stats = await client.stats()
        finally:
            await client.close()
            await server.drain_and_stop()
        return first, expired, after, stats

    first, expired, after, stats = asyncio.run(run())
    assert first["status"] == "sat"
    assert expired["ok"] and expired["status"] == "unknown"
    assert after["status"] == "sat" and after["cache"] == "hit"
    assert stats["counters"]["deadline_expired"] == 1
    assert stats["cache"]["entries"] == 1  # session survived


def test_solver_side_timeout_is_not_sticky_across_requests():
    """A deadline small enough to reach the solver (not just the queue
    check) must not shorten the session's budget for later requests —
    the regression the per-call timeout fix guards (see
    tests/core/test_session.py for the unit-level version)."""

    async def run():
        server, host, port = await _start_server()
        client = await ServeClient.open(host=host, port=port)
        try:
            # Warm the session with a full budget first, so the tight
            # request reaches the solver (not just the queue check).
            warm = await client.solve(
                "b04_1", 15, timeout_s=60.0, want_model=False
            )
            # 2ms passes the dispatch checks on a warm entry but is far
            # below b04_1's ~14ms repeat search (one search-loop
            # iteration runs ~2ms, so the cooperative check trips on
            # the second iteration at the latest).
            tight = await client.solve(
                "b04_1", 15, timeout_s=0.002, want_model=False
            )
            relaxed = await client.solve(
                "b04_1", 15, timeout_s=60.0, want_model=False
            )
        finally:
            await client.close()
            await server.drain_and_stop()
        return warm, tight, relaxed

    warm, tight, relaxed = asyncio.run(run())
    assert warm["status"] == "sat"
    assert tight["ok"] and tight["status"] == "unknown"
    # Same session, fresh budget: the query completes again.  (With the
    # sticky-timeout bug the 5ms override would survive into this call
    # and it would come back unknown.)
    assert relaxed["status"] == "sat"
    assert relaxed["cache"] == "hit"


# ----------------------------------------------------------------------
# Session cache: eviction, single-flight, shielding
# ----------------------------------------------------------------------


def _tiny_session():
    from repro.core import HdpllSolver, SolverConfig
    from repro.rtl import CircuitBuilder

    builder = CircuitBuilder("serve-cache-test")
    a = builder.input("a", 1)
    b = builder.input("b", 1)
    builder.output("o", builder.and_(a, b))
    return HdpllSolver(builder.build(), SolverConfig(), persistent=True)


def _entry(key: str, session) -> SessionEntry:
    return SessionEntry(
        key=key,
        case=key,
        bound=1,
        session=session,
        base_assumptions={},
        build_seconds=0.0,
    )


def test_cache_lru_eviction_and_byte_budget():
    session = _tiny_session()

    async def run():
        cache = SessionCache(max_entries=2, max_bytes=1 << 30)
        for key in ("k1", "k2", "k3"):

            async def build(key=key):
                return _entry(key, session)

            await cache.get_or_create(key, build)
        assert cache.evictions == 1
        assert [e.key for e in cache._entries.values()] == ["k2", "k3"]
        # Touch k2 so k3 becomes the LRU victim for the next insert.
        await cache.get_or_create("k2", None)  # hit: build unused

        async def build_k4():
            return _entry("k4", session)

        await cache.get_or_create("k4", build_k4)
        assert [e.key for e in cache._entries.values()] == ["k2", "k4"]

        # Byte budget: a cap below one session's cost still keeps the
        # newest entry (never evict what was just built).
        tight = SessionCache(max_entries=8, max_bytes=1)

        async def build_t1():
            return _entry("t1", session)

        async def build_t2():
            return _entry("t2", session)

        await tight.get_or_create("t1", build_t1)
        await tight.get_or_create("t2", build_t2)
        assert [e.key for e in tight._entries.values()] == ["t2"]
        assert tight.evictions == 1

    asyncio.run(run())


def test_cache_single_flight_and_cancelled_waiter():
    session = _tiny_session()

    async def run():
        cache = SessionCache(max_entries=4)
        builds = 0
        release = asyncio.Event()

        async def slow_build():
            nonlocal builds
            builds += 1
            await release.wait()
            return _entry("k", session)

        first = asyncio.ensure_future(
            cache.get_or_create("k", slow_build)
        )
        second = asyncio.ensure_future(
            cache.get_or_create("k", slow_build)
        )
        await asyncio.sleep(0)  # let both reach the build
        # Cancelling one waiter must not cancel the shared build.
        second.cancel()
        await asyncio.sleep(0)
        release.set()
        entry = await first
        assert entry.key == "k"
        assert builds == 1
        assert cache.joined_builds == 1
        with pytest.raises(asyncio.CancelledError):
            await second
        # The built entry is present and serves the next caller as a hit.
        assert (await cache.get_or_create("k", None)) is entry
        assert cache.hits == 1

    asyncio.run(run())


def test_cache_failed_build_leaves_no_entry():
    session = _tiny_session()

    async def run():
        cache = SessionCache(max_entries=4)

        async def failing_build():
            raise RuntimeError("compile exploded")

        with pytest.raises(RuntimeError, match="compile exploded"):
            await cache.get_or_create("k", failing_build)
        assert len(cache) == 0

        async def good_build():
            return _entry("k", session)

        entry = await cache.get_or_create("k", good_build)
        assert entry.key == "k"

    asyncio.run(run())


# ----------------------------------------------------------------------
# Portfolio escalation
# ----------------------------------------------------------------------


def test_jobs_escalates_to_portfolio():
    async def run():
        server, host, port = await _start_server(
            portfolio_deterministic=True
        )
        client = await ServeClient.open(host=host, port=port)
        try:
            escalated = await client.solve(
                *_SAT, jobs=2, timeout_s=120.0, want_model=True
            )
            stats = await client.stats()
        finally:
            await client.close()
            await server.drain_and_stop()
        return escalated, stats

    escalated, stats = asyncio.run(run())
    assert escalated["status"] == "sat"
    assert escalated["engine"] == "portfolio"
    assert escalated["model"]
    assert stats["counters"]["escalated"] == 1
    assert stats["cache"]["entries"] == 0  # never touched the cache


# ----------------------------------------------------------------------
# Bench cells
# ----------------------------------------------------------------------


def test_serve_bench_cell_modes():
    from repro.serve.bench import run_serve_cell

    cold = run_serve_cell(*_SAT, "serve-cold", timeout=60.0, repeats=2)
    warm = run_serve_cell(*_SAT, "serve-warm", timeout=60.0, repeats=2)
    assert cold["status"] == warm["status"] == "S"
    assert cold["cache_hits"] == 0
    assert warm["cache_hits"] == 2
    assert cold["seconds"] > 0.0 and warm["seconds"] > 0.0


# ----------------------------------------------------------------------
# Graceful drain (real daemon, real SIGTERM)
# ----------------------------------------------------------------------


def test_sigterm_drain_flushes_telemetry(tmp_path):
    """SIGTERM on the CLI daemon: inflight work finishes, the process
    exits 0, and the telemetry directory holds a parseable
    ``metrics.prom`` whose serve counters match the requests served."""
    from repro.obs.telemetry import parse_prometheus

    socket_path = str(tmp_path / "daemon.sock")
    telemetry_dir = tmp_path / "telemetry"
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.harness",
            "--telemetry-dir",
            str(telemetry_dir),
            "serve",
            "--no-tcp",
            "--unix-socket",
            socket_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    try:
        announce = json.loads(process.stdout.readline())
        assert announce["event"] == "listening"
        assert announce["endpoints"] == [["unix", socket_path]]

        async def drive():
            client = await ServeClient.open(path=socket_path)
            try:
                first = await client.solve(*_SAT, want_model=False)
                second = await client.solve(*_SAT, want_model=False)
            finally:
                await client.close()
            return first, second

        first, second = asyncio.run(drive())
        assert first["status"] == second["status"] == "sat"
        assert second["cache"] == "hit"
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
    prom_path = telemetry_dir / "metrics.prom"
    assert prom_path.exists(), list(telemetry_dir.iterdir())
    metrics = parse_prometheus(prom_path.read_text())
    by_family = {
        family: value
        for (family, labels), value in metrics.items()
        if ("worker", "server") in labels
    }
    assert by_family["repro_serve_requests_total"] == 2.0
    assert by_family["repro_serve_requests_ok"] == 2.0
    assert by_family["repro_serve_cache_hits"] == 1.0
    assert by_family["repro_serve_cache_misses"] == 1.0
    assert by_family["repro_serve_latency_p50_s"] > 0.0
