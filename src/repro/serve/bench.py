"""Warm-vs-cold cells for the solver daemon.

One cell drives a *real* daemon — unix socket, wire protocol, client —
so the measured gap is the serving stack's actual value, not a cache
microbenchmark:

* ``serve-cold`` — every timed request hits a freshly started daemon
  (empty session cache, empty problem map), so each pays the full
  unroll + compile + predicate warm-up + solve;
* ``serve-warm`` — one daemon, one unmeasured priming request, then
  the timed requests all land on the warm session (solve only).

Both modes report the mean client-observed wall time over the timed
requests; the serve ratio gate (``benchmarks/perf/test_ratio_gates.py``)
holds warm to at least twice cold's speed, with status parity, like the
other within-run ratio gates.
"""

from __future__ import annotations

import asyncio
import tempfile
import time
from typing import Dict, List, Optional

from repro.errors import SolverError
from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SolverServer

#: Timed requests per cell; small because each cold repeat rebuilds the
#: whole session and the gate compares geomeans, not tails.
SERVE_CELL_REPEATS = 3

_STATUS_LETTER = {"sat": "S", "unsat": "U", "unknown": "-to-"}


def run_serve_cell(
    case: str,
    bound: int,
    mode: str,
    timeout: Optional[float] = None,
    repeats: int = SERVE_CELL_REPEATS,
) -> Dict[str, object]:
    """One serve bench cell (see module doc for the two modes).

    Returns ``{"status", "seconds", "solve_seconds", "requests",
    "cache_hits", "session_solves", "stats", "note"}`` where ``status``
    uses the harness letters and ``seconds`` is the mean client wall
    over the timed requests only (daemon startup and warm-mode priming
    excluded — they are exactly what the warm path amortizes away).
    """
    if mode not in ("serve-cold", "serve-warm"):
        raise SolverError(f"unknown serve bench mode {mode!r}")

    async def drive() -> Dict[str, object]:
        walls: List[float] = []
        responses: List[Dict[str, object]] = []
        with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:

            async def one_daemon(
                socket_path: str, timed_requests: int, prime: bool
            ) -> None:
                config = ServeConfig(
                    port=-1,  # unix socket only
                    unix_path=socket_path,
                    max_inflight=2,
                    telemetry_dir=None,
                )
                server = SolverServer(config)
                await server.start()
                try:
                    client = await ServeClient.open(path=socket_path)
                    try:
                        if prime:
                            primed = await client.solve(
                                case,
                                bound,
                                timeout_s=timeout,
                                want_model=False,
                            )
                            if not primed.get("ok"):
                                raise SolverError(
                                    "serve bench priming failed: "
                                    f"{primed.get('error')}"
                                )
                        for _ in range(timed_requests):
                            started = time.perf_counter()
                            response = await client.solve(
                                case,
                                bound,
                                timeout_s=timeout,
                                want_model=False,
                            )
                            walls.append(
                                time.perf_counter() - started
                            )
                            if not response.get("ok"):
                                raise SolverError(
                                    "serve bench request failed: "
                                    f"{response.get('error')}"
                                )
                            responses.append(response)
                    finally:
                        await client.close()
                finally:
                    await server.drain_and_stop()

            if mode == "serve-cold":
                # Fresh daemon per timed request: nothing carries over.
                for index in range(repeats):
                    await one_daemon(
                        f"{tmp}/cold-{index}.sock", 1, prime=False
                    )
            else:
                await one_daemon(f"{tmp}/warm.sock", repeats, prime=True)
        return _summarize(mode, walls, responses)

    return asyncio.run(drive())


def _summarize(
    mode: str,
    walls: List[float],
    responses: List[Dict[str, object]],
) -> Dict[str, object]:
    statuses = {str(r.get("status")) for r in responses}
    if len(statuses) == 1:
        status = _STATUS_LETTER.get(statuses.pop(), "-A-")
    else:  # timed requests disagreeing with each other is an abort
        status = "-A-"
    last = responses[-1] if responses else {}
    last_stats = dict(last.get("stats") or {})
    expected_cache = "miss" if mode == "serve-cold" else "hit"
    cache_hits = sum(
        1 for r in responses if r.get("cache") == "hit"
    )
    note = f"{mode}: {len(responses)} timed requests"
    if any(r.get("cache") != expected_cache for r in responses):
        # A cold request hitting the cache (or a warm one missing it)
        # means the cell measured the wrong thing; surface it loudly.
        status = "-A-"
        note += (
            "; cache state mismatch: "
            + ",".join(str(r.get("cache")) for r in responses)
        )
    return {
        "status": status,
        "seconds": sum(walls) / len(walls) if walls else 0.0,
        "solve_seconds": (
            sum(float(r.get("solve_s", 0.0)) for r in responses)
            / len(responses)
            if responses
            else 0.0
        ),
        "requests": len(responses),
        "cache_hits": cache_hits,
        "session_solves": int(last_stats.get("session_solves", 0)),
        "stats": last_stats,
        "note": note,
    }
