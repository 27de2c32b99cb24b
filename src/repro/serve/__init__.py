"""Solver-as-a-service: daemon, client, load generator, bench cells.

The daemon (`repro-hdpll serve`) keeps compiled sessions (persistent
:class:`~repro.core.hdpll.HdpllSolver` objects) warm across requests —
the paper's cross-call reuse lifted from one process's lifetime to a
service's.  See ``docs/serving.md``.
"""

from repro.serve.cache import SessionCache, SessionEntry
from repro.serve.client import (
    ServeClient,
    ServeConnectionError,
    solve_once,
)
from repro.serve.loadgen import run_load, run_load_blocking
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode,
    encode,
    error_response,
    solve_request,
)
from repro.serve.server import ServeConfig, SolverServer, run_server

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeConfig",
    "ServeConnectionError",
    "SessionCache",
    "SessionEntry",
    "SolverServer",
    "decode",
    "encode",
    "error_response",
    "run_load",
    "run_load_blocking",
    "run_server",
    "solve_once",
    "solve_request",
]
