"""How solver child processes are started and stopped.

Both pools that run solver children -- the worker supervisor
(:mod:`repro.portfolio.pool`), which the portfolio pool and every dist
worker host drive, and the harness task pool
(:mod:`repro.harness.parallel`) -- take their ``multiprocessing``
context from :func:`context` and stop children with
:func:`terminate_then_kill`.

Children come from a ``multiprocessing`` fork server.  It starts on the
first :func:`context` call in a process, runs :data:`PRELOAD` once (the
warm-up in :mod:`repro.preload`: every module on the cube worker's path
and every propagation-kernel family), and forks each child from that
warm state.  A child so skips the interpreter start and the solver
import that a ``spawn`` child pays (about 0.3 s), and the lazy imports
and kernel generation that a cube worker would otherwise repeat after
every fork.  ``spawn`` remains only where the platform has no fork
server.

Why a fork server and not plain ``fork``: the processes that start
solver children run threads (the ``solve_dist`` caller runs the hub's
threads and its worker hosts, the daemon its executor threads), and
forking a threaded process can copy a lock that another thread holds.
A forked worker would also inherit the hub's listening socket.  The
fork server is a fresh single-threaded interpreter that holds none of
this.

The stdlib does not share a fork server across processes.  The hosts
of ``solve_dist`` are threads, so their workers come from the caller's
server; only a ``dist-work`` process launches a server of its own, for
the one query it serves.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from multiprocessing import forkserver
from multiprocessing.context import BaseContext
from pathlib import Path
from typing import Optional

#: Modules the fork server imports before it forks any child: the
#: warm-up in :mod:`repro.preload`, which imports the cube worker's
#: whole path and generates every propagation-kernel family, so a child
#: does neither after its fork.  That adds some 0.07 s to the server's
#: start, once per process; only a ``dist-work`` host launches a server
#: for a single query.  A harness task imports its own entry module.
PRELOAD = ("repro.preload",)

#: Grace between SIGTERM and SIGKILL.  The TERM gives a worker's
#: flight-recorder signal handler (see
#: ``repro.obs.telemetry.install_crash_dump_handler``) a chance to dump
#: its ring before the unconditional kill.
TERM_GRACE = 1.0

#: The directory ``repro`` is imported from.
_PACKAGE_ROOT = str(Path(__file__).resolve().parent.parent)

_lock = threading.Lock()
#: Pid of the process whose fork server :func:`_start_server` launched;
#: a forked child sees its parent's pid here and launches its own.
_launched_in: Optional[int] = None


def context() -> BaseContext:
    """The context to start solver children from: the preloaded fork
    server (launched on the first call in this process), or ``spawn``
    where the platform has no fork server."""
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")
    _start_server()
    return multiprocessing.get_context("forkserver")


def _start_server() -> None:
    """Launch this process's fork server with :data:`PRELOAD` and the
    package root on its ``PYTHONPATH``.

    CPython's fork server (3.11, 3.12) ignores the ``sys_path`` it is
    given and silently drops a preload that raises ``ImportError``.  A
    caller that reaches ``repro`` only through a run-time ``sys.path``
    insert would get a server that preloads nothing, and every child
    would import the solver itself.  So the server is launched with the
    package root on ``PYTHONPATH``, and the caller's environment is
    restored right after; the server and the children it forks keep the
    root on theirs.  A server the stdlib relaunches after it died starts
    without the root and only loses the preload, not correctness.
    """
    global _launched_in
    with _lock:
        if _launched_in == os.getpid():
            return
        forkserver.set_forkserver_preload(list(PRELOAD))
        saved = os.environ.get("PYTHONPATH")
        entries = saved.split(os.pathsep) if saved else []
        if _PACKAGE_ROOT not in entries:
            os.environ["PYTHONPATH"] = os.pathsep.join(
                [_PACKAGE_ROOT] + entries
            )
        try:
            forkserver.ensure_running()
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved
        _launched_in = os.getpid()


def terminate_then_kill(
    process: multiprocessing.process.BaseProcess,
    grace: float = TERM_GRACE,
    wait: float = 0.0,
) -> None:
    """Stop a started child and reap it: give it ``wait`` seconds to
    exit on its own (after the caller's cooperative stop), then SIGTERM,
    ``grace`` seconds, then SIGKILL."""
    process.join(wait)
    if process.is_alive():
        process.terminate()
        process.join(grace)
        if process.is_alive():
            process.kill()
    process.join()
