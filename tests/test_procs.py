"""Tests for :mod:`repro.procs`: where solver children come from and how
they are stopped.

The child targets live at module level because a child unpickles its
target by reference.  This module imports nothing from ``repro`` but
:mod:`repro.procs`, so a solver module a child finds already imported
was put there by the fork server's preload.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from multiprocessing import forkserver
from pathlib import Path

import pytest

from repro import procs

REPO_ROOT = Path(__file__).resolve().parents[1]

needs_forkserver = pytest.mark.skipif(
    "forkserver" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork server",
)


def _cold_families():
    """Kernel families this process would still have to generate (None
    when the kernel compiler was never imported)."""
    compile_mod = sys.modules.get("repro.constraints.compile")
    if compile_mod is None:
        return None
    return [
        repr(family)
        for family in compile_mod.KERNEL_FAMILIES
        if family not in compile_mod._KERNEL_FACTORIES
    ]


def _report(conn):
    conn.send(
        {
            "ppid": os.getppid(),
            "preloaded": [name for name in procs.PRELOAD if name in sys.modules],
            "cold_families": _cold_families(),
        }
    )
    conn.close()


def _build_learn_and_solve(conn):
    """What a cube worker does after its fork: rebuild a registry
    problem, learn and solve it.  Reports the modules this imported and
    the kernel families it generated."""
    modules = set(sys.modules)
    compile_mod = sys.modules.get("repro.constraints.compile")
    families = set(getattr(compile_mod, "_KERNEL_FACTORIES", ()))
    from repro.core import HdpllSolver, SolverConfig
    from repro.portfolio import ProblemSpec, build_problem, worker_config

    circuit, assumptions = build_problem(ProblemSpec("instance", "b13_1", 20))
    session = HdpllSolver(
        circuit, worker_config(SolverConfig(), 4), persistent=True
    )
    session.learn()
    status = session.solve(assumptions).status.value
    compile_mod = sys.modules["repro.constraints.compile"]
    conn.send(
        {
            "status": status,
            "imported": sorted(set(sys.modules) - modules),
            "generated": sorted(
                repr(family)
                for family in set(compile_mod._KERNEL_FACTORIES) - families
            ),
        }
    )
    conn.close()


def _ignore_sigterm_and_sleep(conn):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    conn.send("ready")
    time.sleep(60.0)


def _start_and_report(context, target=_report):
    """Start one child that reports its parent pid and preloaded
    modules (or runs another reporting ``target``); returns the report."""
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=target, args=(sender,), daemon=True)
    process.start()
    sender.close()
    try:
        assert receiver.poll(60.0), "child never reported"
        return receiver.recv()
    finally:
        process.join(10.0)
        assert not process.is_alive()
        receiver.close()


@needs_forkserver
def test_children_fork_from_the_preloaded_server():
    context = procs.context()
    assert context.get_start_method() == "forkserver"
    report = _start_and_report(context)
    assert report["ppid"] != os.getpid()
    assert report["ppid"] == forkserver._forkserver._forkserver_pid
    assert report["preloaded"] == list(procs.PRELOAD)
    assert report["cold_families"] == []


@needs_forkserver
def test_a_forked_worker_imports_nothing_and_generates_no_kernels():
    """The fork server's preload has done all of a cube worker's
    one-time work: a child that builds, learns and solves a registry
    instance imports no module and generates no kernel family."""
    report = _start_and_report(procs.context(), _build_learn_and_solve)
    assert report["status"] == "unsat"
    assert report["imported"] == []
    assert report["generated"] == []


#: Run in a fresh interpreter that reaches ``repro`` only through a
#: ``sys.path`` insert, as ``python -m benchmarks.e2e`` does: records the
#: ``PYTHONPATH`` each fork-server launch sees, then starts one child.
_LAUNCH_SCRIPT = """
import json, multiprocessing.util, os, sys
sys.path[:0] = [{src!r}, {root!r}]
from repro import procs
from tests.test_procs import _start_and_report

launches = []
spawn = multiprocessing.util.spawnv_passfds

def spy(path, args, passfds):
    if any("forkserver import main" in os.fsdecode(arg) for arg in args):
        launches.append(os.environ.get("PYTHONPATH"))
    return spawn(path, args, passfds)

multiprocessing.util.spawnv_passfds = spy
before = dict(os.environ)
procs.context()
context = procs.context()
print(json.dumps({{
    "launches": launches,
    "environ_unchanged": dict(os.environ) == before,
    "report": _start_and_report(context),
}}))
"""


@needs_forkserver
@pytest.mark.parametrize("caller_path", [None, "elsewhere"])
def test_server_launch_gets_package_root_and_preloads(caller_path):
    """The server is launched once, with the package root first on its
    ``PYTHONPATH``, so its preload works although the stdlib's server
    ignores the caller's ``sys.path``; the caller's environment is left
    as it was.  The child inherits every kernel family: the stdlib's
    server swallows a preload's ``ImportError``, so a broken preload
    would show only here."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if caller_path is not None:
        env["PYTHONPATH"] = caller_path
    script = _LAUNCH_SCRIPT.format(
        src=str(REPO_ROOT / "src"), root=str(REPO_ROOT)
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    outcome = json.loads(result.stdout.splitlines()[-1])
    root = str(Path(procs.__file__).resolve().parents[1])
    expected = [root] + ([caller_path] if caller_path else [])
    assert outcome["launches"] == [os.pathsep.join(expected)]
    assert outcome["environ_unchanged"]
    assert outcome["report"]["preloaded"] == list(procs.PRELOAD)
    assert outcome["report"]["cold_families"] == []


def test_spawn_where_the_platform_has_no_fork_server(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    context = procs.context()
    assert context.get_start_method() == "spawn"
    assert _start_and_report(context)["ppid"] == os.getpid()


def test_terminate_then_kill_kills_a_child_that_ignores_sigterm():
    context = procs.context()
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(
        target=_ignore_sigterm_and_sleep, args=(sender,), daemon=True
    )
    process.start()
    sender.close()
    assert receiver.poll(60.0) and receiver.recv() == "ready"
    procs.terminate_then_kill(process, grace=0.2)
    assert not process.is_alive()
    assert process.exitcode == -signal.SIGKILL
    receiver.close()
