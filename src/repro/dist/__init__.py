"""Distributed cube-and-conquer: the cube hub and its worker hosts.

A :class:`~repro.dist.hub.CubeHub` owns one query's cube list and
serves it over NDJSON sockets to worker hosts
(:func:`~repro.dist.worker.run_worker_host`), each running a local pool
of diversified portfolio workers.  Learned clauses flow host-to-host
through the hub's LBD filter; lost hosts' and workers' cubes are
requeued.  The hub schedules every multi-process solve:
:func:`~repro.dist.run.run_hosts` attaches in-process hosts to it over
socketpairs, one for the local portfolio and several for
:func:`~repro.dist.run.solve_dist`, the single-machine driver the
benchmarks use; ``repro-hdpll dist-serve`` / ``dist-work`` are the
multi-machine CLI (see ``docs/distributed.md``).
"""

from repro.dist.hub import DEFAULT_LEASE_S, CubeHub, DistError
from repro.dist.run import solve_dist
from repro.dist.worker import HubClient, run_worker_host

__all__ = [
    "DEFAULT_LEASE_S",
    "CubeHub",
    "DistError",
    "HubClient",
    "run_worker_host",
    "solve_dist",
]
