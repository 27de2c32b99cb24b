"""Cube-and-conquer portfolio solving with cross-worker clause sharing.

One satisfiability query, many diversified solvers: a bounded lookahead
splitter carves the problem into disjoint *cubes*
(:mod:`repro.portfolio.cubes`), a rotation of solver configurations
makes the workers explore differently (:mod:`repro.portfolio.diversify`),
short learned clauses flow between workers through the master
(:mod:`repro.portfolio.share`), and the cube ledger
(:mod:`repro.portfolio.ledger`) applies the result semantics: first SAT
anywhere wins, UNSAT needs the root cube or every split cube refuted.
Worker processes run under :class:`~repro.portfolio.pool.WorkerPool`,
fed by a one-host cube hub (:mod:`repro.dist`).

:func:`repro.portfolio.solve.solve_portfolio` is the entry point; it
falls back to a deterministic single-process mode for tests and
non-picklable problems.
"""

from repro.portfolio.cubes import Cube, CubeReport, generate_cubes
from repro.portfolio.diversify import rotation_size, worker_config
from repro.portfolio.ledger import CubeResult
from repro.portfolio.pool import PortfolioError
from repro.portfolio.share import (
    ClauseExporter,
    ClauseImporter,
    ShareChannel,
    clause_payload_key,
    deserialize_clause,
    serialize_clause,
)
from repro.portfolio.solve import (
    default_cube_depth,
    prove_by_induction_portfolio,
    replay_model,
    solve_portfolio,
)
from repro.portfolio.worker import ProblemSpec, WorkerSpec, build_problem

__all__ = [
    "Cube",
    "CubeReport",
    "ClauseExporter",
    "ClauseImporter",
    "CubeResult",
    "PortfolioError",
    "ProblemSpec",
    "ShareChannel",
    "WorkerSpec",
    "build_problem",
    "clause_payload_key",
    "default_cube_depth",
    "deserialize_clause",
    "generate_cubes",
    "prove_by_induction_portfolio",
    "replay_model",
    "rotation_size",
    "serialize_clause",
    "solve_portfolio",
    "worker_config",
]
