"""HDPLL core: the paper's primary contribution.

* :class:`HdpllSolver` / :func:`solve_circuit` — Algorithm 1, one-shot
  or as a persistent session over many queries.
* :mod:`repro.core.predlearn` — Section 3 predicate learning.
* :mod:`repro.core.justify` — Section 4 structural decision strategy.
* :mod:`repro.core.recursive` — classic recursive learning (Section 2.3).
"""

from repro.core.abstraction import (
    AbstractionResult,
    predicate_abstraction_check,
    state_predicates,
)
from repro.core.config import (
    HDPLL_BASE,
    HDPLL_P,
    HDPLL_S,
    HDPLL_SP,
    SolverConfig,
)
from repro.core.hdpll import HdpllSolver, solve_circuit
from repro.core.predlearn import (
    LearnReport,
    frame_span,
    run_predicate_learning,
    shift_name,
)
from repro.core.recursive import RecursiveLearner, justification_options
from repro.core.result import SolverResult, SolverStats, Status

__all__ = [
    "AbstractionResult",
    "HDPLL_BASE",
    "HDPLL_P",
    "HDPLL_S",
    "HDPLL_SP",
    "HdpllSolver",
    "LearnReport",
    "RecursiveLearner",
    "SolverConfig",
    "SolverResult",
    "SolverStats",
    "Status",
    "frame_span",
    "justification_options",
    "predicate_abstraction_check",
    "run_predicate_learning",
    "shift_name",
    "solve_circuit",
    "state_predicates",
]
