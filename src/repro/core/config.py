"""Solver configuration.

The three solver configurations of the paper's Table 2 map to:

* HDPLL      — ``SolverConfig()`` (activity/fanout decision heuristic)
* HDPLL+S    — ``SolverConfig(structural_decisions=True)``
* HDPLL+S+P  — ``SolverConfig(structural_decisions=True,
                              predicate_learning=True)``

and Table 1's HDPLL+P is ``SolverConfig(predicate_learning=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for :class:`repro.core.hdpll.HdpllSolver`."""

    #: Section 4: justification-driven decision strategy (+S).
    structural_decisions: bool = False
    #: Section 3: static predicate learning pre-processing (+P).
    predicate_learning: bool = False
    #: Cap on the number of learned relations.  ``None`` applies the
    #: paper's Section 5.2 rule: min(#predicate logic gates, 2000).
    learning_threshold: Optional[int] = None
    #: Keep lower-level word narrowings as word literals in learned
    #: clauses — the paper's hybrid clauses ("HDPLL can learn clauses
    #: where the literals can be Boolean or word variables", Section
    #: 2.4).  On by default; turning it off (Boolean-only learning) is
    #: the ablation that shows why hybrid learning matters.
    hybrid_learned_clauses: bool = True
    #: Wall-clock limit in seconds (None = no limit).
    timeout: Optional[float] = None
    #: Conflict budget (None = no limit).
    max_conflicts: Optional[int] = None
    #: Conflicts before the first restart; 0 disables restarts.
    restart_interval: int = 256
    #: Restart schedule: ``"geometric"`` grows the interval by half
    #: after every restart; ``"luby"`` follows the Luby et al. sequence
    #: (1,1,2,1,1,2,4,...) scaled by ``restart_interval`` — the
    #: portfolio layer diversifies workers across both.
    restart_strategy: str = "geometric"
    #: Value tried first on a fresh decision variable.
    default_phase: int = 1
    #: Activity decay applied after each conflict (VSIDS-style).
    activity_decay: float = 0.95
    #: Branch budget for each Omega leaf call.
    omega_branch_budget: int = 200_000
    #: Strengthened mux backward rule in Ddeduce (ablation knob; the
    #: paper leaves select inference to the structural Decide).
    mux_select_implication: bool = False
    #: Export Section 4.4 phase hints from static learning (ablation
    #: knob; hurts counterexample search, see predlearn docs).
    learned_phase_hints: bool = False
    #: Hard cap on disposable learned clauses kept by long-lived solver
    #: sessions; LBD/activity-tiered eviction (core and reason clauses
    #: are never evicted) kicks in above it.  0 disables the cap.
    clause_db_max_learned: int = 8000
    #: Glucose-style recursive clause minimization: drop learned-clause
    #: literals whose trail events are implied (through the implication
    #: graph) by the remaining literals and level-0 facts.
    clause_minimization: bool = True
    #: Propagation inner-loop implementation: ``"specialized"``
    #: (generated per-propagator kernels, compiled once per family per
    #: process) or ``"reference"`` (the test oracle — dynamic dispatch
    #: through each propagator's ``propagate``).  The two are
    #: bit-for-bit equivalent: same trail, same conflicts, same models,
    #: same counters.
    engine_impl: str = "specialized"

    def with_overrides(self, **kwargs) -> "SolverConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


#: Paper configuration shorthands.
HDPLL_BASE = SolverConfig()
HDPLL_P = SolverConfig(predicate_learning=True)
HDPLL_S = SolverConfig(structural_decisions=True)
HDPLL_SP = SolverConfig(structural_decisions=True, predicate_learning=True)
