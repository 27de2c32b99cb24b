"""Solver results and statistics.

:class:`SolverStats` used to be a dataclass with one field per counter;
it is now an attribute facade over a :class:`repro.obs.MetricsRegistry`
— the single source of truth for a run's numeric observability data.
Every pre-existing attribute (``stats.decisions``, ``stats.solve_time``,
...) keeps working, including augmented assignment, and *new* metrics
can be added by plain attribute assignment from anywhere in the solver:
integers auto-register as counters, floats as gauges.  ``as_dict()``
snapshots everything, which is how the harness builds its
:class:`~repro.harness.runner.RunRecord` without copying fields one
by one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry


class Status(enum.Enum):
    """Outcome of a satisfiability query."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # timeout or budget exhaustion


#: The registered solver metrics: name -> (kind, default).  Counters are
#: integer totals; gauges are float point-in-time values.  The set is
#: extensible at runtime — assigning an unlisted attribute on a
#: SolverStats registers it on the fly.
STAT_SPEC = {
    "decisions": ("counter", 0),
    "conflicts": ("counter", 0),
    "propagations": ("counter", 0),
    "learned_clauses": ("counter", 0),
    "restarts": ("counter", 0),
    "max_decision_level": ("counter", 0),
    #: Leaf checks: calls into the Omega integer solver.
    "fme_checks": ("counter", 0),
    #: Leaf checks that refuted the solution box.
    "fme_conflicts": ("counter", 0),
    #: Structural (justification) decisions taken.
    "structural_decisions": ("counter", 0),
    #: J-conflicts found by the structural strategy (Section 4.3).
    "j_conflicts": ("counter", 0),
    #: Relations learned by predicate learning (Section 3).
    "learned_relations": ("counter", 0),
    #: Propagator enqueues that passed the event-kind wake filter.
    "propagator_wakeups": ("counter", 0),
    #: Clauses examined during watched-literal propagation.
    "clause_visits": ("counter", 0),
    #: Watched-literal relocations (replacement watch found).
    "watch_moves": ("counter", 0),
    #: Queries answered by the owning persistent session so far.
    "session_solves": ("counter", 0),
    #: Learned clauses re-instantiated at a new time frame (sessions).
    "clauses_shifted": ("counter", 0),
    #: Predicate-probe cone-cache hits / misses (sessions).
    "probe_cache_hits": ("counter", 0),
    "probe_cache_misses": ("counter", 0),
    #: Learned clauses dropped by LBD/activity-tiered DB reduction/cap.
    "clauses_evicted": ("counter", 0),
    #: Mid-tier learned clauses demoted to the local tier (staleness).
    "clauses_demoted": ("counter", 0),
    #: Literals removed from first-UIP clauses by recursive minimization.
    "literals_minimized": ("counter", 0),
    #: End-of-solve clause-database tier sizes (disposable learned set).
    "clause_db_core": ("counter", 0),
    "clause_db_mid": ("counter", 0),
    "clause_db_local": ("counter", 0),
    #: Decision-heap health: successful selections vs lazily discarded
    #: stale entries (see :class:`repro.core.decide.ActivityOrder`).
    "heap_picks": ("counter", 0),
    "heap_stale_pops": ("counter", 0),
    #: Portfolio solving (cube-and-conquer, PR 5): cubes emitted by the
    #: lookahead splitter / solved to a verdict / refuted at generation.
    "cubes_generated": ("counter", 0),
    "cubes_solved": ("counter", 0),
    "cubes_refuted": ("counter", 0),
    #: Learned clauses shipped to / installed from portfolio peers.
    "clauses_exported": ("counter", 0),
    "clauses_imported": ("counter", 0),
    #: Node counts around the optional ``rtl.optimize`` pre-pass.
    "optimize_nodes_before": ("counter", 0),
    "optimize_nodes_after": ("counter", 0),
    #: Domain-store trail events (actual bound tightenings) this solve.
    "narrowings": ("counter", 0),
    #: Wall-clock seconds spent in predicate learning pre-processing.
    "learn_time": ("gauge", 0.0),
    #: Wall-clock seconds spent in search (excludes learn_time).
    "solve_time": ("gauge", 0.0),
    #: Wall-clock seconds spent inside FME leaf certification.
    "fme_time": ("gauge", 0.0),
    #: Interval interning cache hit rate over this solve (0.0 when the
    #: solve performed no interval constructions).
    "interval_cache_hit_rate": ("gauge", 0.0),
    #: hits / (hits + misses) of the probe cone cache (sessions).
    "probe_cache_hit_rate": ("gauge", 0.0),
    #: Propagation throughput over this solve's wall time (0.0 when the
    #: solve finished too fast to time).
    "props_per_sec": ("gauge", 0.0),
    "narrowings_per_sec": ("gauge", 0.0),
    #: installed / received for shared-clause import (portfolio).
    "share_import_hit_rate": ("gauge", 0.0),
    #: Mean recorded LBD over disposable learned clauses at solve end.
    "learned_lbd_mean": ("gauge", 0.0),
}


class SolverStats:
    """Counters the benchmark harness and tests inspect.

    Attribute reads/writes delegate to the underlying registry; see the
    module docstring.  ``SolverStats(decisions=5)`` still works, as does
    assigning brand-new attributes (they become registry metrics).
    """

    __slots__ = ("registry",)

    def __init__(self, **overrides):
        registry = MetricsRegistry()
        object.__setattr__(self, "registry", registry)
        for name, (kind, default) in STAT_SPEC.items():
            if kind == "counter":
                registry.counter(name).value = default
            else:
                registry.gauge(name).value = default
        for name, value in overrides.items():
            registry.set_value(name, value)

    def __getattr__(self, name: str):
        metric = self.registry.get(name)
        if metric is None:
            raise AttributeError(
                f"SolverStats has no metric {name!r}"
            )
        if metric.kind == "histogram":
            return metric
        return metric.value

    def __setattr__(self, name: str, value) -> None:
        self.registry.set_value(name, value)

    def as_dict(self, include_histograms: bool = True) -> Dict[str, object]:
        """Snapshot of every metric (histograms as summary dicts)."""
        return self.registry.as_dict(include_histograms=include_histograms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SolverStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(
            f"{name}={value!r}"
            for name, value in self.as_dict(include_histograms=False).items()
            if value
        )
        return f"SolverStats({parts})"


@dataclass
class SolverResult:
    """Status plus (for SAT) a full verified model."""

    status: Status
    #: net name -> value for every net of the circuit (SAT only).
    model: Optional[Dict[str, int]] = None
    stats: SolverStats = field(default_factory=SolverStats)
    #: Human-readable note, e.g. "timeout after 10.0s".
    note: str = ""

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is Status.UNSAT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SolverResult({self.status.value}, decisions="
            f"{self.stats.decisions}, conflicts={self.stats.conflicts})"
        )
