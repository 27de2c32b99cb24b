"""k-induction: unbounded safety proofs on top of the BMC engine.

BMC at bound k only *refutes* a property (or proves it up to depth k).
k-induction turns the same machinery into an unbounded prover:

* **Base case** — no violation in the first k frames (k BMC queries, or
  equivalently one query per depth).
* **Inductive step** — a time-frame window of k+1 states with *free*
  (unconstrained) starting registers, assuming the monitor holds in the
  first k frames, cannot violate it in frame k+1.  If this is UNSAT the
  property holds at every depth.

Both query sequences run on persistent incremental sessions
(:class:`repro.bmc.session.BmcSession`): one free-initial unrolling with
reset values asserted as retractable assumptions serves every base
depth, and a second fully-free unrolling serves every inductive step —
each new depth appends one compiled frame and inherits all learned
clauses (shifted forward in time) instead of restarting from scratch.

:func:`induction_loop` is the one depth loop and owns the verdict
rules; :func:`prove_by_induction` answers its queries on the two
sessions, and :func:`repro.portfolio.prove_by_induction_portfolio`
answers them with the cube-and-conquer portfolio (the CLI's ``prove
--portfolio``, ``-j`` wide).

This is the natural "unbounded" companion of the paper's evaluation:
the UNSAT BMC families (b02_1, b13_1...) are invariants, and k-induction
proves them once instead of once per bound.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.config import SolverConfig
from repro.core.result import SolverResult, Status
from repro.rtl.circuit import Circuit
from repro.bmc.property import SafetyProperty
from repro.bmc.session import BmcSession


class InductionStatus(enum.Enum):
    """Outcome of a k-induction run."""

    PROVED = "proved"          # property holds at every depth
    VIOLATED = "violated"      # base case found a counterexample
    UNDECIDED = "undecided"    # k limit or budget exhausted


@dataclass
class InductionResult:
    status: InductionStatus
    #: Induction depth that closed the proof (PROVED) or the depth of
    #: the counterexample (VIOLATED).
    k: int = 0
    #: Counterexample model over the unrolled nets (VIOLATED only).
    counterexample: Optional[Dict[str, int]] = None
    note: str = ""
    #: Per-depth timings for diagnostics.
    base_seconds: List[float] = field(default_factory=list)
    step_seconds: List[float] = field(default_factory=list)
    #: Per-depth solver statistics: one dict per attempted depth with
    #: ``k``, base/step ``decisions``/``conflicts`` and the session's
    #: probe-cache hit rate at that depth.
    depth_stats: List[Dict[str, object]] = field(default_factory=list)


def _depth_entry(k: int) -> Dict[str, object]:
    return {
        "k": k,
        "base_decisions": 0,
        "base_conflicts": 0,
        "step_decisions": 0,
        "step_conflicts": 0,
        "probe_cache_hit_rate": 0.0,
    }


def _fill_depth(entry: Dict[str, object], kind: str, result) -> None:
    entry[f"{kind}_decisions"] = result.stats.decisions
    entry[f"{kind}_conflicts"] = result.stats.conflicts
    entry["probe_cache_hit_rate"] = max(
        float(entry["probe_cache_hit_rate"]),  # type: ignore[arg-type]
        result.stats.probe_cache_hit_rate,
    )


def induction_loop(
    max_k: int,
    timeout: Optional[float],
    query: Callable[[str, int, Optional[float]], SolverResult],
) -> InductionResult:
    """The k-induction depth loop, over any way of answering its queries.

    ``query(kind, k, budget)`` answers the ``"base"`` or ``"step"``
    query at depth ``k`` within ``budget`` seconds (None: the solver's
    own limit); ``timeout`` bounds the whole run.
    """
    deadline = time.monotonic() + timeout if timeout is not None else None
    result = InductionResult(status=InductionStatus.UNDECIDED)

    def ask(kind: str, k: int, seconds: List[float], depth) -> SolverResult:
        budget = (
            max(0.0, deadline - time.monotonic())
            if deadline is not None
            else None
        )
        start = time.monotonic()
        answer = query(kind, k, budget)
        seconds.append(time.monotonic() - start)
        _fill_depth(depth, kind, answer)
        return answer

    for k in range(1, max_k + 1):
        if deadline is not None and time.monotonic() > deadline:
            result.note = f"timeout before depth {k}"
            return result
        depth = _depth_entry(k)
        result.depth_stats.append(depth)

        # Base case: no violation at depth exactly k.
        base = ask("base", k, result.base_seconds, depth)
        if base.status is Status.UNKNOWN:
            result.note = f"base case budget exhausted at depth {k}"
            return result
        if base.is_sat:
            result.status = InductionStatus.VIOLATED
            result.k = k
            result.counterexample = base.model
            return result

        # Inductive step: ok in frames 0..k-1 (free start) forces ok in
        # frame k.
        step = ask("step", k, result.step_seconds, depth)
        if step.status is Status.UNKNOWN:
            result.note = f"inductive step budget exhausted at depth {k}"
            return result
        if step.is_unsat:
            result.status = InductionStatus.PROVED
            result.k = k
            return result
    result.note = f"not inductive up to k = {max_k}"
    return result


def prove_by_induction(
    circuit: Circuit,
    prop: SafetyProperty,
    max_k: int = 10,
    config: Optional[SolverConfig] = None,
    timeout: Optional[float] = None,
) -> InductionResult:
    """Attempt an unbounded proof of a safety property by k-induction.

    Runs :func:`induction_loop` over two incremental sessions, one for
    the base queries and one for the inductive steps.
    """
    config = config or SolverConfig()
    base_session = BmcSession(circuit, prop, config, base=True)
    step_session = BmcSession(circuit, prop, config, base=False)

    def query(kind: str, k: int, budget: Optional[float]) -> SolverResult:
        if kind == "base":
            return base_session.solve_bound(k, timeout=budget)
        return step_session.solve_step(k, timeout=budget)

    return induction_loop(max_k, timeout, query)
