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

With ``jobs >= 2`` (the CLI's ``-j``), each depth's base and step
queries run *concurrently* on the crash-isolated worker pool as one-shot
solves; a SAT base case is the only sound early decision (it settles the
whole run as VIOLATED), so it kills the in-flight step worker.

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
from repro.core.hdpll import solve_circuit
from repro.core.result import SolverResult, Status
from repro.rtl.circuit import Circuit
from repro.bmc.property import SafetyProperty, make_bmc_instance
from repro.bmc.session import BmcSession
from repro.bmc.unroll import frame_name, unroll_free_initial


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
    jobs: int = 1,
    case: Optional[str] = None,
) -> InductionResult:
    """Attempt an unbounded proof of a safety property by k-induction.

    ``jobs >= 2`` with a registry ``case`` name runs each depth's base
    and step queries concurrently on the worker pool (one-shot solves,
    first-conclusive-finisher decides); otherwise the incremental
    session path runs them sequentially.
    """
    config = config or SolverConfig()
    if jobs >= 2 and case is not None:
        return _prove_parallel(
            case, max_k=max_k, config=config, timeout=timeout, jobs=jobs
        )
    base_session = BmcSession(circuit, prop, config, base=True)
    step_session = BmcSession(circuit, prop, config, base=False)

    def query(kind: str, k: int, budget: Optional[float]) -> SolverResult:
        if kind == "base":
            return base_session.solve_bound(k, timeout=budget)
        return step_session.solve_step(k, timeout=budget)

    return induction_loop(max_k, timeout, query)


# ----------------------------------------------------------------------
# Parallel per-depth path (CLI -j >= 2)
# ----------------------------------------------------------------------
def _depth_query_worker(
    case: str,
    kind: str,
    k: int,
    timeout: Optional[float],
    structural: bool,
    predicate: bool,
):
    """One-shot base or step query at depth ``k`` (pool worker body).

    Rebuilds the circuit from the ITC99 registry by ``case`` name so the
    task description stays picklable and tiny (pool workers unpickle
    this function by reference).
    """
    from repro.itc99 import CIRCUITS, circuit as get_circuit

    circuit_name, _, property_name = case.partition("_")
    sequential = get_circuit(circuit_name)
    prop = CIRCUITS[circuit_name][1][property_name]
    config = SolverConfig(
        structural_decisions=structural,
        predicate_learning=predicate,
        timeout=timeout,
    )
    if kind == "base":
        instance = make_bmc_instance(sequential, prop, k)
        result: SolverResult = solve_circuit(
            instance.circuit, instance.assumptions, config
        )
    else:
        step_circuit = unroll_free_initial(sequential, k + 1)
        assumptions: Dict[str, int] = {
            frame_name(prop.ok_signal, frame): 1 for frame in range(k)
        }
        assumptions[frame_name(prop.ok_signal, k)] = 0
        result = solve_circuit(step_circuit, assumptions, config)
    return (
        kind,
        result.status.value,
        result.model,
        {
            "decisions": result.stats.decisions,
            "conflicts": result.stats.conflicts,
        },
    )


def _prove_parallel(
    case: str,
    max_k: int,
    config: SolverConfig,
    timeout: Optional[float],
    jobs: int,
) -> InductionResult:
    """Per-depth base/step queries racing on the worker pool.

    Only a SAT base case is a sound early decision (VIOLATED ends the
    whole run); a step verdict always waits for its depth's base result,
    so the stop predicate fires on base-SAT alone.
    """
    from repro.harness.parallel import Task, run_tasks

    deadline = time.monotonic() + timeout if timeout is not None else None
    result = InductionResult(status=InductionStatus.UNDECIDED)
    for k in range(1, max_k + 1):
        if deadline is not None and time.monotonic() > deadline:
            result.note = f"timeout before depth {k}"
            return result
        budget = (
            max(0.0, deadline - time.monotonic())
            if deadline is not None
            else config.timeout
        )
        tasks = [
            Task(
                fn=_depth_query_worker,
                args=(
                    case,
                    kind,
                    k,
                    budget,
                    config.structural_decisions,
                    config.predicate_learning,
                ),
                timeout=budget,
                label=f"{case} {kind} k={k}",
            )
            for kind in ("base", "step")
        ]
        start = time.monotonic()
        outcomes = run_tasks(
            tasks,
            jobs=min(jobs, 2),
            stop_when=lambda outcome: (
                outcome.value[0] == "base" and outcome.value[1] == "sat"
            ),
        )
        elapsed = time.monotonic() - start
        result.base_seconds.append(elapsed)
        result.step_seconds.append(elapsed)
        depth = _depth_entry(k)
        result.depth_stats.append(depth)
        by_kind = {
            outcome.value[0]: outcome
            for outcome in outcomes
            if outcome.ok
        }

        base = by_kind.get("base")
        if base is None:
            failed = outcomes[0]
            result.note = (
                f"base query failed at depth {k}: {failed.error}"
            )
            return result
        _kind, base_status, base_model, base_stats = base.value
        depth["base_decisions"] = base_stats["decisions"]
        depth["base_conflicts"] = base_stats["conflicts"]
        if base_status == "sat":
            result.status = InductionStatus.VIOLATED
            result.k = k
            result.counterexample = base_model
            return result
        if base_status == "unknown":
            result.note = f"base case budget exhausted at depth {k}"
            return result

        step = by_kind.get("step")
        if step is None:
            result.note = (
                f"step query failed at depth {k}: {outcomes[1].error}"
            )
            return result
        _kind, step_status, _model, step_stats = step.value
        depth["step_decisions"] = step_stats["decisions"]
        depth["step_conflicts"] = step_stats["conflicts"]
        if step_status == "unknown":
            result.note = f"inductive step budget exhausted at depth {k}"
            return result
        if step_status == "unsat":
            result.status = InductionStatus.PROVED
            result.k = k
            return result
    result.note = f"not inductive up to k = {max_k}"
    return result
