"""Incremental BMC: one solver session swept over increasing bounds.

One-shot BMC re-unrolls, re-compiles and re-learns from scratch at every
bound.  :class:`BmcSession` instead keeps a single persistent
:class:`~repro.core.hdpll.HdpllSolver` alive over a growing free-initial
unrolling:

* **Frame-extension compile** — each new bound appends one time frame's
  nodes to the live compiled system (no recompilation of frames
  ``0..t``).
* **Learned-clause shifting** — the free-initial unrolling is
  time-invariant, so the substitution σ mapping every ``n@f`` to
  ``n@f+1`` embeds the ``d``-frame constraint system into the
  ``d+1``-frame system.  Any clause implied by the first is therefore
  implied by the second under σ, and conflict clauses learned at the
  previous top frame are re-instantiated one frame later instead of
  being re-derived by search.  (With reset *constants* baked into frame
  0 this embedding does not exist — which is exactly why the base-case
  session asserts reset values as retractable assumptions instead.)
* **Probe-cone caching** — predicate-learning probes a candidate once
  per distinct *structural cone*, not once per frame: per-frame copies
  of the same predicate gate hash to the same frame-relative signature,
  and the cached probe clauses are transplanted by the same σ-shift.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.constraints.clause import BoolLit, Clause, Literal, WordLit
from repro.core.config import SolverConfig
from repro.core.hdpll import HdpllSolver
from repro.core.predlearn import (
    clause_key,
    frame_of,
    frame_span,
    shift_name,
)
from repro.core.result import SolverResult, Status
from repro.obs import Observation
from repro.rtl.circuit import Circuit, Net
from repro.rtl.predicates import extract_predicates
from repro.rtl.types import OpKind
from repro.bmc.property import (
    SafetyProperty,
    check_property,
    initial_register_assumptions,
    make_bmc_instance,
)
from repro.bmc.unroll import IncrementalUnroller, frame_name


def cone_signature(net: Net, frame: int, memo: Dict[int, tuple]) -> tuple:
    """Frame-relative structural hash of the cone driving ``net``.

    Recurses through the in-frame combinational logic; any net tagged
    with an earlier frame becomes a symbolic boundary leaf ``("frame",
    delta, base)``.  Two candidates at different frames get equal
    signatures exactly when their cones are per-frame copies of the same
    logic referencing prior frames the same way — the condition under
    which cached probe clauses transplant soundly via a σ-shift.  Frame
    0 separates automatically: its register feeds are primary inputs
    (free-initial unrolling), not boundary references.
    """
    cached = memo.get(net.index)
    if cached is not None:
        return cached
    base, net_frame = frame_of(net.name)
    if net_frame is not None and net_frame < frame:
        signature: tuple = ("frame", frame - net_frame, base)
    else:
        node = net.driver
        if node is None or node.kind is OpKind.INPUT:
            signature = ("input", base)
        elif node.kind is OpKind.CONST:
            signature = ("const", node.const_value or 0, net.width)
        else:
            signature = (
                node.kind.value,
                net.width,
                node.factor,
                node.shift_amount,
                node.extract_lo,
                node.extract_hi,
                tuple(
                    cone_signature(operand, frame, memo)
                    for operand in node.operands
                ),
            )
    memo[net.index] = signature
    return signature


@dataclass
class _CacheEntry:
    frame: int
    clauses: List


@dataclass
class ProbeCache:
    """Probe results keyed by frame-relative cone signature."""

    entries: Dict[tuple, _CacheEntry] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def get(self, signature: tuple) -> Optional[_CacheEntry]:
        return self.entries.get(signature)

    def put(self, signature: tuple, frame: int, clauses: List) -> None:
        self.entries.setdefault(signature, _CacheEntry(frame, clauses))


#: Learned-clause origins that are pure search by-products — eligible
#: for forward shifting (predicate clauses travel via the probe cache).
_SHIFTABLE_ORIGINS = (
    "conflict",
    "fme-conflict",
    "j-conflict",
    "conflict-shifted",
)


class BmcSession:
    """A persistent solver over a growing free-initial unrolling.

    ``base=True`` additionally pins frame-0 registers to their reset
    values (as retractable assumptions) in every query — the base-case
    sequence.  ``base=False`` leaves them free — the inductive-step
    sequence.
    """

    def __init__(
        self,
        circuit: Circuit,
        prop: SafetyProperty,
        config: Optional[SolverConfig] = None,
        observation: Optional[Observation] = None,
        base: bool = True,
    ):
        check_property(circuit, prop)
        self.circuit = circuit
        self.prop = prop
        self.config = config or SolverConfig()
        self.base = base
        self.unroller = IncrementalUnroller(
            circuit,
            free_initial=True,
            name=f"{circuit.name}_{'base' if base else 'step'}",
        )
        self.unroller.extend(1)
        self.session = HdpllSolver(
            self.unroller.unrolled, self.config, observation, persistent=True
        )
        tracer = observation.tracer if observation is not None else None
        self._trace = tracer if tracer is not None and tracer.enabled else None
        self.cache = ProbeCache()
        #: Dedup keys of the shifted clauses installed so far.
        self._installed_keys: Set[Tuple] = set()
        self.clauses_shifted = 0
        self._init_assumptions = (
            initial_register_assumptions(circuit) if base else {}
        )
        if self.config.predicate_learning:
            self._learn_frame(0)

    # ------------------------------------------------------------------
    # Frame growth
    # ------------------------------------------------------------------
    def extend_to(self, frames: int) -> None:
        """Grow the unrolling (and the live solver) to ``frames``."""
        while self.unroller.frames < frames:
            nodes = self.unroller.extend(1)
            self.session.extend(nodes)
            new_top = self.unroller.frames - 1
            self._shift_learned(new_top)
            if self.config.predicate_learning:
                self._learn_frame(new_top)

    def _shift_learned(self, new_top: int) -> None:
        """Re-instantiate previous-top conflict clauses at the new top.

        Shifting only clauses whose frame span peaks at ``new_top - 1``
        keeps the work O(clauses-at-top) per extension while still
        carrying every compound forward frame by frame (a clause shifted
        into ``new_top`` peaks there, so the next extension shifts the
        copy again).
        """
        batch = []
        for clause in self.session.engine.clause_db.clauses:
            if not clause.learned or clause.origin not in _SHIFTABLE_ORIGINS:
                continue
            span = frame_span(lit.var.name for lit in clause.literals)
            if span is not None and span[1] == new_top - 1:
                batch.append(clause)
        installed = self.install_shifted(
            batch, lambda name: shift_name(name, 1)
        )
        trace = self._trace
        if trace is not None:
            trace.event(
                "clause-shift",
                dl=0,
                delta=1,
                shifted=len(batch),
                installed=installed,
            )

    def _learn_frame(self, frame: int) -> None:
        """Predicate-learn the new frame, probing each distinct cone once."""
        session = self.session
        if session.root_conflict:
            return
        candidates = [
            net
            for net in extract_predicates(
                self.unroller.unrolled
            ).learning_candidates
            if frame_of(net.name)[1] == frame
        ]
        memo: Dict[int, tuple] = {}
        trace = self._trace
        misses: List[Tuple[Net, tuple]] = []
        for net in candidates:
            signature = cone_signature(net, frame, memo)
            entry = self.cache.get(signature)
            if entry is not None:
                self.cache.hits += 1
                delta = frame - entry.frame
                self.install_shifted(
                    entry.clauses, lambda name: shift_name(name, delta)
                )
                if trace is not None:
                    trace.event(
                        "probe-cache",
                        dl=0,
                        outcome="hit",
                        candidate=net.name,
                        clauses=len(entry.clauses),
                    )
                if session.root_conflict:
                    return
            else:
                self.cache.misses += 1
                misses.append((net, signature))
        if not misses:
            return
        report = session.learn([net for net, _ in misses])
        for net, signature in misses:
            clauses = report.clauses_by_candidate.get(net.index)
            if clauses is not None:
                self.cache.put(signature, frame, clauses)
            if trace is not None:
                trace.event(
                    "probe-cache",
                    dl=0,
                    outcome="miss",
                    candidate=net.name,
                    clauses=len(clauses or ()),
                )

    # ------------------------------------------------------------------
    # Clause shifting
    # ------------------------------------------------------------------
    def install_shifted(
        self,
        clauses: Iterable[Clause],
        rename: Callable[[str], str],
    ) -> int:
        """Re-instantiate learned clauses under a variable renaming.

        Every literal's variable is mapped through ``rename`` and the
        solver's name table; a clause is skipped when any renamed
        variable does not exist (the target frame lacks that net) or
        when an identical clause was already installed here.
        Installation happens at level 0, so shifted unit facts become
        permanent domain narrowings — sound, because shifting is a
        syntactic embedding of the constraint system into itself (see
        docs/performance.md).  Returns the number installed.
        """
        installed = 0
        for clause in clauses:
            literals = self._rename_literals(clause.literals, rename)
            if literals is None:
                continue
            key = clause_key(literals)
            if key in self._installed_keys:
                continue
            self._installed_keys.add(key)
            origin = (
                "predicate-shifted"
                if clause.origin.startswith("predicate")
                else "conflict-shifted"
            )
            copy = Clause(literals=literals, learned=True, origin=origin)
            installed += 1
            if not self.session.add_clause(copy):
                # A root refutation: the clause is in the database and
                # every later query is UNSAT.  It still counts, and the
                # clause-DB cap below still runs on this exit.
                break
        self.clauses_shifted += installed
        cap = self.config.clause_db_max_learned
        if cap:
            self.session.engine.clause_db.enforce_cap(cap)
        return installed

    def _rename_literals(
        self,
        literals: Tuple[Literal, ...],
        rename: Callable[[str], str],
    ) -> Optional[Tuple[Literal, ...]]:
        renamed: List[Literal] = []
        for literal in literals:
            target = self.session.var_by_name.get(rename(literal.var.name))
            if target is None:
                return None
            if isinstance(literal, BoolLit):
                renamed.append(BoolLit(target, positive=literal.positive))
            elif isinstance(literal, WordLit):
                renamed.append(
                    WordLit(
                        target, literal.interval, positive=literal.positive
                    )
                )
            else:  # pragma: no cover - new literal kinds must be handled
                return None
        return tuple(renamed)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def solve_bound(
        self, bound: int, timeout: Optional[float] = None
    ) -> SolverResult:
        """BMC query: can the monitor be 0 at frame ``bound - 1``?"""
        self.extend_to(bound)
        assumptions: Dict[str, int] = dict(self._init_assumptions)
        assumptions[frame_name(self.prop.ok_signal, bound - 1)] = 0
        return self._stamp(self.session.solve(assumptions, timeout=timeout))

    def solve_step(
        self, k: int, timeout: Optional[float] = None
    ) -> SolverResult:
        """Inductive-step query at depth ``k`` (over ``k + 1`` frames)."""
        self.extend_to(k + 1)
        assumptions: Dict[str, int] = {
            frame_name(self.prop.ok_signal, frame): 1 for frame in range(k)
        }
        assumptions[frame_name(self.prop.ok_signal, k)] = 0
        assumptions.update(self._init_assumptions)
        return self._stamp(self.session.solve(assumptions, timeout=timeout))

    def _stamp(self, result: SolverResult) -> SolverResult:
        """Fold the shifting and probe-cache counters into a result."""
        stats = result.stats
        stats.clauses_shifted = self.clauses_shifted
        stats.probe_cache_hits = self.cache.hits
        stats.probe_cache_misses = self.cache.misses
        lookups = self.cache.hits + self.cache.misses
        stats.probe_cache_hit_rate = (
            self.cache.hits / lookups if lookups else 0.0
        )
        return result


# ----------------------------------------------------------------------
# Bound sweeps (the session-sweep ratio gate's engines)
# ----------------------------------------------------------------------
def bmc_sweep_session(
    circuit: Circuit,
    prop: SafetyProperty,
    bound: int,
    config: Optional[SolverConfig] = None,
    observation: Optional[Observation] = None,
    timeout: Optional[float] = None,
) -> List[SolverResult]:
    """Solve bounds ``1..bound`` incrementally with one session.

    ``timeout`` budgets the *whole sweep*; the sweep stops early when
    the budget runs out or a query returns UNKNOWN.
    """
    deadline = (
        time.perf_counter() + timeout if timeout is not None else None
    )
    session = BmcSession(
        circuit, prop, config, observation=observation, base=True
    )
    results: List[SolverResult] = []
    for b in range(1, bound + 1):
        remaining = None
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
        results.append(session.solve_bound(b, timeout=remaining))
        if results[-1].status is Status.UNKNOWN:
            break
    return results


def bmc_sweep_oneshot(
    circuit: Circuit,
    prop: SafetyProperty,
    bound: int,
    config: Optional[SolverConfig] = None,
    timeout: Optional[float] = None,
) -> List[SolverResult]:
    """Solve bounds ``1..bound`` from scratch (the baseline the
    session-sweep ratio gate compares the session sweep against).

    ``timeout`` budgets the whole sweep, like :func:`bmc_sweep_session`.
    """
    from repro.core.hdpll import solve_circuit

    config = config or SolverConfig()
    deadline = (
        time.perf_counter() + timeout if timeout is not None else None
    )
    results: List[SolverResult] = []
    for b in range(1, bound + 1):
        call_config = config
        if deadline is not None:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            call_config = config.with_overrides(timeout=remaining)
        instance = make_bmc_instance(circuit, prop, b)
        results.append(
            solve_circuit(instance.circuit, instance.assumptions, call_config)
        )
        if results[-1].status is Status.UNKNOWN:
            break
    return results
