"""Differential tests: optimized propagation vs a naive reference.

The optimized fast path — event-kind-filtered wakeups, the two-tier
worklist, two-watched-literal clause visits and the flat lo/hi bound
arrays — must be behaviourally invisible.  Two oracles check that over
hundreds of randomized circuits:

* the level-0 fixpoint (domains and conflict-ness) matches a naive
  reference engine that simply re-runs every propagator and re-examines
  every clause until the trail stops growing, and
* full HDPLL solves agree with brute-force enumeration of the input
  space, with every SAT model verified by simulation.
"""

from __future__ import annotations

import os
import random
from itertools import product
from typing import List, Optional, Sequence

from repro.constraints import (
    Clause,
    ClauseDatabase,
    Conflict,
    DomainStore,
    PropagationEngine,
    compile_circuit,
    make_bool_lit,
)
from repro.core import SolverConfig, Status, solve_circuit
from repro.harness.parallel import Task, run_tasks
from repro.intervals import Interval
from repro.itc99.generator import random_combinational_circuit
from repro.rtl.simulate import simulate_combinational

#: Parameter sets alternated across seeds, for shape diversity.
_PARAM_SETS = (
    dict(num_word_inputs=2, width=3, operations=8),
    dict(num_word_inputs=2, width=4, operations=12),
)

#: Seeds per oracle; REPRO_TEST_JOBS>1 fans the chunks out over the
#: worker pool (defaults to the inline sequential path).
_NUM_SEEDS = 200
_CHUNK = 25


def _test_jobs() -> int:
    return int(os.environ.get("REPRO_TEST_JOBS", "1"))


def _engine_impls() -> List[str]:
    """Propagation-core impls swept by the differential oracles.

    ``REPRO_TEST_ENGINES`` (comma-separated) restricts the sweep; the
    default is both cores, the reference oracle first.
    """
    requested = os.environ.get("REPRO_TEST_ENGINES")
    if requested:
        return [name.strip() for name in requested.split(",") if name.strip()]
    return ["reference", "specialized"]


def _run_chunked(worker, label: str) -> List[str]:
    """Fan seed chunks over the pool; merge per-chunk failure lists."""
    chunks = [
        range(start, min(start + _CHUNK, _NUM_SEEDS))
        for start in range(0, _NUM_SEEDS, _CHUNK)
    ]
    tasks = [
        Task(
            fn=worker,
            args=(tuple(chunk),),
            label=f"{label}[{chunk[0]}:{chunk[-1] + 1}]",
        )
        for chunk in chunks
    ]
    failures: List[str] = []
    for outcome in run_tasks(tasks, jobs=_test_jobs()):
        if outcome.ok:
            failures.extend(outcome.value)
        else:
            failures.append(f"{outcome.label}: worker failed: {outcome.error}")
    return failures


def _reference_fixpoint(store, propagators, clause_db) -> Optional[Conflict]:
    """Naive Ddeduce: run everything until the trail stops growing."""
    while True:
        mark = len(store.trail)
        for propagator in propagators:
            conflict = propagator.propagate(store)
            if conflict is not None:
                return conflict
        conflict = clause_db.recheck_all()
        if conflict is not None:
            return conflict
        if len(store.trail) == mark:
            return None


def _random_bool_clauses(rng: random.Random, variables) -> List[List]:
    """Literal specs (var, value) for a few random Boolean clauses."""
    bools = [v for v in variables if v.is_bool]
    specs = []
    for _ in range(rng.randint(0, 3)):
        if len(bools) < 2:
            break
        chosen = rng.sample(bools, rng.randint(2, min(3, len(bools))))
        specs.append([(var, rng.randint(0, 1)) for var in chosen])
    return specs


def _fixpoint_pair(
    seed: int, impl: str = "reference", with_reference: bool = True
):
    """Level-0 fixpoints of the optimized and reference engines.

    ``with_reference=False`` skips the naive-oracle run (the expensive
    half) and returns ``None`` in its place — the impl sweep only needs
    one oracle fixpoint per seed.
    """
    circuit = random_combinational_circuit(
        seed, **_PARAM_SETS[seed % len(_PARAM_SETS)]
    )
    system = compile_circuit(circuit)
    rng = random.Random(seed * 7919 + 13)
    clause_specs = _random_bool_clauses(rng, system.variables)
    flag_value = rng.randint(0, 1)
    width = _PARAM_SETS[seed % len(_PARAM_SETS)]["width"]
    w0_lo = rng.randint(0, (1 << width) - 1)
    w0_hi = rng.randint(w0_lo, (1 << width) - 1)

    def run_optimized():
        store = DomainStore(system.variables)
        engine = PropagationEngine(store, system.propagators, impl=impl)
        for spec in clause_specs:
            clause = Clause(
                tuple(make_bool_lit(var, value) for var, value in spec)
            )
            conflict = engine.add_clause(clause)
            if conflict is not None:
                return store, conflict
        engine.enqueue_all()
        conflict = engine.propagate()
        if conflict is not None:
            return store, conflict
        for name, interval in (
            ("flag", Interval.point(flag_value)),
            ("w0", Interval.make(w0_lo, w0_hi)),
        ):
            outcome = store.assume(system.var_by_name(name), interval)
            if isinstance(outcome, Conflict):
                return store, outcome
        engine.enqueue_all()
        return store, engine.propagate()

    def run_reference():
        store = DomainStore(system.variables)
        clause_db = ClauseDatabase(store)
        for spec in clause_specs:
            clause = Clause(
                tuple(make_bool_lit(var, value) for var, value in spec)
            )
            conflict = clause_db.add_clause(clause)
            if conflict is not None:
                return store, conflict
        conflict = _reference_fixpoint(store, system.propagators, clause_db)
        if conflict is not None:
            return store, conflict
        for name, interval in (
            ("flag", Interval.point(flag_value)),
            ("w0", Interval.make(w0_lo, w0_hi)),
        ):
            outcome = store.assume(system.var_by_name(name), interval)
            if isinstance(outcome, Conflict):
                return store, outcome
        return store, _reference_fixpoint(
            store, system.propagators, clause_db
        )

    return run_optimized(), (run_reference() if with_reference else None)


def _trail_key(store) -> List[tuple]:
    """Bit-for-bit trail fingerprint: every event's observable fields."""
    return [
        (
            event.var.index,
            event.new.lo,
            event.new.hi,
            event.level,
            event.kinds,
            event.prev_on_var,
            len(event.antecedents),
        )
        for event in store.trail
    ]


def _fixpoint_chunk(seeds: Sequence[int]) -> List[str]:
    """Compare engines over a seed range; return failure messages."""
    impls = _engine_impls()
    failures: List[str] = []
    for seed in seeds:
        runs = {}
        naive = None
        for index, impl in enumerate(impls):
            (opt_store, opt_conflict), oracle = _fixpoint_pair(
                seed, impl, with_reference=index == 0
            )
            runs[impl] = (opt_store, opt_conflict)
            if oracle is not None:
                naive = oracle
        ref_store, ref_conflict = naive
        for impl, (opt_store, opt_conflict) in runs.items():
            if (opt_conflict is None) != (ref_conflict is None):
                failures.append(
                    f"seed {seed} [{impl}]: optimized conflict "
                    f"{opt_conflict!r} vs reference {ref_conflict!r}"
                )
                continue
            if opt_conflict is None:
                if opt_store.lo != ref_store.lo:
                    failures.append(f"seed {seed} [{impl}]: lo differs")
                if opt_store.hi != ref_store.hi:
                    failures.append(f"seed {seed} [{impl}]: hi differs")
                if opt_store.domains != ref_store.domains:
                    failures.append(
                        f"seed {seed} [{impl}]: interned domains differ"
                    )
        # Accelerated impls must match the reference *engine* (not just
        # the naive oracle) bit-for-bit: identical trail events in
        # identical order, and identical conflict shape.
        base_impl = impls[0]
        base_store, base_conflict = runs[base_impl]
        base_trail = _trail_key(base_store)
        for impl in impls[1:]:
            store, conflict = runs[impl]
            if _trail_key(store) != base_trail:
                failures.append(
                    f"seed {seed}: trail of {impl} differs from "
                    f"{base_impl}"
                )
            if (conflict is None) != (base_conflict is None):
                failures.append(
                    f"seed {seed}: conflict-ness of {impl} differs "
                    f"from {base_impl}"
                )
            elif conflict is not None and base_conflict is not None:
                if (
                    conflict.var is not None
                ) != (base_conflict.var is not None) or len(
                    conflict.antecedents
                ) != len(base_conflict.antecedents):
                    failures.append(
                        f"seed {seed}: conflict shape of {impl} differs "
                        f"from {base_impl}"
                    )
    return failures


def test_level0_fixpoint_matches_reference():
    """Every engine impl reaches the naive fixpoint, bit-for-bit alike."""
    failures = _run_chunked(_fixpoint_chunk, "fixpoint")
    assert not failures, "\n".join(failures)


def _brute_force_sat(circuit, width: int) -> bool:
    """Does any input assignment drive the flag output to 1?"""
    word_inputs = [net for net in circuit.inputs if net.width > 1]
    bool_inputs = [net for net in circuit.inputs if net.width == 1]
    word_range = range(1 << width)
    for word_values in product(word_range, repeat=len(word_inputs)):
        for bool_values in product((0, 1), repeat=len(bool_inputs)):
            values = {
                net.name: value
                for net, value in zip(word_inputs, word_values)
            }
            values.update(
                {
                    net.name: value
                    for net, value in zip(bool_inputs, bool_values)
                }
            )
            if simulate_combinational(circuit, values)["flag"] == 1:
                return True
    return False


def _bruteforce_chunk(seeds: Sequence[int]) -> List[str]:
    """Solver-vs-enumeration oracle over a seed range.

    Every engine impl solves every (seed, config) cell; besides the
    enumeration oracle, accelerated impls must reproduce the reference
    impl's search bit-for-bit — same status, same model, same decision/
    conflict/propagation counts.
    """
    impls = _engine_impls()
    configs = {
        "hdpll": dict(),
        "hdpll+sp": dict(
            structural_decisions=True, predicate_learning=True
        ),
    }
    width = 3
    failures: List[str] = []
    for seed in seeds:
        circuit = random_combinational_circuit(
            seed, num_word_inputs=2, width=width, operations=8
        )
        expected = _brute_force_sat(circuit, width)
        for label, options in configs.items():
            results = {}
            for impl in impls:
                config = SolverConfig(engine_impl=impl, **options)
                result = solve_circuit(circuit, {"flag": 1}, config)
                results[impl] = result
                tag = f"{label}/{impl}"
                if result.status is Status.UNKNOWN:
                    failures.append(
                        f"seed {seed} [{tag}]: unexpected UNKNOWN "
                        f"({result.note})"
                    )
                    continue
                if result.is_sat != expected:
                    failures.append(
                        f"seed {seed} [{tag}]: solver says "
                        f"{result.status.value}, brute force says "
                        f"{'sat' if expected else 'unsat'}"
                    )
                    continue
                if result.is_sat:
                    inputs = {
                        net.name: result.model[net.name]
                        for net in circuit.inputs
                    }
                    replay = simulate_combinational(circuit, inputs)
                    if replay["flag"] != 1:
                        failures.append(
                            f"seed {seed} [{tag}]: model fails simulation"
                        )
            base_impl = impls[0]
            base = results[base_impl]
            for impl in impls[1:]:
                result = results[impl]
                if result.status is not base.status:
                    failures.append(
                        f"seed {seed} [{label}]: {impl} status "
                        f"{result.status.value} vs {base_impl} "
                        f"{base.status.value}"
                    )
                    continue
                if result.model != base.model:
                    failures.append(
                        f"seed {seed} [{label}]: {impl} model differs "
                        f"from {base_impl}"
                    )
                for counter in (
                    "decisions",
                    "conflicts",
                    "propagations",
                    "narrowings",
                    "propagator_wakeups",
                ):
                    mine = getattr(result.stats, counter)
                    theirs = getattr(base.stats, counter)
                    if mine != theirs:
                        failures.append(
                            f"seed {seed} [{label}]: {impl} "
                            f"{counter}={mine} vs {base_impl} {theirs}"
                        )
    return failures


def test_solve_matches_bruteforce():
    """HDPLL status and model validity match input-space enumeration."""
    failures = _run_chunked(_bruteforce_chunk, "bruteforce")
    assert not failures, "\n".join(failures)
