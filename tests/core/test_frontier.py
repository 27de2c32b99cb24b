"""The incremental J-frontier and order heap against from-scratch oracles.

``StructuralDecide`` keeps its live frontier between decisions and
re-checks only the candidates whose variables changed;
``ActivityOrder`` re-queues only the variables a backjump unassigned.
At every decision both must agree with a recomputation from nothing:
the frontier with today's full loop over the candidate set, the pick
with a pop from a freshly built heap.
"""

import heapq

import pytest

from repro.bmc.session import BmcSession
from repro.core import HDPLL_BASE, HDPLL_S, HDPLL_SP, HdpllSolver
from repro.intervals import Interval
from repro.itc99 import CIRCUITS, circuit, instance
from repro.rtl.levelize import levelize
from repro.rtl.predicates import extract_predicates
from tests.core.test_justify import make_structural, random_circuit

#: Heap entries per decision candidate, at most: a backjump rebuilds
#: the heap once it holds twice the candidates, and the entries pushed
#: before the next backjump (one learned clause's bumps and the
#: re-queued variables) stay below a tenth more.
HEAP_BOUND = 2.2

_levels_cache = {}


def _node_levels(circuit):
    """Node index -> level, memoized per circuit object and size (the
    entry keeps the circuit alive, so its id cannot be reused)."""
    key = (id(circuit), len(circuit.nodes))
    if key not in _levels_cache:
        levels = levelize(circuit)
        _levels_cache[key] = (
            circuit,
            {node.index: levels[node.output.index] for node in circuit.nodes},
        )
    return _levels_cache[key][1]


def oracle_frontier(decide):
    """The frontier from scratch: every candidate re-checked, by level."""
    system = decide.system
    live = []
    for node_index in decide._candidates:
        prop = system.prop_of_node.get(node_index)
        if prop is None:
            continue
        if decide._requirement(prop) is not None:
            live.append(node_index)
    level_of = _node_levels(system.circuit)
    live.sort(key=lambda index: -level_of[index])
    return live


def uncovered_outputs(decide):
    """Compiled nodes whose output has an event on the current trail but
    which are missing from the candidate set (must be none)."""
    system = decide.system
    latest_event = decide.store.latest_event
    return [
        node_index
        for node_index in system.prop_of_node
        if latest_event[
            system.var(system.circuit.nodes[node_index].output).index
        ]
        is not None
        and node_index not in decide._candidates
    ]


def oracle_pick(order, store):
    """The pick of a heap freshly built over every candidate."""
    heap = [
        (-order.activity[var.index], var.index) for var in order.candidates
    ]
    heapq.heapify(heap)
    while heap:
        _, index = heapq.heappop(heap)
        var = order._var_by_index[index]
        if not store.is_assigned(var):
            return var, order.phase.get(index, 1)
    return None


class Checker:
    """Wraps a solver's frontier and pick with the oracle comparisons."""

    def __init__(self):
        self.frontiers = 0
        self.picks = 0
        self.heap_ratio = 0.0

    def attach(self, solver):
        order = solver.order
        store = solver.store
        pick = order.pick
        backtracked = order.backtracked

        def checked_pick():
            expected = oracle_pick(order, store)
            picked = pick()
            assert picked == expected
            self.picks += 1
            return picked

        def measured_backtracked(popped):
            self._measure_heap(order)
            backtracked(popped)
            self._measure_heap(order)

        order.pick = checked_pick
        order.backtracked = measured_backtracked
        decide = solver._structural
        if decide is not None:
            next_decision = decide.next_decision

            def checked_next_decision():
                assert decide.frontier() == oracle_frontier(decide)
                assert not uncovered_outputs(decide)
                self.frontiers += 1
                return next_decision()

            decide.next_decision = checked_next_decision
        return self

    def _measure_heap(self, order):
        ratio = len(order._heap) / len(order.candidates)
        self.heap_ratio = max(self.heap_ratio, ratio)


def checked_solve(circuit, assumptions, config):
    solver = HdpllSolver(circuit, config)
    checker = Checker().attach(solver)
    return solver.solve(assumptions), checker


@pytest.mark.parametrize(
    "case,bound,config",
    [
        ("b13_40", 20, HDPLL_S),
        ("b06_40", 15, HDPLL_S),
        ("b04_1", 20, HDPLL_S),
        ("b03_40", 15, HDPLL_S),
        ("b06_40", 12, HDPLL_SP),
        ("b13_3", 12, HDPLL_SP),
        ("b02_1", 16, HDPLL_BASE),
        ("b13_1", 20, HDPLL_BASE),
    ],
)
def test_itc99_frontier_and_pick_match_oracles(case, bound, config):
    inst = instance(case, bound)
    result, checker = checked_solve(inst.circuit, inst.assumptions, config)
    assert result.status.value in ("sat", "unsat")
    assert checker.frontiers >= result.stats.structural_decisions
    assert checker.picks >= result.stats.decisions - (
        result.stats.structural_decisions
    )
    assert checker.heap_ratio <= HEAP_BOUND


def test_heap_stays_bounded_over_many_backjumps():
    # 185 backjumps, each re-queueing what it unassigned: the heap is
    # rebuilt only when it reaches twice the candidates.
    inst = instance("b02_1", 16)
    result, checker = checked_solve(inst.circuit, inst.assumptions, HDPLL_BASE)
    assert result.stats.conflicts > 100
    assert checker.picks > 100
    assert 1.5 < checker.heap_ratio <= HEAP_BOUND


@pytest.mark.parametrize("seed", range(40))
def test_random_circuits_match_oracles(seed):
    circuit, assumptions = random_circuit(seed)
    result, _checker = checked_solve(circuit, assumptions, HDPLL_S)
    assert result.status.value in ("sat", "unsat")


def test_persistent_session_with_learning_between_queries():
    inst = instance("b13_40", 12)
    # Learning switched on for the explicit ``learn`` calls only: a
    # persistent solver never learns on its own.
    session = HdpllSolver(
        inst.circuit,
        HDPLL_S.with_overrides(predicate_learning=True),
        persistent=True,
    )
    checker = Checker().attach(session)
    candidates = extract_predicates(inst.circuit).learning_candidates
    names = sorted(inst.assumptions)
    statuses = []
    for round_index in range(3):
        statuses.append(session.solve(inst.assumptions).status)
        # Probes push and pop levels through ``store.backtrack_to``
        # directly, bypassing the solver's backjump hook.
        chunk = candidates[round_index::3]
        session.learn(chunk)
        partial = {name: inst.assumptions[name] for name in names[:-1]}
        statuses.append(session.solve(partial).status)
    assert checker.frontiers > 0
    one_shot = HdpllSolver(inst.circuit, HDPLL_S).solve(inst.assumptions)
    assert statuses[0] is one_shot.status


@pytest.mark.parametrize("config", [HDPLL_S, HDPLL_SP])
def test_bmc_session_extending_frames(config):
    session = BmcSession(circuit("b13"), CIRCUITS["b13"][1]["40"], config)
    solver = session.session
    checker = Checker().attach(solver)
    decide = solver._structural
    statuses = []
    for bound in range(1, 16):
        # The step query at ``bound`` needs one frame more.
        session.extend_to(bound + 1)
        # Grown in place, the frontier state equals a fresh build's over
        # the same baseline (the one the extension's level-0 fixpoint
        # took, before shifted clauses and learning added facts).
        system = solver.system
        fresh = type(decide)(system, solver.store, solver.order)
        fresh._baseline = list(decide._baseline)
        assert decide.frontier() == fresh.frontier()
        assert list(decide._candidates) == list(fresh._candidates)
        level_of = _node_levels(system.circuit)
        assert list(decide._level_of) == [
            level_of[index] for index in range(len(system.circuit.nodes))
        ]
        assert decide._node_of_var == fresh._node_of_var
        assert _watch_lists(decide) == _watch_lists(fresh)
        statuses.append(session.solve_bound(bound).status.value)
        statuses.append(session.solve_step(bound).status.value)
    assert solver._structural is decide
    assert checker.frontiers > 0
    assert "sat" in statuses


def _watch_lists(decide):
    lists = []
    for var_index in range(len(decide._watch_head)):
        nodes = []
        entry = decide._watch_head[var_index]
        while entry >= 0:
            nodes.append(decide._watch_node[entry])
            entry = decide._watch_next[entry]
        lists.append(sorted(nodes))
    return lists


@pytest.mark.parametrize("case,bound", [("b13_40", 20), ("b06_40", 12)])
def test_candidates_cover_outputs_narrowed_after_a_backjump(case, bound):
    """Propagation after a backjump can regrow the trail past the point
    the previous frontier read ended; the events in between must still
    make their nodes candidates."""
    inst = instance(case, bound)
    solver = HdpllSolver(inst.circuit, HDPLL_S)
    decide = solver._structural
    frontier = decide.frontier
    reads = []

    def checked_frontier():
        nodes = frontier()
        reads.append(len(uncovered_outputs(decide)))
        return nodes

    decide.frontier = checked_frontier
    result = solver.solve(inst.assumptions)
    assert result.stats.conflicts > 0
    assert len(reads) >= result.stats.structural_decisions > 0
    assert not any(reads)


def test_direct_backtrack_falls_back_to_a_full_recheck():
    """A bare StructuralDecide driven through ``store.backtrack_to``
    (no backjump hook) must still agree with the oracle."""
    inst = instance("b06_40", 8)
    system, store, engine, decide = make_structural(inst.circuit)
    engine.enqueue_all()
    assert engine.propagate() is None
    decide.snapshot_baseline()
    for name, value in inst.assumptions.items():
        if not isinstance(value, Interval):
            value = Interval.point(value)
        store.assume(system.var_by_name(name), value)
    engine.enqueue_all()
    assert engine.propagate() is None
    checks = 0
    for depth in (3, 2, 4, 1, 3):
        while store.decision_level < depth:
            assert decide.frontier() == oracle_frontier(decide)
            assert not uncovered_outputs(decide)
            checks += 1
            outcome = decide.next_decision()
            if not isinstance(outcome, tuple):
                break
            store.decide_bool(*outcome)
            if engine.propagate() is not None:
                break
        store.backtrack_to(min(depth // 2, store.decision_level))
        engine.notify_backtrack()
        if depth % 2:
            # Regrow the trail past the rewound point before the next
            # frontier read, with a decision the frontier did not make.
            picked = decide.order.pick()
            if picked is not None:
                store.decide_bool(*picked)
                if engine.propagate() is not None:
                    store.backtrack_to(store.decision_level - 1)
                    engine.notify_backtrack()
        assert decide.frontier() == oracle_frontier(decide)
        assert not uncovered_outputs(decide)
    assert checks >= 5


def _descend(decide, store, engine, depth):
    """Structural decisions (each after a frontier read) down to
    ``depth``; stops early at an empty frontier or a conflict."""
    while store.decision_level < depth:
        assert decide.frontier() == oracle_frontier(decide)
        outcome = decide.next_decision()
        if not isinstance(outcome, tuple):
            return
        store.decide_bool(*outcome)
        if engine.propagate() is not None:
            return


def _bare_b06_40():
    inst = instance("b06_40", 8)
    system, store, engine, decide = make_structural(inst.circuit)
    engine.enqueue_all()
    assert engine.propagate() is None
    decide.snapshot_baseline()
    for name, value in inst.assumptions.items():
        if not isinstance(value, Interval):
            value = Interval.point(value)
        store.assume(system.var_by_name(name), value)
    engine.enqueue_all()
    assert engine.propagate() is None
    return system, store, engine, decide


@pytest.mark.parametrize("then_hooked_backjump", [False, True])
def test_direct_backtrack_then_regrowth_past_the_last_read(
    then_hooked_backjump,
):
    """The trail is rewound without the hook and regrown past the end
    of the last frontier read before the next read (and, in one
    variant, rewound once more through the hook): the replaced events
    are found by the identity checks on the last synced event."""
    mismatches = 0
    for restart_level in (0, 1, 2):
        system, store, engine, decide = _bare_b06_40()
        _descend(decide, store, engine, 5)
        read_end = len(store.trail)
        store.backtrack_to(min(restart_level, store.decision_level))
        engine.notify_backtrack()
        while len(store.trail) <= read_end:
            picked = decide.order.pick()
            if picked is None:
                break
            store.decide_bool(picked[0], 1 - picked[1])
            if engine.propagate() is not None:
                break
        assert len(store.trail) > read_end
        if then_hooked_backjump:
            decide.backtracked(store.backtrack_to(store.decision_level - 1))
            engine.notify_backtrack()
        stale = set(decide._live)
        nodes = decide.frontier()
        assert nodes == oracle_frontier(decide)
        assert not uncovered_outputs(decide)
        mismatches += stale != set(nodes)
    assert mismatches > 0


def test_new_baseline_rechecks_every_candidate():
    system, store, engine, decide = _bare_b06_40()
    _descend(decide, store, engine, 3)
    store.backtrack_to(0)
    engine.notify_backtrack()
    decide.frontier()
    # A baseline taken now treats every current narrowing as a fact.
    decide.snapshot_baseline()
    assert decide.frontier() == oracle_frontier(decide) == []


#: (case, bound, config) -> (status, decisions, conflicts), recorded
#: before the frontier became incremental (the SP row since learning
#: probes became frame-local, which moved it from 208/71).  A change
#: that moves one of these perturbs the search.
PINNED = {
    ("b13_40", 20, "S"): ("unsat", 32, 23),
    ("b13_40", 30, "S"): ("sat", 195, 60),
    ("b06_40", 12, "S"): ("sat", 279, 117),
    ("b06_40", 15, "S"): ("sat", 440, 191),
    ("b03_40", 24, "S"): ("sat", 26, 5),
    ("b06_40", 12, "SP"): ("sat", 205, 70),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_pinned_search_counters(key):
    case, bound, engine = key
    config = {"S": HDPLL_S, "SP": HDPLL_SP}[engine]
    inst = instance(case, bound)
    result = HdpllSolver(inst.circuit, config).solve(inst.assumptions)
    stats = result.stats
    assert (result.status.value, stats.decisions, stats.conflicts) == (
        PINNED[key]
    )

