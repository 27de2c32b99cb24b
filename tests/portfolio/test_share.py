"""Clause-sharing round trip: serialize on one compile, install on
another, and exercise every installation edge case the importer relies
on :meth:`ClauseDatabase.add_clause` to handle — re-watching, duplicate
rejection, clauses arriving already satisfied, unit, or falsified under
the importer's current trail.
"""

from __future__ import annotations

import pickle

from repro.constraints.clause import BoolLit, Clause, WordLit
from repro.constraints.store import Conflict
from repro.core import HdpllSolver, SolverConfig
from repro.intervals import Interval
from repro.portfolio import (
    ClauseExporter,
    ClauseImporter,
    ShareChannel,
    clause_payload_key,
    deserialize_clause,
    serialize_clause,
)
from repro.rtl.builder import CircuitBuilder


def _circuit():
    b = CircuitBuilder("share")
    a = b.input("a")
    c = b.input("c")
    w = b.input("w", 4)
    flag = b.or_(a, c, name="flag")
    small = b.lt(w, 9, name="small")
    b.output("out", b.and_(flag, small))
    return b.build()


def _session() -> HdpllSolver:
    return HdpllSolver(_circuit(), SolverConfig(), persistent=True)


def _clause(session, lbd=2) -> Clause:
    names = session.var_by_name
    clause = Clause(
        literals=(
            BoolLit(names["a"], positive=True),
            WordLit(names["w"], Interval.make(0, 7), positive=True),
        ),
        learned=True,
        origin="conflict",
    )
    clause.lbd = lbd
    return clause


# ----------------------------------------------------------------------
# Serialization round trip
# ----------------------------------------------------------------------


def test_round_trip_across_compiles():
    """A clause serialized from one compile re-materializes against a
    *different* compile of the same circuit, bound to the receiver's
    variable objects, tagged shared/learned with the LBD preserved."""
    sender, receiver = _session(), _session()
    payload = serialize_clause(_clause(sender, lbd=3))
    # The payload crosses a process boundary in production; a pickle
    # round trip proves it is plain picklable data.
    payload = pickle.loads(pickle.dumps(payload))
    rebuilt = deserialize_clause(payload, receiver.var_by_name)
    assert rebuilt is not None
    assert rebuilt.learned and rebuilt.origin == "shared"
    assert rebuilt.lbd == 3
    bool_lit, word_lit = rebuilt.literals
    assert bool_lit.var is receiver.var_by_name["a"]
    assert bool_lit.positive
    assert word_lit.var is receiver.var_by_name["w"]
    assert word_lit.interval == Interval.make(0, 7)
    assert word_lit.positive


def test_unresolvable_name_is_rejected():
    sender, receiver = _session(), _session()
    payload = serialize_clause(_clause(sender))
    mangled = ((("b", "no-such-net", True),) + payload[0][1:], payload[1])
    assert deserialize_clause(mangled, receiver.var_by_name) is None
    importer = ClauseImporter(receiver.var_by_name)
    assert importer.accept([mangled]) == []
    assert importer.rejected == 1 and importer.installed == 0


def test_payload_key_is_order_insensitive():
    sender = _session()
    clause = _clause(sender)
    flipped = Clause(
        literals=tuple(reversed(clause.literals)),
        learned=True,
        origin="conflict",
    )
    flipped.lbd = clause.lbd
    assert clause_payload_key(serialize_clause(clause)) == clause_payload_key(
        serialize_clause(flipped)
    )


# ----------------------------------------------------------------------
# Installation against the receiver's trail
# ----------------------------------------------------------------------


def test_import_installs_and_watches():
    sender, receiver = _session(), _session()
    payload = serialize_clause(_clause(sender))
    importer = ClauseImporter(receiver.var_by_name)
    (clause,) = importer.accept([payload])
    db = receiver.engine.clause_db
    assert receiver.engine.add_clause(clause) is None
    assert clause in db.clauses
    # Both watch positions registered on the watched variables' lists.
    positions = db._watch_positions[id(clause)]
    for position in set(positions):
        var = clause.literals[position].var
        assert any(
            entry[0] is clause and entry[1] == position
            for entry in db.watches[var.index]
        )


def test_duplicate_payloads_rejected_once_installed():
    sender, receiver = _session(), _session()
    payload = serialize_clause(_clause(sender))
    reordered = serialize_clause(
        Clause(
            literals=tuple(reversed(_clause(sender).literals)),
            learned=True,
            origin="conflict",
        )
    )
    importer = ClauseImporter(receiver.var_by_name)
    assert len(importer.accept([payload])) == 1
    # Same clause again — even with the literals reordered — is a dup.
    assert importer.accept([payload, reordered]) == []
    assert importer.received == 3
    assert importer.installed == 1
    assert importer.rejected == 2
    assert abs(importer.hit_rate - 1 / 3) < 1e-9


def test_import_already_satisfied_clause():
    sender, receiver = _session(), _session()
    store = receiver.store
    store.assume(receiver.var_by_name["a"], Interval.point(1))
    payload = serialize_clause(_clause(sender))
    importer = ClauseImporter(receiver.var_by_name)
    (clause,) = importer.accept([payload])
    # a=1 satisfies the Boolean literal: installs quietly, no narrowing
    # of the word variable.
    assert receiver.engine.add_clause(clause) is None
    assert store.domain(receiver.var_by_name["w"]) == Interval.make(0, 15)
    assert clause in receiver.engine.clause_db.clauses


def test_import_unit_clause_propagates():
    sender, receiver = _session(), _session()
    store = receiver.store
    store.assume(receiver.var_by_name["a"], Interval.point(0))
    payload = serialize_clause(_clause(sender))
    importer = ClauseImporter(receiver.var_by_name)
    (clause,) = importer.accept([payload])
    # a=0 falsifies the Boolean literal, so the word literal is unit and
    # installation immediately narrows w to <0, 7>.
    assert receiver.engine.add_clause(clause) is None
    assert store.domain(receiver.var_by_name["w"]) == Interval.make(0, 7)


def test_import_falsified_clause_conflicts():
    sender, receiver = _session(), _session()
    store = receiver.store
    store.assume(receiver.var_by_name["a"], Interval.point(0))
    store.assume(receiver.var_by_name["w"], Interval.make(10, 12))
    payload = serialize_clause(_clause(sender))
    importer = ClauseImporter(receiver.var_by_name)
    (clause,) = importer.accept([payload])
    outcome = receiver.engine.add_clause(clause)
    assert isinstance(outcome, Conflict)


# ----------------------------------------------------------------------
# Export filtering and batching
# ----------------------------------------------------------------------


def test_exporter_caps_and_cube_filter():
    session = _session()
    names = session.var_by_name
    batches = []
    exporter = ClauseExporter(
        batches.append, max_size=3, max_lbd=3, flush_threshold=2
    )
    # The dynamic glue threshold starts clamped to max_lbd.
    assert exporter.glue_threshold == 3

    def clause(*literals, lbd=1):
        built = Clause(literals=tuple(literals), learned=True)
        built.lbd = lbd
        return built

    a1 = BoolLit(names["a"], positive=True)
    c0 = BoolLit(names["c"], positive=False)
    w_low = WordLit(names["w"], Interval.make(0, 3), positive=True)
    w_high = WordLit(names["w"], Interval.make(4, 7), positive=True)

    # Too long (4 > max_size) and too glue-weak (3 literals with LBD 5
    # above the threshold): private.
    exporter.export(clause(a1, c0, w_low, w_high))
    exporter.export(clause(a1, c0, w_low, lbd=5))
    assert exporter.exported == 0 and not batches

    # Binary clauses always pass, whatever their recorded LBD.
    exporter.export(clause(a1, c0, lbd=5))
    assert exporter.exported == 1
    assert not batches  # buffered below threshold

    # Cube-local: mentions an assumption variable of the current cube.
    exporter.cube_names = frozenset({"w"})
    exporter.export(clause(a1, c0, w_low, lbd=2))
    assert exporter.suppressed == 1 and exporter.exported == 1
    exporter.cube_names = frozenset()

    # The same clause passes once the cube filter lifts, reaching the
    # flush threshold: one batch of two.
    exporter.export(clause(a1, c0, w_low, lbd=2))
    assert exporter.exported == 2
    assert len(batches) == 1 and len(batches[0]) == 2

    # A permuted repeat is deduplicated, buffered nothing.
    exporter.export(clause(c0, a1, lbd=5))
    exporter.flush()
    assert exporter.exported == 2
    assert len(batches) == 1


def test_share_channel_polls_receive_then_drains():
    session = _session()
    payload = serialize_clause(_clause(session))
    inbox = [[payload]]

    def receive():
        fresh, inbox[:] = list(inbox), []
        return fresh

    channel = ShareChannel(
        ClauseExporter(lambda batch: None),
        ClauseImporter(session.var_by_name),
        receive=receive,
    )
    (clause,) = channel.poll()
    assert clause.origin == "shared"
    assert channel.poll() == ()


def test_dynamic_glue_threshold_retunes_both_directions():
    """The admission ceiling relaxes when almost nothing qualifies and
    tightens again when the worker floods its peers (PR 9)."""
    from repro.portfolio.share import (
        DEFAULT_GLUE_START,
        GLUE_WINDOW,
    )

    session = _session()
    names = session.var_by_name
    exporter = ClauseExporter(lambda batch: None, flush_threshold=10_000)
    assert exporter.glue_threshold == DEFAULT_GLUE_START

    a1 = BoolLit(names["a"], positive=True)
    c1 = BoolLit(names["c"], positive=True)

    def word_clauses(lbd, extra):
        """Distinct clauses (unique interval literal) at a fixed LBD."""
        built = []
        for lo in range(16):
            for hi in range(lo, 16):
                clause = Clause(
                    literals=(
                        a1,
                        *extra,
                        WordLit(
                            names["w"],
                            Interval.make(lo, hi),
                            positive=True,
                        ),
                    ),
                    learned=True,
                )
                clause.lbd = lbd
                built.append(clause)
        return built

    # A full window of glue-weak clauses (LBD 6 > threshold 4): export
    # rate 0 is under the low-water mark, so the ceiling relaxes by one
    # notch per window until it reaches max_lbd.
    weak = iter(word_clauses(lbd=6, extra=(c1,)))
    for _ in range(GLUE_WINDOW):
        exporter.export(next(weak))
    assert exporter.glue_threshold == DEFAULT_GLUE_START + 1
    assert exporter.exported == 0

    # A window of always-admitted binary clauses floods the channel:
    # export rate 1.0 is over the high-water mark, so it tightens back.
    strong = iter(word_clauses(lbd=6, extra=()))
    for _ in range(GLUE_WINDOW):
        exporter.export(next(strong))
    assert exporter.glue_threshold == DEFAULT_GLUE_START
    assert exporter.exported == GLUE_WINDOW

    # With dynamic glue off the ceiling is pinned at max_lbd.
    fixed = ClauseExporter(
        lambda batch: None, max_lbd=5, dynamic_glue=False
    )
    assert fixed.glue_threshold == 5
    still_weak = iter(word_clauses(lbd=6, extra=(c1,)))
    for _ in range(GLUE_WINDOW):
        fixed.export(next(still_weak))
    assert fixed.glue_threshold == 5
