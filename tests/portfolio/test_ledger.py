"""Property test for the cube ledger (:mod:`repro.portfolio.ledger`).

Random ``next_cube`` / ``record`` / ``release`` sequences over random
cube counts, with and without a root cube, and random holder sets.  The
invariants are the cube contract every transport relies on:

* a ``sat`` verdict implies a recorded SAT; ``unsat`` implies the root
  cube or every split cube was recorded UNSAT;
* the first report for a cube wins;
* no holder is handed a cube it already holds;
* after ``record``, every other holder of the cube is in the returned
  cancel list and no longer holds it (the portfolio once cancelled only
  the cube's first holder);
* a cube is requeued at most once, and losing it again fails the solve;
* once every holder is released, the cubes left can still be handed out
  and decided: the query reaches a verdict unless the ledger failed.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.portfolio.ledger import CubeLedger, CubeOutcome

#: UNSAT drawn twice as often, so all-splits-UNSAT verdicts occur.
_STATUSES = ("sat", "unsat", "unsat", "unknown")


def _outcome(index, status, holder):
    return CubeOutcome(index, status, None, {}, worker=holder)


class _Run:
    """A ledger plus the first report accepted for each cube, checking
    every operation against the contract."""

    def __init__(self, cube_count, root_index, holders):
        self.ledger = CubeLedger(cube_count, root_index)
        self.holders = holders
        self.accepted = {}
        self.lost_once = set()

    def next_cube(self, holder):
        held = self.ledger.held(holder)
        index = self.ledger.next_cube(holder)
        if index is not None:
            assert index not in held, "handed a cube it already holds"
            assert index not in self.accepted, "handed a decided cube"
            assert index in self.ledger.held(holder)
        return index

    def record(self, holder, index, status):
        others = {
            other: index in self.ledger.held(other)
            for other in self.holders
            if other != holder
        }
        first = index not in self.accepted
        cancel = self.ledger.record(holder, _outcome(index, status, holder))
        if first:
            self.accepted[index] = status
        assert self.ledger.outcomes[index].status == self.accepted[index]
        assert holder not in cancel
        assert index not in self.ledger.held(holder)
        for other, held_it in others.items():
            assert (other in cancel) == (held_it and first), (
                f"holder {other} held cube {index}: cancel list {cancel}"
            )
            assert index not in self.ledger.held(other)

    def release(self, holder, cubes=None):
        """Release ``holder``; returns False once the solve has failed."""
        taken = self.ledger.held(holder)
        if cubes is not None:
            taken &= set(cubes)
        orphaned = {
            index
            for index in taken
            if index not in self.accepted
            and not any(
                index in self.ledger.held(other)
                for other in self.holders
                if other != holder
            )
        }
        requeues = self.ledger.requeues
        lost = self.ledger.release(holder, cubes)
        assert not taken & self.ledger.held(holder)
        if orphaned & self.lost_once:
            assert lost in orphaned & self.lost_once, (
                f"cube lost twice without failing (got {lost})"
            )
            assert self.ledger.failed == lost
            return False
        assert lost is None and self.ledger.failed is None
        assert self.ledger.requeues == requeues + len(orphaned)
        self.lost_once |= orphaned
        assert self.ledger.requeues == len(self.lost_once)
        return True

    def check_verdict(self):
        ledger = self.ledger
        verdict = ledger.verdict()
        splits = [
            i for i in range(ledger.cube_count) if i != ledger.root_index
        ]
        if verdict == "sat":
            assert "sat" in self.accepted.values()
            assert ledger.result("sat").winning_cube in self.accepted
        elif verdict == "unsat":
            assert self.accepted.get(ledger.root_index) == "unsat" or (
                splits
                and all(self.accepted.get(i) == "unsat" for i in splits)
            )
        elif verdict == "unknown":
            assert len(self.accepted) == ledger.cube_count
            assert "sat" not in self.accepted.values()
        return verdict


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ledger_contract_holds_over_random_event_sequences(data):
    cube_count = data.draw(st.integers(1, 6), label="cube_count")
    root_index = data.draw(
        st.none() | st.integers(0, cube_count - 1), label="root_index"
    )
    holders = list(range(data.draw(st.integers(1, 4), label="holders")))
    run = _Run(cube_count, root_index, holders)
    steps = data.draw(st.integers(0, 40), label="steps")
    for _ in range(steps):
        holder = data.draw(st.sampled_from(holders))
        op = data.draw(
            st.sampled_from(("next", "record", "release", "release_one"))
        )
        held = sorted(run.ledger.held(holder))
        if op == "next":
            run.next_cube(holder)
        elif op == "record":
            # A holder reports a cube it holds, or (after its lease
            # expired) one it no longer holds.
            index = data.draw(
                st.sampled_from(held)
                if held
                else st.integers(0, cube_count - 1)
            )
            run.record(holder, index, data.draw(st.sampled_from(_STATUSES)))
        elif op == "release":
            if not run.release(holder):
                return
        elif held:
            if not run.release(holder, [data.draw(st.sampled_from(held))]):
                return
        run.check_verdict()

    for holder in holders:
        if not run.release(holder):
            return
    assert not any(run.ledger.held(holder) for holder in holders)
    # A fresh holder drains the queue and decides whatever it is handed.
    for _ in range(2 * cube_count):
        index = run.next_cube("fresh")
        if index is None:
            break
        run.record("fresh", index, data.draw(st.sampled_from(_STATUSES)))
    assert run.check_verdict() is not None, "a cube was left undecidable"
