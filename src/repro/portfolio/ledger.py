"""The cube ledger: one query's cube bookkeeping, with no I/O.

Two drivers keep a :class:`CubeLedger` and read its verdict back: the
cube hub (:mod:`repro.dist.hub`), which serves every multi-process
solve -- the local portfolio as a one-host hub, ``solve_dist`` and
``dist-serve`` -- and whose holders are workers, ``(host id, global
worker index)``; and the deterministic in-process portfolio
(:mod:`repro.portfolio.solve`; a holder is a worker index, verdict
only).  The hub moves messages and keeps time; this is the one
statement of the cube contract:

* Cube ``root_index`` (0 by convention) is the *root cube*: the whole
  problem with no splitting assumptions, so the portfolio degrades into
  a pure diversified race when splitting buys nothing.  ``None`` means
  the cube list has no root cube.
* Scheduling is pull-based.  :meth:`CubeLedger.next_cube` hands a
  holder the head of the FIFO queue.  Once the queue drains, the holder
  gets a *duplicate* of the undecided cube with the fewest holders
  (lowest index on a tie) among those it does not hold already: on a
  loaded machine the diversified duplicate often finishes first.
* The first report for a cube wins; later reports are dropped.
  :meth:`CubeLedger.record` returns every *other* holder of the cube,
  which the transport tells to abandon it (a cube-scoped cancel: the
  holder lives on for its next cube).
* Verdict: SAT on any cube wins.  UNSAT needs the root cube UNSAT or
  every split cube UNSAT.  Every cube decided otherwise (timeouts,
  budget exhaustion) is UNKNOWN.
* A holder that crashed or went silent is released
  (:meth:`CubeLedger.release`).  An undecided cube that no one else
  holds goes back to the head of the queue the first time it is lost;
  losing the same cube a second time fails the solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
)

#: Cumulative share counters each worker reports; the result sums them.
SHARE_KEYS = ("exported", "suppressed", "received", "installed")


@dataclass
class CubeOutcome:
    """First accepted verdict for one cube."""

    index: int
    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Dict[str, int]]
    stats: Dict[str, object]
    #: Worker index (its diversification rotation) that solved the cube.
    worker: int
    #: Hub host id of that worker (distributed solves only).
    host: Optional[str] = None


@dataclass
class CubeResult:
    """Everything a cube solve learned, for the caller to interpret."""

    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Dict[str, int]] = None
    winning_cube: Optional[int] = None
    winning_worker: Optional[int] = None
    winning_host: Optional[str] = None
    outcomes: Dict[int, CubeOutcome] = field(default_factory=dict)
    #: Sum over workers of their exporter/importer totals.
    share_totals: Dict[str, int] = field(default_factory=dict)
    requeues: int = 0
    note: str = ""
    #: Clause payloads admitted by the hub's LBD filter and relayed
    #: (distributed solves only).
    clauses_relayed: int = 0
    hosts_seen: int = 0
    #: Set when a distributed solve failed structurally (cube lost
    #: twice); the driver raises :class:`~repro.dist.hub.DistError`.
    failure: Optional[str] = None


class CubeLedger:
    """Queue, holders, outcomes and retries of one cube solve (see the
    module docstring for the contract)."""

    def __init__(self, cube_count: int, root_index: Optional[int] = 0):
        self.cube_count = cube_count
        self.root_index = root_index
        #: Decided cubes, in the order their first report arrived.
        self.outcomes: Dict[int, CubeOutcome] = {}
        self.requeues = 0
        #: The cube lost a second time, once the solve has failed.
        self.failed: Optional[int] = None
        self._pending: List[int] = list(range(cube_count))
        self._held: Dict[Hashable, Set[int]] = {}
        self._requeued: Set[int] = set()
        #: Worker index -> its latest cumulative share counters.
        self._totals: Dict[int, Dict[str, int]] = {}

    def held(self, holder: Hashable) -> Set[int]:
        """The cubes ``holder`` holds right now."""
        return set(self._held.get(holder, ()))

    def next_cube(self, holder: Hashable) -> Optional[int]:
        """Hand ``holder`` its next cube; None once the verdict is
        settled or when no undecided cube is left that it does not hold."""
        if self.verdict() is not None:
            return None
        held = self._held.setdefault(holder, set())
        if self._pending:
            index = self._pending.pop(0)
        else:
            candidates = [
                i
                for i in range(self.cube_count)
                if i not in self.outcomes and i not in held
            ]
            if not candidates:
                return None
            index = min(candidates, key=lambda i: (self._holders(i), i))
        held.add(index)
        return index

    def record(
        self,
        holder: Hashable,
        outcome: CubeOutcome,
        totals: Optional[Mapping[str, int]] = None,
    ) -> List[Hashable]:
        """Accept ``holder``'s report for ``outcome.index`` (and the
        worker's cumulative share ``totals``).  Returns the other holders
        of the cube, which no longer hold it and must be cancelled; empty
        when the cube was already decided."""
        if totals is not None:
            self._totals[outcome.worker] = dict(totals)
        index = outcome.index
        self._held.get(holder, set()).discard(index)
        if index in self.outcomes:
            return []
        self.outcomes[index] = outcome
        if index in self._pending:
            # Requeued after a lease expiry, then reported by the
            # holder that was only slow.
            self._pending.remove(index)
        cancel = [other for other, held in self._held.items() if index in held]
        for other in cancel:
            self._held[other].discard(index)
        return cancel

    def release(
        self, holder: Hashable, cubes: Optional[Iterable[int]] = None
    ) -> Optional[int]:
        """Take ``cubes`` (default: all it holds) back from ``holder``.
        Returns the index of a cube lost for the second time -- the solve
        has failed (see :attr:`failed`) -- else None."""
        held = self._held.get(holder, set())
        lost = sorted(held if cubes is None else held.intersection(cubes))
        held.difference_update(lost)
        for index in lost:
            if index in self.outcomes or self._holders(index):
                continue
            if index in self._requeued:
                self.failed = index
                return index
            self._requeued.add(index)
            self.requeues += 1
            self._pending.insert(0, index)
        return None

    def verdict(self) -> Optional[str]:
        """``"sat"``, ``"unsat"`` or ``"unknown"`` once the outcomes
        settle the query, else None."""
        decided = self.outcomes
        if any(outcome.status == "sat" for outcome in decided.values()):
            return "sat"
        root = decided.get(self.root_index)  # type: ignore[arg-type]
        if root is not None and root.status == "unsat":
            return "unsat"
        splits = [i for i in range(self.cube_count) if i != self.root_index]
        if splits and all(
            i in decided and decided[i].status == "unsat" for i in splits
        ):
            return "unsat"
        if len(decided) == self.cube_count:
            return "unknown"
        return None

    def result(self, status: str, note: str = "") -> CubeResult:
        """The :class:`CubeResult` for a final ``status`` (the verdict,
        or ``"unknown"`` when the transport gave up)."""
        result = CubeResult(
            status=status,
            outcomes=dict(self.outcomes),
            share_totals={
                key: sum(totals.get(key, 0) for totals in self._totals.values())
                for key in SHARE_KEYS
            },
            requeues=self.requeues,
            note=note,
        )
        for outcome in self.outcomes.values():
            if outcome.status == "sat":
                result.model = outcome.model
                result.winning_cube = outcome.index
                result.winning_worker = outcome.worker
                result.winning_host = outcome.host
                break
        return result

    def _holders(self, index: int) -> int:
        return sum(1 for held in self._held.values() if index in held)
