"""Warm persistent-solver session cache for the solver daemon.

Sessions are the daemon's whole value proposition: a compiled
constraint system plus the learned clauses and predicates accumulated
by earlier requests, kept alive so the next request for the same
netlist pays neither the compile nor the re-learning (the paper's
cross-call reuse, measured at 5.5x in PR 4).

Entries are keyed by the circuit's :func:`netlist_signature` — an
index-normalized structural hash — so requests naming the same
unrolled netlist share one session.  The cache
is an LRU bounded by an entry count *and* an approximate byte budget
(sessions hold the compiled system, domains and the clause database;
a handful of deep unrollings is real memory).

Two concurrency rules, both forced by ``HdpllSolver`` not being
thread-safe:

* **single-flight compile** — concurrent requests for a key that is
  still building share one build task instead of compiling N times;
* **serialized queries** — every entry carries an ``asyncio.Lock`` and
  the server holds it across a query, so one session never sees two
  concurrent ``solve`` calls (requests for *different* sessions still
  run in parallel on the executor).

Eviction only drops idle entries (lock not held); an entry evicted
while a late holder still references it stays alive until that holder
releases it — dropping from the table never invalidates a session.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict
from typing import Awaitable, Callable, Dict, Mapping, Optional

from repro.core.hdpll import HdpllSolver


def estimate_session_bytes(session: HdpllSolver) -> int:
    """Coarse per-session memory estimate for the byte budget.

    Deliberately cheap and deliberately rough (a real measurement would
    need a deep ``sys.getsizeof`` walk): variables dominate through
    their domain/activity slots, clauses through literal tuples and
    watch entries.  The budget only has to rank sessions against each
    other, and both terms scale linearly with the unrolling depth.
    """
    variables = len(session.system.variables)
    clauses = len(session.engine.clause_db.clauses)
    return 64 * 1024 + 640 * variables + 560 * clauses


class SessionEntry:
    """One cached session plus its serving bookkeeping."""

    __slots__ = (
        "key",
        "case",
        "bound",
        "session",
        "base_assumptions",
        "lock",
        "cost_bytes",
        "build_seconds",
        "hits",
        "last_used",
    )

    def __init__(
        self,
        key: str,
        case: str,
        bound: int,
        session: HdpllSolver,
        base_assumptions: Mapping[str, object],
        build_seconds: float,
    ):
        self.key = key
        self.case = case
        self.bound = bound
        self.session = session
        self.base_assumptions = dict(base_assumptions)
        #: Serializes queries: HdpllSolver is not thread-safe.
        self.lock = asyncio.Lock()
        self.cost_bytes = estimate_session_bytes(session)
        self.build_seconds = build_seconds
        self.hits = 0
        self.last_used = time.monotonic()


class SessionCache:
    """LRU of warm sessions with single-flight builds (see module doc)."""

    def __init__(
        self, max_entries: int = 8, max_bytes: int = 512 * 1024 * 1024
    ):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, SessionEntry]" = OrderedDict()
        self._building: Dict[str, "asyncio.Task[SessionEntry]"] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Requests that joined an in-progress build instead of
        #: starting their own (the single-flight savings counter).
        self.joined_builds = 0

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    async def get_or_create(
        self,
        key: str,
        build: Callable[[], Awaitable[SessionEntry]],
    ) -> SessionEntry:
        """The entry for ``key``, building it at most once.

        ``build`` is an async factory invoked only by the first caller;
        concurrent callers for the same key await the same build task.
        A failed build propagates to every waiter and leaves no entry,
        so the next request retries from scratch.
        """
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            entry.hits += 1
            entry.last_used = time.monotonic()
            self._entries.move_to_end(key)
            return entry
        task = self._building.get(key)
        if task is None:
            self.misses += 1
            task = asyncio.ensure_future(self._build_and_insert(key, build))
            self._building[key] = task
            task.add_done_callback(
                lambda _done, key=key: self._building.pop(key, None)
            )
        else:
            self.joined_builds += 1
        # Shield: one waiter being cancelled (its request timed out)
        # must not cancel the shared build the other waiters rely on.
        return await asyncio.shield(task)

    def peek(self, key: str) -> Optional[SessionEntry]:
        """The entry for ``key`` without touching LRU order or stats."""
        return self._entries.get(key)

    async def _build_and_insert(
        self, key: str, build: Callable[[], Awaitable[SessionEntry]]
    ) -> SessionEntry:
        entry = await build()
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._evict(keep=key)
        return entry

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def total_bytes(self) -> int:
        return sum(e.cost_bytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def _evict(self, keep: str) -> None:
        """Drop LRU idle entries until both caps hold.

        The just-inserted ``keep`` entry and any entry whose lock is
        held (a query is running on it) are never dropped; if only busy
        entries remain the cache temporarily overshoots — correctness
        over the cap.
        """

        def over_budget() -> bool:
            return (
                len(self._entries) > self.max_entries
                or self.total_bytes() > self.max_bytes
            )

        while over_budget():
            victim = next(
                (
                    key
                    for key, entry in self._entries.items()
                    if key != keep and not entry.lock.locked()
                ),
                None,
            )
            if victim is None:
                return
            del self._entries[victim]
            self.evictions += 1

    # ------------------------------------------------------------------
    # Introspection (the server's ``stats`` op)
    # ------------------------------------------------------------------
    def clause_db_snapshot(self) -> Dict[str, object]:
        """Aggregate learned-clause-database shape over warm sessions.

        Tier sizes sum across sessions; the mean LBD is clause-weighted
        so a large session is not diluted by an idle tiny one.
        """
        core = mid = local = 0
        lbd_weight = 0.0
        for entry in self._entries.values():
            db = entry.session.engine.clause_db
            c, m, l = db.tier_sizes()
            core += c
            mid += m
            local += l
            lbd_weight += db.mean_lbd() * (c + m + l)
        total = core + mid + local
        return {
            "core": core,
            "mid": mid,
            "local": local,
            "mean_lbd": lbd_weight / total if total else 0.0,
        }

    def snapshot(self) -> Dict[str, object]:
        return {
            "entries": len(self._entries),
            "bytes": self.total_bytes(),
            "max_entries": self.max_entries,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "joined_builds": self.joined_builds,
            "keys": [
                {
                    "case": entry.case,
                    "bound": entry.bound,
                    "hits": entry.hits,
                    "bytes": entry.cost_bytes,
                    "session_solves": entry.session.session_solves,
                }
                for entry in self._entries.values()
            ],
        }
