"""Cross-worker learned-clause sharing.

Clauses learned by one portfolio worker are valid for every other
worker solving the same compiled problem, with one caveat: a clause
derived *under a cube* may mention the cube's assumption variables.
That is still globally sound here — cube assumptions are asserted as
retractable decision levels (the MiniSat assumption scheme), so conflict
analysis keeps the assumption literals *in* the learned clause rather
than resolving them away — but such clauses are useless to workers on
other cubes and would bloat their databases, so the exporter filters
them out.

Clauses cross process boundaries as plain tuples keyed by variable
*name* (variable indices are per-process compile artifacts; names are
stable because every worker compiles the same circuit):

* ``("b", name, positive)`` — a Boolean literal,
* ``("w", name, lo, hi, positive)`` — a word literal over ``<lo, hi>``.

A payload is ``(literals, lbd)``.  The importer resolves names through
the receiving session's variable table, installs survivors with origin
``"shared"`` (disposable: the clause-DB reduction may evict them), and
relies on :meth:`ClauseDatabase.add_clause` to re-watch the clause and
re-check it against the importer's *current* trail — a shared clause
may arrive already satisfied, already falsified (conflict), or unit.
"""

from __future__ import annotations

import zlib
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.constraints.clause import BoolLit, Clause, WordLit
from repro.constraints.variable import Variable
from repro.intervals import Interval

#: Literal tuple payloads (see module docstring).
LiteralPayload = Tuple
#: One serialized clause: (tuple of literal payloads, lbd).
ClausePayload = Tuple[Tuple[LiteralPayload, ...], int]

#: Wire-safety size cap: clauses longer than this never leave the
#: learning worker regardless of LBD (admission itself is LBD-driven,
#: see :class:`ClauseExporter`).
DEFAULT_MAX_SIZE = 32
#: Ceiling the dynamic glue threshold may relax to.
DEFAULT_MAX_LBD = 6
#: Dynamic glue admission: the LBD ceiling starts here and self-tunes
#: between :data:`GLUE_MIN` and ``max_lbd`` to hold the export rate
#: inside the target band below.
DEFAULT_GLUE_START = 4
GLUE_MIN = 2
#: Admission offers per retuning window, and the export-rate band the
#: threshold steers toward (fractions of offered clauses exported).
GLUE_WINDOW = 128
GLUE_RATE_LOW = 0.08
GLUE_RATE_HIGH = 0.35
#: Exported clauses are batched: the exporter flushes to its sink once
#: this many are buffered (and at end-of-cube).
DEFAULT_FLUSH_THRESHOLD = 16


def serialize_clause(clause: Clause) -> ClausePayload:
    """Name-keyed wire form of a learned clause.

    The literal tuple is *canonical* (sorted): two permutations of the
    same clause serialize identically, so the wire form, the dedup key
    and the telemetry digest all agree — a permuted duplicate can never
    slip past a filter keyed on any of them.
    """
    literals: List[LiteralPayload] = []
    for literal in clause.literals:
        if isinstance(literal, BoolLit):
            literals.append(("b", literal.var.name, literal.positive))
        elif isinstance(literal, WordLit):
            literals.append(
                (
                    "w",
                    literal.var.name,
                    literal.interval.lo,
                    literal.interval.hi,
                    literal.positive,
                )
            )
        else:  # pragma: no cover - new literal kinds must be handled
            raise TypeError(f"unshareable literal {literal!r}")
    return tuple(sorted(literals)), clause.lbd


def clause_payload_key(payload: ClausePayload) -> Tuple:
    """Order-insensitive dedup key of a serialized clause.

    Serialization is already canonical; the sort here additionally
    canonicalizes payloads built by hand (tests, older peers).
    """
    return tuple(sorted(payload[0]))


def payload_digest(payload: ClausePayload) -> str:
    """Short stable identity of a shared clause for telemetry.

    CRC32 of the dedup key's repr, rendered as 8 hex digits.  Unlike
    ``hash()`` this is identical in every process regardless of
    ``PYTHONHASHSEED``, which is what lets the merged timeline follow a
    clause from the learner's export event to each importer's install.
    """
    key = clause_payload_key(payload)
    return format(zlib.crc32(repr(key).encode("utf-8")), "08x")


def deserialize_clause(
    payload: ClausePayload,
    var_by_name: Dict[str, Variable],
) -> Optional[Clause]:
    """Rebuild a clause against the local compile, or ``None`` when any
    variable name does not resolve here (defensive; workers compile the
    same circuit, so names should always resolve)."""
    literals = []
    for entry in payload[0]:
        var = var_by_name.get(entry[1])
        if var is None:
            return None
        if entry[0] == "b":
            literals.append(BoolLit(var, positive=entry[2]))
        else:
            literals.append(
                WordLit(
                    var,
                    Interval.make(entry[2], entry[3]),
                    positive=entry[4],
                )
            )
    clause = Clause(literals=tuple(literals), learned=True, origin="shared")
    clause.lbd = payload[1]
    return clause


class ClauseExporter:
    """LBD-gated, deduplicated clause export with batching.

    Admission is by literal-block distance against a *dynamic glue
    threshold*: binary clauses always pass, longer clauses pass while
    their LBD is at or under the threshold, and the threshold self-tunes
    — every :data:`GLUE_WINDOW` offered clauses the export rate is
    compared to the ``[GLUE_RATE_LOW, GLUE_RATE_HIGH]`` band and the
    threshold tightens (toward :data:`GLUE_MIN`) when the worker floods
    its peers or relaxes (toward ``max_lbd``) when almost nothing
    qualifies.  ``max_size`` remains only as a wire-safety cap.

    Plugged into the solver as the ``export`` half of its share hook;
    ``sink`` receives batches of :data:`ClausePayload` (a pipe send in
    the multi-process pool, a list append in deterministic mode).
    """

    def __init__(
        self,
        sink: Callable[[List[ClausePayload]], None],
        max_size: int = DEFAULT_MAX_SIZE,
        max_lbd: int = DEFAULT_MAX_LBD,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        dynamic_glue: bool = True,
    ):
        self._sink = sink
        self.max_size = max_size
        self.max_lbd = max_lbd
        self.flush_threshold = flush_threshold
        #: Current LBD admission ceiling; fixed at ``max_lbd`` when
        #: ``dynamic_glue`` is off.
        self.dynamic_glue = dynamic_glue
        self.glue_threshold = (
            min(DEFAULT_GLUE_START, max_lbd) if dynamic_glue else max_lbd
        )
        #: Assumption-variable names of the cube currently being solved;
        #: clauses mentioning any of them are suppressed (cube-local).
        self.cube_names: FrozenSet[str] = frozenset()
        self._seen: set = set()
        self._buffer: List[ClausePayload] = []
        self.exported = 0
        self.suppressed = 0
        self._window_offers = 0
        self._window_exports = 0

    def _retune(self, exported: bool) -> None:
        """One admission offer observed; adjust the glue threshold."""
        self._window_offers += 1
        if exported:
            self._window_exports += 1
        if not self.dynamic_glue or self._window_offers < GLUE_WINDOW:
            return
        rate = self._window_exports / self._window_offers
        if rate > GLUE_RATE_HIGH and self.glue_threshold > GLUE_MIN:
            self.glue_threshold -= 1
        elif rate < GLUE_RATE_LOW and self.glue_threshold < self.max_lbd:
            self.glue_threshold += 1
        self._window_offers = 0
        self._window_exports = 0

    def export(self, clause: Clause) -> None:
        literals = clause.literals
        admitted = len(literals) <= self.max_size and (
            len(literals) <= 2 or 0 < clause.lbd <= self.glue_threshold
        )
        if not admitted:
            self._retune(exported=False)
            return
        if self.cube_names and any(
            literal.var.name in self.cube_names for literal in literals
        ):
            self.suppressed += 1
            self._retune(exported=False)
            return
        payload = serialize_clause(clause)
        key = clause_payload_key(payload)
        if key in self._seen:
            self._retune(exported=False)
            return
        self._seen.add(key)
        self.exported += 1
        self._retune(exported=True)
        self._buffer.append(payload)
        if len(self._buffer) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        if self._buffer:
            self._sink(list(self._buffer))
            self._buffer.clear()


class ClauseImporter:
    """Deduplicates and deserializes incoming payloads.

    :meth:`accept` returns ready-to-install :class:`Clause` objects; the
    caller (the solver's share hook) installs them through
    ``PropagationEngine.add_clause``, which re-watches and re-checks
    each clause against the current trail.
    """

    def __init__(self, var_by_name: Dict[str, Variable]):
        self._var_by_name = var_by_name
        self._seen: set = set()
        self.received = 0
        self.installed = 0
        self.rejected = 0

    def accept(
        self, payloads: Sequence[ClausePayload]
    ) -> List[Clause]:
        return self.accept_keyed(payloads)[0]

    def accept_keyed(
        self, payloads: Sequence[ClausePayload]
    ) -> Tuple[List[Clause], List[str]]:
        """Like :meth:`accept`, also returning the installed clauses'
        :func:`payload_digest` keys (for telemetry install events)."""
        clauses: List[Clause] = []
        keys: List[str] = []
        for payload in payloads:
            self.received += 1
            key = clause_payload_key(payload)
            if key in self._seen:
                self.rejected += 1
                continue
            self._seen.add(key)
            clause = deserialize_clause(payload, self._var_by_name)
            if clause is None:
                self.rejected += 1
                continue
            self.installed += 1
            clauses.append(clause)
            keys.append(payload_digest(payload))
        return clauses, keys

    @property
    def hit_rate(self) -> float:
        """installed / received (0.0 before anything arrived)."""
        return self.installed / self.received if self.received else 0.0


class ShareChannel:
    """The object a solver's ``share`` slot points at.

    ``export`` feeds the exporter; ``poll`` drains clauses queued by
    :meth:`enqueue` (and, when ``receive`` is given, pulls fresh payload
    batches from it first — the deterministic in-process pool uses that
    to read a shared list); ``drain`` only pulls, for the next ``poll``.
    """

    def __init__(
        self,
        exporter: ClauseExporter,
        importer: ClauseImporter,
        receive: Optional[Callable[[], List[Sequence[ClausePayload]]]] = None,
    ):
        self.exporter = exporter
        self.importer = importer
        self._receive = receive
        self._pending: List[Clause] = []

    def export(self, clause: Clause) -> None:
        self.exporter.export(clause)

    def enqueue(self, payloads: Sequence[ClausePayload]) -> None:
        self._pending.extend(self.importer.accept(payloads))

    def drain(self) -> None:
        if self._receive is not None:
            for batch in self._receive():
                self.enqueue(batch)

    def poll(self) -> Sequence[Clause]:
        self.drain()
        if not self._pending:
            return ()
        pending = self._pending
        self._pending = []
        return pending
