"""In-memory spans recorded around the calls into each layer.

A span is a named interval with a parent and the id of the query it
belongs to.  The surfaces open spans with :meth:`Tracer.span` around the
calls they make into the program, and attach times the program reports
about itself (learn time, profiler phases, daemon queue and solve time)
as child spans with :meth:`Tracer.child`.  :class:`NullTracer` is what an
untraced run uses: it records nothing.

A layer's *self time* is its span's duration minus the part of that
interval covered by its child spans; summed over the spans of one query
the self times add up to the query's wall time, which is what makes the
per-layer table an Amdahl table.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    qid: str


class NullTracer:
    """Tracing off: span sites cost one call and record nothing; program-
    reported child spans are only attached when ``enabled``."""

    enabled = False

    @contextmanager
    def span(self, name: str, qid: str, parent: Optional[int] = None):
        yield None


class Tracer(NullTracer):
    """Tracing on: spans kept in memory until the run ends."""

    enabled = True

    def __init__(self):
        self.spans: List[Span] = []
        #: Seconds spent inside span bookkeeping (the tracing overhead a
        #: wrapper-only trace adds on top of the untraced run).
        self.bookkeeping_s = 0.0

    def _open(self, name, qid, parent, start, end) -> int:
        sid = len(self.spans)
        self.spans.append(Span(sid, name, start, end, parent, qid))
        return sid

    @contextmanager
    def span(self, name: str, qid: str, parent: Optional[int] = None):
        begin = time.perf_counter()
        sid = self._open(name, qid, parent, 0.0, 0.0)
        start = time.perf_counter()
        self.bookkeeping_s += start - begin
        try:
            yield sid
        finally:
            self.spans[sid].start = start
            self.spans[sid].end = time.perf_counter()

    def child(self, name, qid, parent, start, seconds) -> int:
        """A span of ``seconds`` the program reported, placed at
        ``start`` inside ``parent`` (clipped to it)."""
        begin = time.perf_counter()
        if parent is not None:
            outer = self.spans[parent]
            start = min(max(start, outer.start), outer.end)
            end = min(start + max(seconds, 0.0), outer.end)
        else:
            end = start + max(seconds, 0.0)
        sid = self._open(name, qid, parent, start, end)
        self.bookkeeping_s += time.perf_counter() - begin
        return sid

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals
    (each child clipped to its parent)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is None:
            continue
        outer = spans[span.parent]
        start = max(span.start, outer.start)
        end = min(span.end, outer.end)
        if end > start:
            children.setdefault(span.parent, []).append((start, end))
    return {
        span.sid: (span.end - span.start) - _covered(children.get(span.sid, []))
        for span in spans
    }


def layer_table(spans: List[Span]) -> List[Dict[str, object]]:
    """Per span name: count, total, self seconds and share of all self
    time, largest self time first."""
    selfs = self_times(spans)
    rows: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = rows.setdefault(
            span.name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["count"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += selfs[span.sid]
    grand = sum(row["self_s"] for row in rows.values()) or 1.0
    table = [
        {"layer": name, **row, "share": row["self_s"] / grand}
        for name, row in rows.items()
    ]
    table.sort(key=lambda row: row["self_s"], reverse=True)
    return table


def format_table(table: List[Dict[str, object]]) -> str:
    lines = [f"{'layer':<28} {'count':>7} {'total_s':>10} {'self_s':>10} {'share':>7}"]
    for row in table:
        lines.append(
            f"{row['layer']:<28} {row['count']:>7} {row['total_s']:>10.3f} "
            f"{row['self_s']:>10.3f} {100 * row['share']:>6.1f}%"
        )
    return "\n".join(lines)

