"""Flight recorder: a bounded ring of recent trace events.

Full JSONL tracing serializes every event as it happens — perfect for
postmortems, too expensive to leave on during benchmarked runs.  The
:class:`FlightRecorder` is the always-on middle ground: it exposes the
same ``event(ev, dl, **fields)`` surface as
:class:`~repro.obs.trace.TraceEmitter` but only appends a small tuple to
a fixed-size ring (``collections.deque`` with ``maxlen``) — no JSON, no
I/O, no string formatting.  When a worker dies, the last
``capacity`` events it recorded are dumped as a regular JSONL trace
fragment (:meth:`dump`), turning an opaque ``-A-``/``-to-`` pool task
into something ``repro-hdpll trace --replay`` can narrate.

:class:`TeeEmitter` fans one event stream out to both a real trace
emitter and a flight recorder, so enabling full tracing never disables
the crash ring.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import List, Optional, Union

#: Default ring capacity.  Sized so a dump captures the last few
#: decisions' worth of search activity without holding more than a few
#: hundred KB of tuples.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Ring buffer of the most recent trace events.

    API-compatible with :class:`~repro.obs.trace.TraceEmitter` where the
    solver cares (``enabled`` attribute, ``event`` / ``flush`` methods),
    so it can sit directly in the solver's tracer slot when full tracing
    is off.  Recording appends ``(t, ev, dl, fields)`` to a bounded
    deque — the disabled-tracing overhead budget (<= 2% on the smoke
    profile) is why nothing is serialized until :meth:`dump`.
    """

    __slots__ = (
        "enabled", "capacity", "recorded", "_ring", "_clock", "_t0",
        "_lock",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock=time.perf_counter, t0: Optional[float] = None):
        self.enabled = True
        self.capacity = capacity
        self.recorded = 0
        self._ring = deque(maxlen=capacity)
        self._clock = clock
        # Shared epoch with the worker's trace shard (see telemetry).
        self._t0 = clock() if t0 is None else t0
        # The resource-sampler thread records alongside the solver
        # thread; ``recorded`` (the seq base for dumps) must track the
        # ring exactly.  Reentrant: the SIGTERM dump handler runs on
        # the main thread and may interrupt an in-progress ``event``.
        self._lock = threading.RLock()

    def event(self, ev: str, dl: int = 0, **fields) -> None:
        with self._lock:
            self._ring.append((self._clock() - self._t0, ev, dl, fields))
            self.recorded += 1

    def flush(self) -> None:
        """No-op (nothing is buffered outside the ring itself)."""

    def close(self) -> None:
        """No-op (the ring owns no file handle)."""

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def dropped(self) -> int:
        """Events that have fallen off the ring."""
        return self.recorded - len(self._ring)

    def snapshot(self) -> List[dict]:
        """The ring's events as schema-v2 trace records.

        ``seq`` is reconstructed from the global record count so dumped
        fragments keep the stable merge tie-break even after older
        events have been overwritten.
        """
        with self._lock:
            first_seq = self.dropped
            ring = list(self._ring)
        records = []
        for position, (t, ev, dl, fields) in enumerate(ring):
            record = {
                "t": round(t, 9),
                "ev": ev,
                "dl": dl,
                "seq": first_seq + position,
            }
            record.update(fields)
            records.append(record)
        return records

    def dump(self, path: Union[str, Path], reason: str = "") -> Path:
        """Write the ring as a JSONL trace fragment headed by a
        ``flight_dump`` record; returns the written path."""
        path = Path(path)
        records = self.snapshot()
        header = {
            "t": round(self._clock() - self._t0, 9),
            "ev": "flight_dump",
            "dl": 0,
            "seq": self.recorded,
            "reason": reason,
            "events": len(records),
            "dropped": self.dropped,
        }
        with path.open("w", encoding="utf-8") as sink:
            sink.write(json.dumps(header, separators=(",", ":")) + "\n")
            for record in records:
                sink.write(json.dumps(record, separators=(",", ":")) + "\n")
        return path


class TeeEmitter:
    """Fan one tracer event stream out to several emitter-like sinks.

    Used by the telemetry layer to feed the full shard trace and the
    flight recorder from a single solver-side tracer slot.  ``None``
    sinks are skipped at construction, so ``TeeEmitter(tracer, flight)``
    degrades to the flight recorder alone when tracing is disabled.
    """

    __slots__ = ("enabled", "sinks")

    def __init__(self, *sinks: Optional[object]):
        self.sinks = tuple(s for s in sinks if s is not None)
        self.enabled = bool(self.sinks)

    def event(self, ev: str, dl: int = 0, **fields) -> None:
        for sink in self.sinks:
            sink.event(ev, dl, **fields)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
