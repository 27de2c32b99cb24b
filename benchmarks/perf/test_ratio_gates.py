"""Within-run ratio gates: a fast engine against a slow one, same run.

Each gate runs its engines on its instances inline through
:func:`repro.harness.runner.run_engine` and requires the slow engine's
geomean wall time to be at least ``min_ratio`` times the fast one's.
Both engines are measured in the same run on the same machine, so the
ratio holds when the machine's speed changes; wall time across commits
is judged by ``benchmarks/e2e`` ``compare``.

Every gate follows the same cell rules:

* best of :data:`REPEATS` runs: ``S``/``U`` beats ``-to-`` beats
  ``-A-``, and wall time breaks ties only within a rank (a fast abort
  must not beat a real solve);
* :data:`TIMEOUT` seconds per run, each on a fresh instance with a cold
  interval-interning cache;
* geomeans exclude aborted cells and pin timed-out cells to
  :data:`TIMEOUT`, with a :data:`GEOMEAN_FLOOR` under every cell, so an
  engine that starts failing fast gets worse, never better;
* every engine must reach the status pinned for each instance, which
  also gives the two engines of a ratio the same answer everywhere (a
  speedup between different answers means nothing).

Run all seven gates (about 3 minutes on 2 cores), or one table row::

    python -m pytest -q -s benchmarks/perf/test_ratio_gates.py
    python -m pytest -q -s benchmarks/perf/test_ratio_gates.py -k serve

``-s`` prints each gate's ratios.  The rules themselves are checked on
synthetic records by ``tests/harness/test_bench_gate.py``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.harness.runner import RunRecord, run_engine  # noqa: E402
from repro.intervals import reset_interval_cache  # noqa: E402
from repro.itc99 import instance  # noqa: E402

REPEATS = 2
TIMEOUT = 120.0
#: Floor under every cell's wall time, so a near-zero cell cannot
#: dominate a geomean.
GEOMEAN_FLOOR = 1e-3

#: Best-of-repeat preference: successful statuses beat timeouts beat
#: aborts; wall time only breaks ties within a rank.
_STATUS_RANK = {"S": 0, "U": 0, "-to-": 1, "-A-": 2}

#: (case, bound, engine) -> the cell's best record.
Cells = Dict[Tuple[str, int, str], RunRecord]


@dataclass(frozen=True)
class Gate:
    """One table row: instances with pinned statuses and its ratios."""

    #: (case, bound, status every engine must reach).
    instances: Tuple[Tuple[str, int, str], ...]
    #: (fast, slow, min_ratio): slow geomean >= min_ratio * fast's.
    ratios: Tuple[Tuple[str, str, float], ...]
    #: Width of the ``portfolio`` and ``dist-*`` engines (per host).
    jobs: int = 1

    @property
    def engines(self) -> Tuple[str, ...]:
        return tuple(
            dict.fromkeys(name for fast, slow, _ in self.ratios
                          for name in (fast, slow))
        )


#: A gate's pinned statuses are the ones its engines reached when the
#: gate was set; a change that moves one changes behaviour, not speed.
GATES: Dict[str, Gate] = {
    # Full solves at seconds scale: the two ~10-ms cells sit near
    # parity and pin the geomean while the b13 cells run 1.5-2x, so the
    # kernels are held to no regression; the speedup bar is the prop
    # gate's.
    "kernels": Gate(
        instances=(
            ("b01_1", 20, "U"),
            ("b02_1", 20, "U"),
            ("b04_1", 20, "S"),
            ("b13_5", 20, "U"),
            ("b13_1", 20, "U"),
        ),
        ratios=(("hdpll+sp", "hdpll+sp-ref", 0.9),),
    ),
    # Each cell sweeps bounds 1..bound: one persistent session against
    # a fresh solver per bound.  The sweeps spend most of their time in
    # frame extension, so against the reference core the kernels are
    # held to no regression only.
    "session": Gate(
        instances=(
            ("b01_1", 15, "U"),
            ("b02_1", 15, "U"),
            ("b06_1", 10, "U"),
            ("b13_1", 15, "U"),
        ),
        ratios=(
            ("bmc-session", "bmc-oneshot", 2.0),
            ("bmc-session", "bmc-session-ref", 0.85),
        ),
    ),
    # The BCP+ICP fixpoint alone (``runner.run_prop_drill``).
    "prop": Gate(
        instances=(
            ("b01_1", 50, "S"),
            ("b04_1", 30, "S"),
            ("b13_3", 20, "S"),
            ("b13_8", 20, "S"),
        ),
        ratios=(("prop", "prop-ref", 2.0),),
    ),
    # Deep unrollings where one sequential strategy stalls.
    "portfolio": Gate(
        instances=(
            ("b01_1", 50, "S"),
            ("b04_1", 150, "S"),
            ("b13_3", 100, "U"),
            ("b13_5", 150, "U"),
            ("b13_8", 100, "U"),
        ),
        ratios=(("portfolio", "hdpll+sp", 1.5),),
        jobs=2,
    ),
    # A real daemon over a unix socket: restarted per request against
    # one warm session (``repro.serve.bench``).
    "serve": Gate(
        instances=(
            ("b01_1", 15, "U"),
            ("b04_1", 15, "S"),
            ("b13_1", 10, "U"),
            ("b13_5", 15, "U"),
        ),
        ratios=(("serve-warm", "serve-cold", 2.0),),
    ),
    # One cube hub, one host against two: the second host's win on one
    # machine is the wider diversification spread and cube stealing,
    # on the instances where diversification carries the solve.
    "dist": Gate(
        instances=(
            ("b01_1", 50, "S"),
            ("b04_1", 150, "S"),
            ("b04_1", 200, "S"),
            ("b13_5", 150, "U"),
        ),
        ratios=(("dist-2h", "dist-1h", 1.3),),
        jobs=2,
    ),
}


def select_best(records: Sequence[RunRecord]) -> RunRecord:
    """The cell's record among its repeats (see the module doc)."""
    return min(
        records, key=lambda r: (_STATUS_RANK.get(r.status, 3), r.seconds)
    )


def geomean(records: Sequence[RunRecord]) -> Optional[float]:
    """Geometric mean wall time over the scorable cells.

    Aborted cells are excluded and timed-out cells count as
    :data:`TIMEOUT`; ``None`` when every cell aborted.
    """
    times = [
        max(TIMEOUT if r.status == "-to-" else r.seconds, GEOMEAN_FLOOR)
        for r in records
        if r.status != "-A-"
    ]
    if not times:
        return None
    return math.exp(sum(math.log(t) for t in times) / len(times))


def _run(case: str, bound: int, engine: str, jobs: int) -> RunRecord:
    # Every run starts as in a process of its own: a cold interning
    # cache and a fresh instance, so no engine inherits another's.
    reset_interval_cache()
    return run_engine(instance(case, bound), engine, TIMEOUT, jobs=jobs)


def measure(gate: Gate) -> Cells:
    """Run every cell of ``gate``, its repeats back to back."""
    cells: Cells = {}
    for case, bound, _ in gate.instances:
        for engine in gate.engines:
            cells[case, bound, engine] = select_best(
                [_run(case, bound, engine, gate.jobs) for _ in range(REPEATS)]
            )
    return cells


def check(gate: Gate, cells: Cells) -> Tuple[List[str], List[str]]:
    """``(ratio lines, failures)`` of ``gate`` over measured ``cells``."""
    lines: List[str] = []
    failures: List[str] = []
    for case, bound, pinned in gate.instances:
        for engine in gate.engines:
            status = cells[case, bound, engine].status
            if status != pinned:
                failures.append(
                    f"status drift at {case}({bound}): {engine} {status}, "
                    f"pinned {pinned}"
                )
    for fast, slow, min_ratio in gate.ratios:
        means = {}
        for engine in (fast, slow):
            means[engine] = geomean(
                [cells[case, bound, engine] for case, bound, _ in gate.instances]
            )
            if means[engine] is None:
                failures.append(f"{engine} has no scorable cell")
        if means[fast] is None or means[slow] is None:
            continue
        ratio = means[slow] / max(means[fast], GEOMEAN_FLOOR)
        line = (
            f"{fast} vs {slow}: {means[slow]:.3f}s / {means[fast]:.3f}s "
            f"= {ratio:.2f}x (required >= {min_ratio}x)"
        )
        lines.append(line)
        if ratio < min_ratio:
            failures.append(line)
    return lines, failures


@pytest.mark.parametrize("name", list(GATES))
def test_ratio_gate(name):
    gate = GATES[name]
    cells = measure(gate)
    for (case, bound, engine), record in cells.items():
        print(
            f"{name}: {case}({bound}) {engine} {record.status} "
            f"{record.seconds:.3f}s"
        )
    lines, failures = check(gate, cells)
    for line in lines:
        print(f"{name}: {line}")
    assert not failures, "\n".join(failures)
