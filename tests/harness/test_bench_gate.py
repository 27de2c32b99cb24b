"""The ratio gates' rules on synthetic records.

``benchmarks/perf/test_ratio_gates.py`` measures for minutes; these
tests pin how it picks a cell among repeats, scores an engine and
fails a gate, so a change to those rules shows in the tier-1 suite.
"""

from __future__ import annotations

import pytest

from benchmarks.perf.test_ratio_gates import (
    TIMEOUT,
    Gate,
    check,
    geomean,
    measure,
    select_best,
)
from repro.harness.runner import RunRecord

GATE = Gate(
    instances=(("b01_1", 20, "U"), ("b02_1", 20, "U")),
    ratios=(("hdpll+sp", "hdpll+sp-ref", 1.5),),
)


def _record(status: str, seconds: float, engine: str = "hdpll+sp"):
    return RunRecord(
        case="b01_1", bound=20, engine=engine, status=status, seconds=seconds
    )


def _cells(fast, slow):
    """GATE's cells from per-instance ``(status, seconds)`` pairs."""
    cells = {}
    for engine, runs in (("hdpll+sp", fast), ("hdpll+sp-ref", slow)):
        for (case, bound, _), (status, seconds) in zip(GATE.instances, runs):
            cells[case, bound, engine] = _record(status, seconds, engine)
    return cells


# ----------------------------------------------------------------------
# Best of repeats: a fast abort must not beat a real solve
# ----------------------------------------------------------------------
def test_select_best_prefers_success_over_fast_abort():
    fast_abort = _record("-A-", 0.01)
    slow_solve = _record("U", 2.0)
    assert select_best([fast_abort, slow_solve]) is slow_solve
    assert select_best([slow_solve, fast_abort]) is slow_solve


def test_select_best_prefers_timeout_over_abort():
    assert select_best([_record("-A-", 0.01), _record("-to-", 60.0)]).status == "-to-"


def test_select_best_fastest_within_rank():
    quick = _record("S", 0.5)
    assert select_best([_record("S", 1.5), quick, _record("U", 2.0)]) is quick


def test_select_best_falls_back_when_nothing_succeeds():
    assert select_best([_record("-A-", 0.1), _record("-A-", 0.2)]).status == "-A-"


# ----------------------------------------------------------------------
# Geomeans must not reward failing cells
# ----------------------------------------------------------------------
def test_geomean_excludes_aborts():
    records = [_record("U", 4.0), _record("-A-", 0.001)]
    assert geomean(records) == pytest.approx(4.0)


def test_geomean_pins_timeouts_to_timeout_value():
    # Raw wall time lies well under the budget (the cooperative check
    # fired late); the geomean charges the full budget.
    records = [_record("U", 1.0), _record("-to-", 10.0)]
    assert geomean(records) == pytest.approx((1.0 * TIMEOUT) ** 0.5)


def test_geomean_none_when_all_cells_abort():
    assert geomean([_record("-A-", 0.01), _record("-A-", 0.02)]) is None


# ----------------------------------------------------------------------
# Gate verdicts
# ----------------------------------------------------------------------
def test_gate_passes_at_min_ratio():
    lines, failures = check(GATE, _cells([("U", 1.0)] * 2, [("U", 1.5)] * 2))
    assert not failures
    assert lines == [
        "hdpll+sp vs hdpll+sp-ref: 1.500s / 1.000s = 1.50x "
        "(required >= 1.5x)"
    ]


def test_gate_fails_below_min_ratio():
    _, failures = check(GATE, _cells([("U", 1.0)] * 2, [("U", 1.4)] * 2))
    assert failures == [
        "hdpll+sp vs hdpll+sp-ref: 1.400s / 1.000s = 1.40x "
        "(required >= 1.5x)"
    ]


def test_gate_fails_for_always_aborting_engine():
    """An engine whose every cell aborted cannot pass, however fast."""
    _, failures = check(GATE, _cells([("-A-", 0.01)] * 2, [("U", 1.0)] * 2))
    assert "hdpll+sp has no scorable cell" in failures


def test_gate_report_handles_unscorable_engine():
    """A ratio with an unscorable side prints no line; the failure
    names the engine instead of dividing by a missing geomean."""
    lines, failures = check(
        GATE, _cells([("U", 1.0)] * 2, [("-A-", 0.01)] * 2)
    )
    assert lines == []
    assert failures == [
        "status drift at b01_1(20): hdpll+sp-ref -A-, pinned U",
        "status drift at b02_1(20): hdpll+sp-ref -A-, pinned U",
        "hdpll+sp-ref has no scorable cell",
    ]


def test_gate_fails_on_parity_mismatch():
    """A speedup between different answers fails, even when fast."""
    _, failures = check(
        GATE, _cells([("U", 0.1), ("S", 0.1)], [("U", 1.0)] * 2)
    )
    assert failures == [
        "status drift at b02_1(20): hdpll+sp S, pinned U"
    ]


def test_gate_fails_on_status_drift():
    """Both engines agreeing is not enough: they must agree with the
    pinned status (a timeout on both sides drifts from it)."""
    _, failures = check(
        GATE,
        _cells([("U", 1.0), ("-to-", 9.0)], [("U", 3.0), ("-to-", 9.0)]),
    )
    assert failures == [
        "status drift at b02_1(20): hdpll+sp -to-, pinned U",
        "status drift at b02_1(20): hdpll+sp-ref -to-, pinned U",
    ]


def test_measure_runs_every_cell_inline():
    gate = Gate(
        instances=(("b01_1", 5, "U"),),
        ratios=(("hdpll", "hdpll+sp", 0.0),),
    )
    cells = measure(gate)
    assert sorted(cells) == [("b01_1", 5, "hdpll"), ("b01_1", 5, "hdpll+sp")]
    lines, failures = check(gate, cells)
    assert not failures
    assert len(lines) == 1
