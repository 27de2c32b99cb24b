"""Worker-pool tests: crash isolation, hard kills, determinism.

The worker functions live at module level because spawn workers
re-import them by reference; anything defined inside a test function
would not pickle.
"""

from __future__ import annotations

import os
import signal
from pathlib import Path

from repro.harness.parallel import (
    EngineTask,
    Task,
    outcome_to_record,
    run_engine_tasks,
    run_tasks,
)
from repro.obs import read_trace, validate_trace
from repro.obs.telemetry import TelemetryHub


# ----------------------------------------------------------------------
# Spawn-safe worker functions
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _raise_value_error(message):
    raise ValueError(message)


def _exit_hard(code):
    os._exit(code)


def _sleep_forever():
    import time

    while True:
        time.sleep(0.5)


def _flaky(sentinel_path):
    """Dies the first time, succeeds once the sentinel exists."""
    path = Path(sentinel_path)
    if not path.exists():
        path.write_text("crashed once")
        os._exit(3)
    return "recovered"


# ----------------------------------------------------------------------
# Inline path (jobs=1)
# ----------------------------------------------------------------------
def test_inline_matches_pool_results():
    tasks = [Task(fn=_square, args=(n,), label=f"sq{n}") for n in range(6)]
    inline = run_tasks(tasks, jobs=1)
    pooled = run_tasks(tasks, jobs=3)
    assert [o.value for o in inline] == [n * n for n in range(6)]
    assert [o.value for o in pooled] == [o.value for o in inline]
    assert [o.index for o in pooled] == list(range(6))
    assert all(o.ok for o in pooled)


def test_inline_catches_exceptions():
    outcomes = run_tasks(
        [Task(fn=_raise_value_error, args=("boom",))], jobs=1
    )
    assert not outcomes[0].ok
    assert "ValueError: boom" in outcomes[0].error
    assert not outcomes[0].timed_out


# ----------------------------------------------------------------------
# Crash isolation
# ----------------------------------------------------------------------
def test_worker_exception_is_reported_not_fatal():
    tasks = [
        Task(fn=_square, args=(2,)),
        Task(fn=_raise_value_error, args=("kaput",)),
        Task(fn=_square, args=(3,)),
    ]
    outcomes = run_tasks(tasks, jobs=2)
    assert outcomes[0].value == 4
    assert outcomes[2].value == 9
    assert not outcomes[1].ok
    assert "ValueError: kaput" in outcomes[1].error


def test_dead_worker_yields_abort_with_exit_reason():
    tasks = [Task(fn=_square, args=(5,)), Task(fn=_exit_hard, args=(7,))]
    outcomes = run_tasks(tasks, jobs=2)
    assert outcomes[0].value == 25
    crash = outcomes[1]
    assert not crash.ok
    assert "exitcode 7" in crash.error
    # The single bounded retry was consumed before giving up.
    assert crash.attempts == 2
    assert not crash.timed_out


def test_crash_retry_recovers_transient_failure(tmp_path):
    sentinel = tmp_path / "sentinel"
    outcomes = run_tasks(
        [Task(fn=_flaky, args=(str(sentinel),))], jobs=2
    )
    assert outcomes[0].ok
    assert outcomes[0].value == "recovered"
    assert outcomes[0].attempts == 2


def test_hard_timeout_kills_stuck_worker():
    tasks = [
        Task(fn=_sleep_forever, hard_timeout=1.5, label="stuck"),
        Task(fn=_square, args=(4,)),
    ]
    outcomes = run_tasks(tasks, jobs=2)
    stuck = outcomes[0]
    assert not stuck.ok
    assert stuck.timed_out
    assert "hard timeout" in stuck.error
    # Hard kills are terminal: no retry for a worker that overran.
    assert stuck.attempts == 1
    assert outcomes[1].value == 16


def test_outcome_to_record_maps_statuses():
    timeout = run_tasks(
        [Task(fn=_sleep_forever, hard_timeout=1.0)], jobs=2
    )[0]
    record = outcome_to_record(timeout, "b01_1", 5, "hdpll")
    assert record.status == "-to-"
    crash = run_tasks([Task(fn=_exit_hard, args=(9,))], jobs=2)[0]
    record = outcome_to_record(crash, "b01_1", 5, "hdpll")
    assert record.status == "-A-"
    assert "exitcode 9" in record.note


# ----------------------------------------------------------------------
# Engine-task layer
# ----------------------------------------------------------------------
def _strip_times(record):
    data = dict(record.__dict__)
    # Throughput gauges are wall-clock derived, so they vary between
    # runs just like the raw times do.
    for key in (
        "seconds",
        "solve_seconds",
        "learn_seconds",
        "props_per_sec",
        "narrowings_per_sec",
    ):
        data.pop(key, None)
    return data


def test_engine_tasks_parallel_matches_sequential():
    specs = [
        EngineTask(case="b01_1", bound=5, engine="hdpll", timeout=60.0),
        EngineTask(case="b02_1", bound=5, engine="hdpll+sp", timeout=60.0),
        EngineTask(case="b01_1", bound=8, engine="hdpll+sp", timeout=60.0),
    ]
    sequential = run_engine_tasks(specs, jobs=1)
    pooled = run_engine_tasks(specs, jobs=2)
    assert [_strip_times(r) for r in pooled] == [
        _strip_times(r) for r in sequential
    ]
    assert all(r.status in ("S", "U") for r in sequential)


def test_engine_tasks_telemetry_shards_and_logs(tmp_path):
    hub = TelemetryHub(tmp_path)
    specs = [
        EngineTask(case="b01_1", bound=5, engine="hdpll+sp", timeout=60.0),
        EngineTask(case="b01_1", bound=5, engine="uclid", timeout=60.0),
    ]
    records = run_engine_tasks(specs, jobs=2, telemetry=hub)
    assert all(r.status in ("S", "U") for r in records)
    for index in range(len(specs)):
        worker = f"worker-t{index:04d}"
        events = read_trace(str(tmp_path / f"{worker}.trace.jsonl"))
        assert events[0]["ev"] == "shard_begin"
        assert events[-1]["ev"] == "shard_end"
        assert not validate_trace(events, complete=False)
        assert (tmp_path / f"{worker}.metrics.json").exists()
        log = (tmp_path / f"{worker}.log").read_text()
        assert f"{specs[index].case}(5)/{specs[index].engine}" in log


def test_inline_telemetry_task_restores_sigterm_handler(tmp_path):
    # An inline task installs the flight-dump SIGTERM handler for its
    # duration only; the caller's handler is back once it is done.
    before = signal.getsignal(signal.SIGTERM)
    hub = TelemetryHub(tmp_path)
    spec = EngineTask(case="b01_1", bound=5, engine="hdpll", timeout=60.0)
    records = run_engine_tasks([spec], jobs=1, telemetry=hub)
    assert records[0].status in ("S", "U")
    assert signal.getsignal(signal.SIGTERM) == before

