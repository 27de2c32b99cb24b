"""Tests for the cross-process telemetry hub.

Covers the PR's acceptance points: deterministic shard merging with a
globally monotonic clock-aligned timeline, the clock-offset handshake,
the per-worker profiler drift gate, clause-flow pairing, metrics
aggregation/export (JSON + Prometheus), the live-status snapshot, and
two real multi-process runs — portfolio workers with sharing and a
bench-pool worker hard-killed mid-solve whose flight dump must replay.
"""

import json

import pytest

import repro.obs.logging as obs_logging
from repro.harness.parallel import EngineTask, run_engine_tasks
from repro.obs import (
    PROFILE_DRIFT_TOLERANCE,
    TRACE_SCHEMA_VERSION,
    ResourceSampler,
    TelemetryHub,
    WorkerTelemetry,
    effective_level_spec,
    narrate,
    read_trace,
    validate_trace,
)
from repro.obs.telemetry import (
    clause_flows,
    collect_metrics,
    cube_lifecycle,
    format_report,
    format_top,
    merge_directory,
    merge_shards,
    parse_prometheus,
    render_prometheus,
    shard_paths,
    snapshot_status,
)


def _write_shard(directory, worker, offset, events, label=""):
    """A synthetic schema-v2 worker shard with a shard_begin head."""
    path = directory / f"worker-{worker}.trace.jsonl"
    head = {
        "t": 0.0, "ev": "shard_begin", "dl": 0, "seq": 0,
        "schema": TRACE_SCHEMA_VERSION, "worker": worker, "pid": 1,
        "offset": offset, "label": label,
    }
    with path.open("w", encoding="utf-8") as sink:
        for record in [head] + list(events):
            sink.write(json.dumps(record) + "\n")
    return path


def _restart(t, seq, n):
    return {"t": t, "ev": "restart", "dl": 0, "seq": seq,
            "n": n, "conflicts": n, "strategy": "luby"}


class TestMerge:
    def test_merge_aligns_clocks_and_orders_globally(self, tmp_path):
        # Worker a started 0.5s after the hub epoch, worker b 1.0s
        # after; local timestamps interleave only once aligned.
        _write_shard(tmp_path, "a", 0.5, [_restart(0.1, 1, 1),
                                          _restart(0.9, 2, 2)])
        _write_shard(tmp_path, "b", 1.0, [_restart(0.1, 1, 3)])
        timeline, summary = merge_shards(shard_paths(tmp_path))
        assert timeline[0]["ev"] == "timeline_begin"
        body = [e for e in timeline[1:] if e["ev"] == "restart"]
        assert [e["n"] for e in body] == [1, 3, 2]  # 0.6 < 1.1 < 1.4
        assert [e["gt"] for e in body] == [0.6, 1.1, 1.4]
        assert validate_trace(timeline) == []
        assert len(summary["workers"]) == 2

    def test_merge_is_deterministic_across_arrival_orders(self, tmp_path):
        shards = [("b", 0.2), ("a", 0.7), ("c", 0.0)]
        events = [_restart(0.1, 1, 1), _restart(0.2, 2, 2)]
        first = tmp_path / "first"
        second = tmp_path / "second"
        for directory, order in ((first, shards), (second, shards[::-1])):
            directory.mkdir()
            for worker, offset in order:
                _write_shard(directory, worker, offset, events)
        merged_first = merge_directory(first)
        merged_second = merge_directory(second)
        first_text = (first / "timeline.jsonl").read_text()
        second_text = (second / "timeline.jsonl").read_text()
        assert first_text == second_text
        assert merged_first["events"] == merged_second["events"]

    def test_equal_gt_ties_break_by_worker_then_seq(self, tmp_path):
        _write_shard(tmp_path, "z", 0.0, [_restart(0.5, 1, 1)])
        _write_shard(tmp_path, "a", 0.0, [_restart(0.5, 1, 2)])
        timeline, _ = merge_shards(shard_paths(tmp_path))
        body = [e for e in timeline[1:] if e["ev"] == "restart"]
        assert [e["w"] for e in body] == ["a", "z"]
        assert validate_trace(timeline) == []

    def test_v1_shard_without_seq_gets_positional_seq(self, tmp_path):
        path = tmp_path / "worker-old.trace.jsonl"
        with path.open("w") as sink:
            for t, n in ((0.1, 1), (0.2, 2)):
                sink.write(json.dumps(
                    {"t": t, "ev": "restart", "dl": 0,
                     "n": n, "conflicts": n, "strategy": "luby"}
                ) + "\n")
        timeline, summary = merge_shards(shard_paths(tmp_path))
        body = timeline[1:]
        assert [e["seq"] for e in body] == [0, 1]
        assert summary["workers"][0]["worker"] == "old"
        assert validate_trace(timeline) == []

    def test_torn_final_line_is_skipped_and_counted(self, tmp_path):
        path = _write_shard(tmp_path, "a", 0.0, [_restart(0.1, 1, 1)])
        with path.open("a", encoding="utf-8") as sink:
            sink.write('{"t":0.2,"ev":"resta')  # killed mid-write
        with path.open("ab") as sink:
            sink.write(b"\xe8\xff")  # and mid multi-byte sequence
        timeline, summary = merge_shards(shard_paths(tmp_path))
        assert summary["torn_lines"] == 1
        assert summary["workers"][0]["events"] == 2  # head + restart

    def test_per_worker_drift_gate_flags_bad_accounting(self, tmp_path):
        phases = [{"path": "search", "seconds": 2.0,
                   "self_seconds": 2.0, "count": 1}]
        events = [
            {"t": 0.1, "ev": "profile", "dl": 0, "seq": 1,
             "phases": phases},
            {"t": 0.2, "ev": "solve_end", "dl": 0, "seq": 2,
             "status": "unsat", "decisions": 1, "conflicts": 0,
             "solve_time": 1.0, "learn_time": 0.0},
        ]
        _write_shard(tmp_path, "a", 0.0, events)
        _, summary = merge_shards(shard_paths(tmp_path))
        assert len(summary["drift_errors"]) == 1
        assert "worker a" in summary["drift_errors"][0]
        # Within tolerance: no complaint.
        agree = dict(events[1])
        agree["solve_time"] = 2.0 * (1 - PROFILE_DRIFT_TOLERANCE / 2)
        other = tmp_path / "ok"
        other.mkdir()
        _write_shard(other, "b", 0.0, [events[0], agree])
        _, clean = merge_shards(shard_paths(other))
        assert clean["drift_errors"] == []


class TestClauseFlowsAndCubes:
    def test_export_install_pairs_into_flow_with_latency(self):
        merged = [
            {"ev": "share", "w": "p0", "gt": 1.0, "seq": 1,
             "action": "export", "clauses": 1, "keys": ["abcd1234"]},
            {"ev": "share", "w": "p1", "gt": 1.25, "seq": 1,
             "action": "install", "clauses": 1, "keys": ["abcd1234"]},
        ]
        flows = clause_flows(merged)
        assert len(flows) == 1
        flow = flows[0]
        assert flow["key"] == "abcd1234"
        assert flow["from"] == "p0"
        assert flow["imports"][0]["worker"] == "p1"
        assert flow["imports"][0]["latency"] == pytest.approx(0.25)

    def test_cube_lifecycle_spans_begin_to_outcome(self):
        merged = [
            {"ev": "cube", "w": "p0", "gt": 1.0, "seq": 1,
             "n": 3, "size": 2, "outcome": "begin"},
            {"ev": "cube", "w": "p0", "gt": 1.5, "seq": 2,
             "n": 3, "size": 2, "outcome": "unsat"},
        ]
        spans = cube_lifecycle(merged)
        assert len(spans) == 1
        assert spans[0]["outcome"] == "unsat"
        assert spans[0]["seconds"] == pytest.approx(0.5)


class TestMetricsExport:
    def _write_worker_metrics(self, directory, worker, metrics):
        path = directory / f"worker-{worker}.metrics.json"
        path.write_text(json.dumps(
            {"worker": worker, "label": "", "metrics": metrics}
        ))

    def test_aggregate_sums_counters_and_maxes_gauges(self, tmp_path):
        self._write_worker_metrics(tmp_path, "a",
                                   {"decisions": 10, "peak_rss_kb": 100.0})
        self._write_worker_metrics(tmp_path, "b",
                                   {"decisions": 5, "peak_rss_kb": 200.0})
        workers, aggregate = collect_metrics(tmp_path)
        assert set(workers) == {"a", "b"}
        assert aggregate["decisions"] == 15  # int -> counter -> sum
        assert aggregate["peak_rss_kb"] == 200.0  # float -> gauge -> max

    def test_prometheus_text_round_trips(self, tmp_path):
        self._write_worker_metrics(tmp_path, "a", {"decisions": 10})
        self._write_worker_metrics(tmp_path, "b", {"decisions": 5})
        workers, aggregate = collect_metrics(tmp_path)
        text = render_prometheus(workers, aggregate)
        assert text.endswith("# EOF\n")
        samples = parse_prometheus(text)
        assert samples[("repro_decisions", ())] == 15
        assert samples[("repro_decisions", (("worker", "a"),))] == 10

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_prometheus("repro_decisions{ 10\n")


class TestWorkerTelemetry:
    def test_offset_handshake_and_shard_round_trip(self, tmp_path):
        hub = TelemetryHub(tmp_path, resources=False)
        config = hub.worker_config("t0000", label="unit")
        worker = WorkerTelemetry(config)
        worker.event("restart", n=1, conflicts=1, strategy="luby")
        assert worker.offset >= 0.0  # worker starts after the hub
        worker.close()
        events = read_trace(config.shard_path)
        assert events[0]["ev"] == "shard_begin"
        assert events[0]["offset"] == pytest.approx(worker.offset)
        assert events[-1]["ev"] == "shard_end"
        summary = hub.merge()
        timeline = read_trace(summary["timeline"])
        assert validate_trace(timeline) == []
        # gt reconstructs hub-relative wall order.
        body = [e for e in timeline[1:]]
        assert all(e["gt"] == pytest.approx(e["t"] + worker.offset,
                                            abs=1e-6)
                   for e in body)

    def test_metrics_ints_accumulate_floats_overwrite(self, tmp_path):
        hub = TelemetryHub(tmp_path, trace=False, resources=False)
        worker = WorkerTelemetry(hub.worker_config("t0000"))
        worker.record_metrics({"decisions": 3, "rate": 0.5, "skip": True})
        worker.record_metrics({"decisions": 4, "rate": 0.75})
        worker.close()
        payload = json.loads(
            (tmp_path / "worker-t0000.metrics.json").read_text()
        )
        assert payload["metrics"]["decisions"] == 7
        assert payload["metrics"]["rate"] == 0.75
        assert "skip" not in payload["metrics"]

    def test_resource_sampler_tracks_peaks(self):
        class Sink:
            def __init__(self):
                self.events = []

            def event(self, ev, dl=0, **fields):
                self.events.append((ev, fields))

        sink = Sink()
        sampler = ResourceSampler(sink, interval=10.0)
        sampler.sample_once()
        assert sampler.samples == 1
        assert sampler.peak_rss_kb > 0
        ev, fields = sink.events[0]
        assert ev == "resource"
        assert fields["rss_kb"] == sampler.peak_rss_kb


class TestLogLevelInheritance:
    def test_effective_spec_prefers_configured_over_env(self, monkeypatch):
        monkeypatch.setattr(obs_logging, "_configured_spec", None)
        monkeypatch.delenv(obs_logging.ENV_VAR, raising=False)
        assert effective_level_spec() is None
        monkeypatch.setenv(obs_logging.ENV_VAR, "warning")
        assert effective_level_spec() == "warning"
        monkeypatch.setattr(obs_logging, "_configured_spec", "debug")
        assert effective_level_spec() == "debug"


class TestMultiprocess:
    def test_bench_pool_merged_timeline_validates(self, tmp_path):
        hub = TelemetryHub(tmp_path)
        tasks = [
            EngineTask(case="b01_1", bound=5, engine="hdpll+sp",
                       timeout=60.0),
            EngineTask(case="b01_1", bound=8, engine="hdpll+sp",
                       timeout=60.0),
        ]
        records = run_engine_tasks(tasks, jobs=2, telemetry=hub)
        assert all(r.status in ("S", "U") for r in records)
        summary = hub.merge()
        assert len(summary["workers"]) == 2
        timeline = read_trace(summary["timeline"])
        assert validate_trace(timeline) == []
        # Clock alignment: every worker's offset is non-negative and gt
        # never precedes the hub epoch.
        assert all(lane["offset"] >= 0.0 for lane in summary["workers"])
        assert all(e["gt"] >= 0.0 for e in timeline[1:])
        # Metrics snapshots parse cleanly.
        prom = (tmp_path / "metrics.prom").read_text()
        samples = parse_prometheus(prom)
        assert samples[("repro_decisions", ())] >= 0
        report = format_report(summary)
        assert "b01_1(5)/hdpll+sp" in report
        rows = snapshot_status(tmp_path)
        assert format_top(rows)

    def test_hard_killed_worker_leaves_replayable_flight_dump(
        self, tmp_path
    ):
        hub = TelemetryHub(tmp_path)
        tasks = [
            EngineTask(case="b01_1", bound=5, engine="hdpll+sp",
                       timeout=60.0, inject_crash="hang",
                       hard_timeout=2.0),
        ]
        # jobs must exceed 1: the inline path would hang this process.
        records = run_engine_tasks(tasks, jobs=2, telemetry=hub)
        assert records[0].status == "-to-"
        assert "flight recorder dump" in records[0].note
        summary = hub.merge()
        assert summary["flight_dumps"]
        dump = read_trace(summary["flight_dumps"][0])
        assert dump[0]["ev"] == "flight_dump"
        assert "signal" in dump[0]["reason"]
        assert validate_trace(dump, complete=False) == []
        assert "flight recorder dump" in narrate(dump)

    def test_injected_abort_reports_crash_without_dying_silently(
        self, tmp_path
    ):
        hub = TelemetryHub(tmp_path)
        tasks = [
            EngineTask(case="b01_1", bound=5, engine="hdpll+sp",
                       timeout=60.0, inject_crash="abort"),
        ]
        records = run_engine_tasks(tasks, jobs=2, telemetry=hub)
        assert records[0].status == "-A-"
        summary = hub.merge()
        lane = summary["workers"][0]
        assert lane["status"] == "crash"


class TestPortfolioTelemetry:
    def test_pool_run_produces_monotonic_timeline_with_cubes(
        self, tmp_path
    ):
        from repro.core.config import SolverConfig
        from repro.dist.hub import CubeHub
        from repro.dist.run import run_hosts
        from repro.portfolio.cubes import Cube, generate_cubes
        from repro.portfolio.worker import ProblemSpec, build_problem

        spec = ProblemSpec("instance", "b01_1", 10)
        circuit, assumptions = build_problem(spec)
        report = generate_cubes(circuit, assumptions, depth=1)
        cubes = [Cube(())] + list(report.cubes)
        telemetry = TelemetryHub(tmp_path)
        result = run_hosts(
            CubeHub(spec, cubes, SolverConfig(), timeout=120.0),
            1,
            4,
            telemetry=telemetry,
        )
        assert result.status == "sat"
        summary = telemetry.merge()
        # Workers that were cancelled before writing anything may leave
        # no shard; at least the winner and one peer always do.
        assert len(summary["workers"]) >= 2
        timeline = read_trace(summary["timeline"])
        assert validate_trace(timeline) == []
        assert summary["cubes"]  # cube lifecycle spans present
        statuses = {span["outcome"] for span in summary["cubes"]}
        assert "sat" in statuses
