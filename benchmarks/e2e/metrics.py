"""Metric definitions and the arithmetic behind them.

:data:`END_TO_END` and :data:`PER_LAYER` are the metric catalogue
``BENCHMARK.json`` publishes (a test keeps the two in step).  A run
with tracing off reports every end-to-end metric; a traced run reports
every per-layer metric, 0 where the workload never enters the layer.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence

from benchmarks.e2e.spans import self_times

#: name -> unit of the metrics a user of the system sees.
END_TO_END = {
    "setup_s": "s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "throughput_qps": "queries/s",
    "decided_ratio": "fraction",
    "peak_rss_mb": "MiB",
}

#: name -> (unit, the end-to-end metric and workloads it should move).
PER_LAYER = {
    "bmc.unroll_s": ("s", "verdict_p50_s on bmc-learn, bmc-search"),
    "bmc.unrolled_nodes": ("count", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.compile_s": ("s", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.variables": ("count", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.propagators": ("count", "verdict_p50_s on bmc-learn, bmc-search"),
    "core.predlearn.learn_s": ("s", "throughput_qps, verdict_p50_s on bmc-learn; none on bmc-search"),
    "core.predlearn.relations": ("count", "throughput_qps on bmc-learn"),
    "core.predlearn.relations_per_s": ("1/s", "throughput_qps on bmc-learn"),
    "core.search.search_s": ("s", "verdict_p50_s, verdict_tail_s on bmc-search"),
    "core.search.decisions": ("count", "verdict_tail_s on bmc-search"),
    "core.search.conflicts": ("count", "verdict_tail_s on bmc-search"),
    "core.search.j_conflicts": ("count", "verdict_tail_s on bmc-search"),
    "core.search.structural_decisions": ("count", "verdict_tail_s on bmc-search"),
    "core.search.restarts": ("count", "verdict_tail_s on bmc-search"),
    "core.search.heap_stale_ratio": ("ratio", "verdict_p50_s on bmc-search"),
    "core.search.literals_minimized": ("count", "verdict_tail_s on bmc-search"),
    "core.search.decide_s": ("s", "verdict_p50_s on bmc-search"),
    "core.search.propagate_s": ("s", "verdict_p50_s on bmc-search"),
    "core.search.conflict_s": ("s", "verdict_p50_s on bmc-search"),
    "constraints.bcp_s": ("s", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.icp_s": ("s", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.propagations": ("count", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.narrowings": ("count", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.props_per_s": ("1/s", "throughput_qps on bmc-learn, bmc-search"),
    "constraints.wakeups": ("count", "verdict_p50_s on bmc-learn, bmc-search"),
    "constraints.clause_visits": ("count", "verdict_p50_s on bmc-search"),
    "constraints.watch_moves": ("count", "verdict_p50_s on bmc-search"),
    "constraints.clauses_evicted": ("count", "verdict_tail_s on bmc-search"),
    "constraints.learned_lbd_mean": ("levels", "verdict_tail_s on bmc-search"),
    "intervals.cache_hit_rate": ("ratio", "verdict_p50_s on bmc-learn, bmc-search"),
    "fme.leaf_s": ("s", "throughput_qps on bmc-search"),
    "fme.checks": ("count", "throughput_qps on bmc-search"),
    "fme.refuted_ratio": ("ratio", "throughput_qps on bmc-search"),
    "serve.queue_p50_s": ("s", "verdict_tail_s on serve-zipf"),
    "serve.queue_p90_s": ("s", "verdict_tail_s on serve-zipf"),
    "serve.build_p50_s": ("s", "verdict_tail_s, throughput_qps on serve-zipf"),
    "serve.build_sum_s": ("s", "throughput_qps on serve-zipf"),
    "serve.solve_s": ("s", "verdict_p50_s on serve-zipf"),
    "serve.transport_ms": ("ms", "verdict_p50_s on serve-zipf"),
    "serve.cache_hit_ratio": ("ratio", "verdict_tail_s, throughput_qps on serve-zipf"),
    "serve.evictions": ("count", "throughput_qps on serve-zipf"),
    "serve.joined_builds": ("count", "verdict_tail_s on serve-zipf"),
    "serve.backlog_max": ("count", "verdict_tail_s on serve-zipf"),
    "loadgen.lag_p99_ms": ("ms", "none: the load generator must keep up"),
    "portfolio.query_s": ("s", "verdict_p50_s, throughput_qps on cubes"),
    "dist.query_s": ("s", "verdict_p50_s, throughput_qps on cubes"),
    "portfolio.cubes_generated": ("count", "verdict_p50_s on cubes"),
    "portfolio.cubes_solved": ("count", "verdict_p50_s on cubes"),
    "portfolio.cubes_refuted": ("count", "verdict_p50_s on cubes"),
    "portfolio.clauses_exported": ("count", "verdict_p50_s on cubes"),
    "portfolio.clauses_imported": ("count", "verdict_p50_s on cubes"),
    "portfolio.share_import_hit_rate": ("ratio", "verdict_p50_s on cubes"),
    "dist.requeues": ("count", "verdict_tail_s on cubes"),
    "dist.clauses_relayed": ("count", "verdict_p50_s on cubes"),
    "trace.overhead_ratio": ("ratio", "none: validity of the traced numbers"),
}


#: Typical seconds one :func:`reference_seconds` call took on the
#: machine the baseline was recorded on (2 vCPUs, Python 3.11).
REFERENCE_S = 0.034

#: End-to-end metrics of a run that are times (scaled down by the
#: slowdown) and rates (scaled up by it).  ``setup_s`` is scaled per
#: set-up instead, by :func:`reference_now` timed just before it.
TIMES = ("verdict_p50_s", "verdict_tail_s")
RATES = ("throughput_qps",)


def _reference_work() -> int:
    """Fixed interpreter work (dict, tuple and list traffic, like the
    solver's) that no change to the program can speed up or slow down."""
    table: Dict[int, int] = {}
    items = []
    total = 0
    for i in range(80_000):
        key = i % 997
        table[key] = table.get(key, 0) + i
        pair = (key, i & 255)
        items.append(pair)
        total += pair[1] if pair[0] & 1 else len(items)
    return total


def reference_seconds() -> float:
    """Wall time of the reference work right now."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def reference_now() -> float:
    """Median of three :func:`reference_seconds`: the machine's speed at
    one moment, for work too short to interleave probes with."""
    return statistics.median(reference_seconds() for _ in range(3))


class SpeedProbe:
    """Times the reference work at most once per ``interval`` seconds,
    so a run knows how fast the machine was while it ran."""

    def __init__(self, interval: float = 0.5):
        self.interval = interval
        self.samples: List[float] = []
        self._last = float("-inf")

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= self.interval:
            self.samples.append(reference_seconds())
            self._last = time.perf_counter()

    def slowdown(self) -> float:
        """Mean reference time over :data:`REFERENCE_S` (1.0 unsampled)."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / REFERENCE_S


def at_reference_speed(values: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """End-to-end metrics as they would read on the reference machine.

    ``slowdown`` is the mean reference-work time during the run over
    :data:`REFERENCE_S`.  The shared 2-vCPU virtual machine the baseline
    was recorded on changed speed by up to 2x within a minute, which moved
    every timing with it; interleaved with a solver query, the reference
    work tracked the query's time to within 3% over 20-second windows.
    """
    scaled = dict(values)
    for name in TIMES:
        scaled[name] = values[name] / slowdown
    for name in RATES:
        scaled[name] = values[name] * slowdown
    return scaled


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in 0..100); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> List[float]:
    """[q1, median, q3] as ``statistics.quantiles(values, n=4)`` gives
    them (one value: that value three times)."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_samples(records: List[dict]) -> List[float]:
    """One latency per query: the mean over its verdicts.  A cubes query
    asks both transports, whose latencies differ by about 2x; pooling
    the two would put the median in the gap between them."""
    verdicts: Dict[str, List[float]] = {}
    for r in records:
        verdicts.setdefault(r.get("query", r["qid"]), []).append(r["latency_s"])
    return [sum(v) / len(v) for v in verdicts.values()]


def decided(record: dict) -> bool:
    return record.get("status") in ("sat", "unsat")


def end_to_end(
    records: List[dict],
    tail_percentile: float,
    capacity_qps: Optional[float],
    peak_rss_mb: float,
) -> Dict[str, float]:
    """End-to-end metrics of one run, except ``setup_s`` (the parent
    process measures that from outside)."""
    samples = latency_samples(records)
    if capacity_qps is None:  # closed loop: verdicts per timed second
        capacity_qps = _ratio(
            sum(1 for r in records if decided(r)),
            sum(r["latency_s"] for r in records),
        )
    return {
        "verdict_p50_s": percentile(samples, 50.0),
        "verdict_tail_s": percentile(samples, tail_percentile),
        "throughput_qps": capacity_qps,
        "decided_ratio": _ratio(sum(1 for r in records if decided(r)), len(records)),
        "peak_rss_mb": peak_rss_mb,
    }


def tail_samples(records: List[dict], tail_percentile: float) -> int:
    """How many latency samples lie beyond the reported tail percentile."""
    samples = latency_samples(records)
    cut = percentile(samples, tail_percentile)
    return sum(1 for s in samples if s > cut)


def per_layer(
    records: List[dict],
    spans,
    trace_overhead: Optional[float],
    serve_counters: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced run."""
    layers = {name: 0.0 for name in PER_LAYER}
    layers["trace.overhead_ratio"] = trace_overhead or 0.0
    one_shot = [r for r in records if "phases" in r]
    if one_shot:
        layers.update(_one_shot_layers(one_shot, spans))
    serve = [r for r in records if r.get("cache")]
    if serve:
        layers.update(_serve_layers(serve))
        layers.update(serve_counters or {})
    pipe = [r for r in records if r["engine"] == "pipe" and "stats" in r]
    socket = [r for r in records if r["engine"] == "socket" and "stats" in r]
    if pipe or socket:
        layers.update(_cubes_layers(pipe, socket))
    return layers


def _one_shot_layers(records: List[dict], spans) -> Dict[str, float]:
    n = len(records)
    selfs = self_times(spans)
    span_self: Dict[str, float] = {}
    for span in spans:
        span_self[span.name] = span_self.get(span.name, 0.0) + selfs[span.sid]

    def total(name: str) -> float:
        return sum(r["stats"][name] for r in records)

    def phase(*paths: str) -> float:
        return sum(r["phases"].get(p, 0.0) for r in records for p in paths) / n

    learn_s = total("learn_time")
    engine_s = learn_s + total("solve_time")
    picks = total("heap_picks") + total("heap_stale_pops")
    return {
        "bmc.unroll_s": span_self.get("bmc.unroll", 0.0) / n,
        "bmc.unrolled_nodes": _mean(r["nodes"] for r in records),
        "constraints.compile_s": span_self.get("constraints.compile", 0.0) / n,
        "constraints.variables": _mean(r["variables"] for r in records),
        "constraints.propagators": _mean(r["propagators"] for r in records),
        "core.predlearn.learn_s": learn_s / n,
        "core.predlearn.relations": total("learned_relations") / n,
        "core.predlearn.relations_per_s": _ratio(total("learned_relations"), learn_s),
        "core.search.search_s": (total("solve_time") - total("fme_time")) / n,
        "core.search.decisions": total("decisions") / n,
        "core.search.conflicts": total("conflicts") / n,
        "core.search.j_conflicts": total("j_conflicts") / n,
        "core.search.structural_decisions": total("structural_decisions") / n,
        "core.search.restarts": total("restarts") / n,
        "core.search.heap_stale_ratio": _ratio(total("heap_stale_pops"), picks),
        "core.search.literals_minimized": total("literals_minimized") / n,
        "core.search.decide_s": phase("search/decide"),
        "core.search.propagate_s": phase("search/propagate"),
        "core.search.conflict_s": phase("search/conflict"),
        "constraints.bcp_s": phase("learn/bcp", "search/propagate/bcp"),
        "constraints.icp_s": phase("learn/icp", "search/propagate/icp"),
        "constraints.propagations": total("propagations") / n,
        "constraints.narrowings": total("narrowings") / n,
        "constraints.props_per_s": _ratio(total("propagations"), engine_s),
        "constraints.wakeups": total("propagator_wakeups") / n,
        "constraints.clause_visits": total("clause_visits") / n,
        "constraints.watch_moves": total("watch_moves") / n,
        "constraints.clauses_evicted": total("clauses_evicted") / n,
        "constraints.learned_lbd_mean": total("learned_lbd_mean") / n,
        "intervals.cache_hit_rate": total("interval_cache_hit_rate") / n,
        "fme.leaf_s": total("fme_time") / n,
        "fme.checks": total("fme_checks") / n,
        "fme.refuted_ratio": _ratio(total("fme_conflicts"), total("fme_checks")),
    }


def _serve_layers(records: List[dict]) -> Dict[str, float]:
    queue = [r["queue_s"] for r in records]
    builds = [
        max(0.0, r["wall_s"] - r["queue_s"] - r["solve_s"])
        for r in records
        if r["cache"] == "miss"
    ]
    hits = sum(1 for r in records if r["cache"] == "hit")
    return {
        "serve.queue_p50_s": percentile(queue, 50.0),
        "serve.queue_p90_s": percentile(queue, 90.0),
        "serve.build_p50_s": percentile(builds, 50.0),
        "serve.build_sum_s": sum(builds),
        "serve.solve_s": _mean(r["solve_s"] for r in records),
        "serve.transport_ms": 1000.0 * percentile(
            [(r["done"] - r["sent"]) - r["wall_s"] for r in records], 50.0
        ),
        "serve.cache_hit_ratio": _ratio(hits, len(records)),
        "loadgen.lag_p99_ms": 1000.0 * percentile(
            [r["sent"] - r["due"] for r in records], 99.0
        ),
    }


def _cubes_layers(pipe: List[dict], socket: List[dict]) -> Dict[str, float]:
    def mean(records, name):
        return _mean(r["stats"][name] for r in records)

    return {
        "portfolio.query_s": percentile([r["latency_s"] for r in pipe], 50.0),
        "dist.query_s": percentile([r["latency_s"] for r in socket], 50.0),
        "portfolio.cubes_generated": mean(pipe, "cubes_generated"),
        "portfolio.cubes_solved": mean(pipe, "cubes_solved"),
        "portfolio.cubes_refuted": mean(pipe, "cubes_refuted"),
        "portfolio.clauses_exported": mean(pipe, "clauses_exported"),
        "portfolio.clauses_imported": mean(pipe, "clauses_imported"),
        "portfolio.share_import_hit_rate": mean(pipe, "share_import_hit_rate"),
        "dist.requeues": mean(socket, "dist_requeues"),
        "dist.clauses_relayed": mean(socket, "dist_clauses_relayed"),
    }


def query_self_time_drift(spans) -> float:
    """Largest |sum of self times - query wall| / query wall over the
    traced queries (0 when self-time arithmetic is exact)."""
    selfs = self_times(spans)
    by_query: Dict[str, List] = {}
    for span in spans:
        by_query.setdefault(span.qid, []).append(span)
    worst = 0.0
    for members in by_query.values():
        roots = [s for s in members if s.parent is None]
        wall = sum(s.end - s.start for s in roots)
        if wall > 0:
            total = sum(selfs[s.sid] for s in members)
            worst = max(worst, abs(total - wall) / wall)
    return worst
