"""Tests of the end-to-end benchmark itself (``python -m pytest benchmarks/e2e``).

They check the parts a wrong benchmark would get silently wrong: seeded
inputs, the oracle's failure accounting, self-time arithmetic, the
metric catalogue against ``BENCHMARK.json``, and that each surface runs
a tiny input end to end on the real surfaces.
"""

import itertools
import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from benchmarks.e2e import cli, metrics, oracle  # noqa: E402
from benchmarks.e2e.surfaces import SURFACES, closed_loop  # noqa: E402
from benchmarks.e2e.spans import NullTracer, Span, Tracer, layer_table, self_times  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    SERVE_PROBLEMS,
    STRATA,
    WORKLOADS,
    _slice,
    paced_arrivals,
    pool_instances,
    query_rounds,
    serve_requests,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _rounds(name, seed, count=3):
    return list(itertools.islice(query_rounds(WORKLOADS[name], seed), count))


@pytest.mark.parametrize("name", ["bmc-learn", "bmc-search", "cubes"])
def test_seed_fixes_query_list(name):
    assert _rounds(name, 7) == _rounds(name, 7)
    assert _rounds(name, 7) != _rounds(name, 8)


def test_seed_fixes_serve_schedule():
    def schedule(seed):
        requests = serve_requests(seed)
        arrivals = paced_arrivals(seed, 10.0, 12.0)
        return arrivals, [next(requests) for _ in range(200)]

    assert schedule(3) == schedule(3)
    assert schedule(3)[0] != schedule(4)[0]
    assert schedule(3)[1] != schedule(4)[1]


def test_rounds_cover_every_bound_slice():
    family_bounds = {}
    for round_queries in _rounds("bmc-learn", 5, count=4):
        for query in round_queries:
            family_bounds.setdefault(query.case, []).append(query.bound)
    for family in WORKLOADS["bmc-learn"].families:
        slices = [_slice(family, index) for index in range(STRATA)]
        hit = sorted(
            index
            for bound in family_bounds[family.case]
            for index, (lo, hi) in enumerate(slices)
            if lo <= bound <= hi
        )
        assert hit == list(range(STRATA)), (family, family_bounds[family.case])


def test_oracle_covers_every_drawable_instance():
    expected = oracle.load_expected()
    assert set(pool_instances()) <= set(expected)
    assert set(SERVE_PROBLEMS) <= set(expected)


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        Span(0, "query", 0.0, 10.0, None, "q"),
        Span(1, "a", 1.0, 3.0, 0, "q"),
        Span(2, "b", 2.0, 5.0, 0, "q"),  # overlaps a: union is [1, 5]
        Span(3, "c", 9.0, 12.0, 0, "q"),  # clipped to [9, 10]
        Span(4, "d", 1.5, 2.5, 1, "q"),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    table = {row["layer"]: row for row in layer_table(spans)}
    assert sum(row["share"] for row in table.values()) == pytest.approx(1.0)
    assert table["query"]["self_s"] == pytest.approx(5.0)


def test_tracer_children_are_clipped_into_parent():
    tracer = Tracer()
    with tracer.span("query", "q") as root:
        pass
    outer = tracer.spans[root]
    child = tracer.child("late", "q", root, outer.end + 1.0, 5.0)
    assert tracer.spans[child].end - tracer.spans[child].start == 0.0
    assert metrics.query_self_time_drift(tracer.spans) == pytest.approx(0.0)


def test_benchmark_json_matches_emitted_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {row["name"]: row["unit"] for row in bench["end_to_end"]}
    layers = {row["name"]: row["unit"] for row in bench["per_layer"]}
    assert e2e == metrics.END_TO_END
    assert layers == {name: unit for name, (unit, _) in metrics.PER_LAYER.items()}
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    names = list(e2e) + list(layers) + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < row["bound"] <= 0.25 for row in bench["end_to_end"])


def _tiny_one_shot(name, tracer):
    surface = SURFACES["one-shot"](WORKLOADS[name], 1, tracer)
    surface.setup()
    two = next(query_rounds(surface.workload, 1))[:2]
    records = closed_loop([two], lambda q: surface.solve(q, tracer))
    surface.trace_overhead = 1.0
    return surface, records


def test_wrong_expected_verdict_fails_the_run():
    surface, records = _tiny_one_shot("bmc-learn", NullTracer())
    expected = oracle.load_expected()
    flipped = {(r["case"], r["bound"]): r["status"] for r in records}
    key = next(iter(flipped))
    expected[key] = "unsat" if flipped[key] == "sat" else "sat"
    result = cli.summarize(surface, records, expected)
    assert result["failed"] >= 1
    result["metrics"]["setup_s"] = 1.0  # measured by the parent in real runs
    line = cli._contract_line([result])
    assert line["correct"] is False and line["failed"] >= 1


@pytest.mark.parametrize("name", ["bmc-learn", "bmc-search"])
def test_one_shot_surface_traced(name):
    surface, records = _tiny_one_shot(name, Tracer())
    result = cli.summarize(surface, records, oracle.load_expected())
    assert result["failed"] == 0 and result["attempted"] == 2
    assert set(result["layers"]) == set(metrics.PER_LAYER)
    assert result["layers"]["bmc.unroll_s"] > 0
    assert result["self_time_drift"] < 0.10


def test_one_shot_surface_untraced_metrics():
    surface, records = _tiny_one_shot("bmc-search", NullTracer())
    result = cli.summarize(surface, records, oracle.load_expected())
    assert set(result["metrics"]) | {"setup_s"} == set(metrics.END_TO_END)
    assert all(value > 0 for value in result["metrics"].values())


def test_serve_surface_two_seconds():
    surface = SURFACES["serve"](WORKLOADS["serve-zipf"], 1, Tracer())
    try:
        surface.setup()
        records = surface.run(2.0)
    finally:
        surface.close()
    result = cli.summarize(surface, records, oracle.load_expected())
    assert result["failed"] == 0 and result["attempted"] > 0
    assert surface.capacity_qps > 0
    assert result["layers"]["serve.cache_hit_ratio"] > 0


def test_cubes_surface_one_query_both_transports():
    surface = SURFACES["cubes"](WORKLOADS["cubes"], 1, NullTracer())
    surface.setup()
    query = next(query_rounds(surface.workload, 1))[0]
    records = closed_loop([[query]], surface.solve)
    assert sorted(r["engine"] for r in records) == ["pipe", "socket"]
    result = cli.summarize(surface, records, oracle.load_expected())
    assert result["failed"] == 0 and result["attempted"] == 2
