"""Command line: ``run``, ``compare`` and the per-workload ``child``.

``run`` starts every workload in a fresh interpreter (the ``child``
subcommand), times it from spawn to its ``ready`` line as ``setup_s``,
and prints the metrics it reports.  With tracing off it spawns
:data:`SETUP_REPEATS` interpreters per workload, one of which runs the
workload, and reports the median set-up time.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from benchmarks.e2e import metrics as m
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Interpreters spawned per untraced workload run; their median
#: spawn-to-ready time is ``setup_s``.
SETUP_REPEATS = 5

#: Child deadlines (seconds): set-up, and what a run may take beyond
#: :meth:`Workload.worst_case_s` (checking verdicts, shutting down).
SETUP_TIMEOUT_S = 60.0
RUN_SLACK_S = 100.0

#: Longest temporary directory that leaves room for the sockets made
#: under it (``<dir>/repro-dist-XXXXXXXX/hub.sock``) in a UNIX socket
#: path.
MAX_TMP_PATH = 70

DEFAULT_SECONDS = 20.0

READY = "E2E-READY"
RESULT = "E2E-RESULT "


# ----------------------------------------------------------------------
# Child: one workload in this interpreter
# ----------------------------------------------------------------------
def child(args) -> int:
    from benchmarks.e2e import oracle
    from benchmarks.e2e.surfaces import SURFACES
    from benchmarks.e2e.spans import NullTracer, Tracer

    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer()
    surface = SURFACES[workload.surface](workload, args.seed, tracer)
    tmp = _checkout_tmp()
    try:
        surface.setup()
        print(READY, flush=True)
        if args.setup_only:
            return 0
        records = surface.run(args.seconds)
    finally:
        surface.close()
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    result = summarize(surface, records, oracle.load_expected())
    result.update(
        seed=args.seed, seconds=args.seconds, slowdown=surface.probe.slowdown()
    )
    if args.trace and args.spans:
        Path(args.spans).mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(Path(args.spans) / f"spans-{workload.name}.jsonl")
    print(RESULT + json.dumps(result), flush=True)
    return 0


def summarize(surface, records: List[dict], expected) -> dict:
    """Check ``records`` against the oracle and compute the run's
    metrics: end-to-end ones untraced, per-layer ones traced."""
    from benchmarks.e2e import oracle
    from benchmarks.e2e.spans import layer_table

    workload = surface.workload
    oracle.check(records, expected)
    failures = [r for r in records if r["verdict"] in oracle.FAILED_VERDICTS]
    result = {
        "workload": workload.name,
        "trace": surface.tracer.enabled,
        "attempted": len(records),
        "failed": len(failures),
        "failures": [
            f"{r['qid']} {r['case']}({r['bound']}) {r['engine']}: "
            f"{r['verdict']} {r.get('error') or r.get('status')}"
            for r in failures[:20]
        ],
        "tail_percentile": workload.tail_percentile,
        "tail_samples": m.tail_samples(records, workload.tail_percentile),
    }
    if surface.tracer.enabled:
        spans = surface.tracer.spans
        result["layers"] = m.per_layer(
            records, spans, surface.trace_overhead, getattr(surface, "layers", None)
        )
        result["amdahl"] = layer_table(spans)
        result["self_time_drift"] = m.query_self_time_drift(spans)
    else:
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        result["metrics"] = m.end_to_end(
            records,
            workload.tail_percentile,
            getattr(surface, "capacity_qps", None),
            usage / 1024.0,
        )
    return result


def _checkout_tmp() -> Optional[str]:
    """Make a new directory in the working directory (the checkout) the
    default for ``tempfile``, in this process and its children, and
    return it; the caller removes it.

    The benchmark writes only inside its checkout, but its daemon socket
    and ``solve_dist``'s hub socket go under ``tempfile.mkdtemp()``.  A
    checkout too deep to leave room for a UNIX socket path (107 bytes)
    keeps the system default and gets None.
    """
    path = tempfile.mkdtemp(prefix=".e2e-tmp-", dir=os.getcwd())
    if len(path) > MAX_TMP_PATH:
        os.rmdir(path)
        return None
    os.environ["TMPDIR"] = path
    tempfile.tempdir = path
    return path


# ----------------------------------------------------------------------
# Parent: spawn, time set-up, collect
# ----------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: bool,
           spans: Optional[str], setup_only: bool):
    """One child interpreter; returns (setup seconds, result or None)."""
    command = [
        sys.executable, "-m", "benchmarks.e2e", "child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(trace)),
    ]
    if spans:
        command += ["--spans", spans]
    if setup_only:
        command.append("--setup-only")
    lines: "queue.Queue" = queue.Queue()
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=os.getcwd(), text=True)

    def pump() -> None:
        for line in process.stdout:
            lines.put((time.perf_counter(), line.rstrip("\n")))
        lines.put((time.perf_counter(), None))

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    setup_s = None
    result = None
    finished = False
    deadline = started + SETUP_TIMEOUT_S
    try:
        while not finished:
            try:
                stamp, line = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
            except queue.Empty:
                raise RuntimeError(f"{workload}: child timed out") from None
            if line is None:
                finished = True
            elif line == READY:
                setup_s = stamp - started
                worst = WORKLOADS[workload].worst_case_s(seconds)
                deadline = stamp + worst + RUN_SLACK_S
            elif line.startswith(RESULT):
                result = json.loads(line[len(RESULT):])
            else:
                print(line, file=sys.stderr)
    finally:
        if not finished:
            process.kill()
        process.wait()
        reader.join(timeout=5)
    if process.returncode != 0 or setup_s is None or (result is None and not setup_only):
        raise RuntimeError(f"{workload}: child exited with {process.returncode}")
    return setup_s, result


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spans: Optional[str] = None) -> dict:
    """One workload run; untraced, its end-to-end metrics are reported
    at reference machine speed (see :func:`metrics.at_reference_speed`),
    the measured values kept under ``raw_metrics``.  Each set-up is
    scaled by the reference work timed just before it, since set-ups run
    before and after the run, when the machine's speed may differ."""
    references = [] if trace else [m.reference_now()]
    setup_s, result = _spawn(workload, seed, seconds, trace, spans, False)
    if not trace:
        setups = [setup_s]
        for _ in range(SETUP_REPEATS - 1):
            references.append(m.reference_now())
            setups.append(_spawn(workload, seed, seconds, False, None, True)[0])
        result["setup_samples"] = setups
        result["setup_references"] = references
        result["raw_metrics"] = dict(result["metrics"], setup_s=statistics.median(setups))
        result["metrics"] = m.at_reference_speed(result["raw_metrics"], result["slowdown"])
        result["metrics"]["setup_s"] = statistics.median(
            s * m.REFERENCE_S / r for s, r in zip(setups, references)
        )
    return result


def _contract_line(results: List[dict]) -> dict:
    """The final stdout line: one run verbatim, several as medians keyed
    ``<workload>.<metric>``."""
    key = "layers" if results[0]["trace"] else "metrics"
    units = {n: u for n, (u, _) in m.PER_LAYER.items()} if key == "layers" else m.END_TO_END
    if len(results) == 1:
        values = results[0][key]
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    else:
        metrics = {}
        for workload in dict.fromkeys(r["workload"] for r in results):
            runs = [r[key] for r in results if r["workload"] == workload]
            for name, unit in units.items():
                metrics[f"{workload}.{name}"] = {
                    "value": statistics.median(run[name] for run in runs),
                    "unit": unit,
                }
    failed = sum(r["failed"] for r in results)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def _print_result(result: dict) -> None:
    head = (
        f"== {result['workload']} seed={result['seed']} "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    print(head + f" slowdown={result['slowdown']:.3f}")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")
    if result["trace"]:
        from benchmarks.e2e.spans import format_table

        print(format_table(result["amdahl"]))
        print(f"   self-time sums within {100 * result['self_time_drift']:.2f}% "
              "of each query's wall")
        for name, (unit, _) in m.PER_LAYER.items():
            print(f"   {name:<34} {result['layers'][name]:>12.6g} {unit}")
    else:
        for name, unit in m.END_TO_END.items():
            extra = ""
            if name == "verdict_tail_s":
                extra = (f"  (p{result['tail_percentile']:g}, "
                         f"{result['tail_samples']} samples beyond)")
            print(f"   {name:<16} {result['metrics'][name]:>12.6g} {unit}{extra}")


def environment() -> Dict[str, object]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run(args) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    spans = args.spans if args.trace else None
    results = []
    for _ in range(args.runs):
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), spans)
            _print_result(result)
            results.append(result)
    if spans:
        _merge_spans(Path(spans), names)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"environment": environment(), "runs": results}, handle, indent=1)
    line = _contract_line(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _merge_spans(directory: Path, names: List[str]) -> None:
    """One ``spans.jsonl`` with a ``workload`` field on every span."""
    with open(directory / "spans.jsonl", "w", encoding="utf-8") as out:
        for name in names:
            part = directory / f"spans-{name}.jsonl"
            with open(part, encoding="utf-8") as handle:
                for line in handle:
                    span = json.loads(line)
                    span["workload"] = name
                    out.write(json.dumps(span) + "\n")
            part.unlink()


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def load_bounds(path: Path = BENCHMARK_JSON) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return {row["name"]: row for row in json.load(handle)["end_to_end"]}


def compare_runs(a_runs: List[dict], b_runs: List[dict],
                 bounds: Dict[str, dict]) -> List[dict]:
    """One row per (workload, metric) present on both sides.

    ``status`` is ``regressed`` when B's median is worse than A's by more
    than the bound, ``unresolved`` when either side's spread (IQR over
    median) exceeds the bound, ``improved`` under the pair rule (B wins
    at least 9 of 10 run pairs and the medians differ by more than A's
    IQR), ``same`` otherwise.
    """
    rows = []
    workloads = dict.fromkeys(r["workload"] for r in a_runs if "metrics" in r)
    for workload in workloads:
        a_side = [r["metrics"] for r in a_runs if r["workload"] == workload and "metrics" in r]
        b_side = [r["metrics"] for r in b_runs if r["workload"] == workload and "metrics" in r]
        if not b_side:
            continue
        for name, spec in bounds.items():
            a_vals = [run[name] for run in a_side]
            b_vals = [run[name] for run in b_side]
            qa, qb = m.quartiles(a_vals), m.quartiles(b_vals)
            lower = spec["better"] == "lower"
            sign = 1.0 if lower else -1.0
            worse = sign * (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            pairs = list(zip(a_vals, b_vals))
            wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
            if worse > spec["bound"]:
                status = "regressed"
            elif max(spread_a, spread_b) > spec["bound"]:
                status = "unresolved"
            elif (
                pairs
                and wins >= 0.9 * len(pairs)
                and abs(qb[1] - qa[1]) > qa[2] - qa[0]
            ):
                status = "improved"
            else:
                status = "same"
            rows.append({
                "workload": workload, "metric": name, "a": qa, "b": qb,
                "change": -worse, "spread_a": spread_a, "spread_b": spread_b,
                "wins": wins, "pairs": len(pairs), "bound": spec["bound"],
                "status": status,
            })
    return rows


def compare(args) -> int:
    def load(path):
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)["runs"]

    rows = compare_runs(load(args.a), load(args.b), load_bounds())
    print(f"{'workload':<12} {'metric':<16} {'A median [q1,q3]':<30} "
          f"{'B median [q1,q3]':<30} {'gain':>8} {'bound':>6} {'wins':>6}  status")
    for row in rows:
        a, b = row["a"], row["b"]
        print(
            f"{row['workload']:<12} {row['metric']:<16} "
            f"{a[1]:<10.4g} [{a[0]:.4g}, {a[2]:.4g}]".ljust(60)
            + f"{b[1]:<10.4g} [{b[0]:.4g}, {b[2]:.4g}]".ljust(31)
            + f"{100 * row['change']:>+7.1f}% {100 * row['bound']:>5.1f}% "
            f"{row['wins']:>2}/{row['pairs']:<3}  {row['status']}"
        )
    return 1 if any(row["status"] == "regressed" for row in rows) else 0


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_args(p, required):
        p.add_argument("--workload", choices=list(WORKLOADS), required=required,
                       help="one workload (default: all, for run)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--spans", default=None,
                       help="traced runs: write DIR/spans.jsonl")

    run_parser = sub.add_parser("run", help="run workloads and print metrics")
    add_workload_args(run_parser, False)
    run_parser.add_argument("--runs", type=int, default=1)
    run_parser.add_argument("--out", default=None, help="write every run here")

    compare_parser = sub.add_parser("compare", help="compare two run files")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")

    child_parser = sub.add_parser("child", help=argparse.SUPPRESS)
    add_workload_args(child_parser, True)
    child_parser.add_argument("--setup-only", action="store_true")

    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    if args.command == "compare":
        return compare(args)
    return child(args)
