"""Command-line interface: ``repro-hdpll`` / ``python -m repro.harness``.

Subcommands::

    repro-hdpll solve b13_5 50 --engine hdpll+sp
    repro-hdpll trace b01_1 20 --output trace.jsonl --narrate
    repro-hdpll trace --replay trace.jsonl
    repro-hdpll profile b13_5 20
    repro-hdpll table1 --max-bound 30 --timeout 60
    repro-hdpll table2 --max-bound 30 --timeout 60
    repro-hdpll ablation
    repro-hdpll report telemetry-dir/
    repro-hdpll top telemetry-dir/ --once
    repro-hdpll serve --port 9123 --telemetry-dir serve-tel/
    repro-hdpll serve-load --cases b01_1:15,b13_1:10 --requests 16
    repro-hdpll dist-serve b13_5 150 --port 9124 --workers 4
    repro-hdpll -j 2 dist-work --host hubhost --port 9124
    repro-hdpll list

Global options: ``--log-level debug`` (or ``REPRO_LOG=debug``) wires the
library's ``repro`` logger to stderr (and is inherited by worker
processes); ``--telemetry-dir DIR`` gives multi-process commands
(``table1``/``table2``/``scaling``, ``solve --portfolio``) per-worker
trace/metrics shards, and every pool task a log file, that are merged
into one clock-aligned timeline — inspect it afterwards with ``report``
(post-mortem) or ``top`` (live tail).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness.experiments import run_ablation, run_table1, run_table2
from repro.harness.runner import ENGINE_NAMES, REFERENCE_SUFFIX, run_engine
from repro.harness.tables import format_records, format_table1, format_table2
from repro.itc99 import available_cases, instance
from repro.obs import (
    PROFILE_DRIFT_TOLERANCE,
    configure_logging,
    profile_drift,
)

#: Engines that accept an Observation (tracing / profiling).
TRACEABLE_ENGINES = tuple(
    name for name in ENGINE_NAMES if name.startswith("hdpll")
)

#: Engines the ``profile`` command accepts: the traceable solvers plus
#: the incremental session sweep (phase profile + session counters; its
#: trace interleaves several solves, so it stays out of ``trace``).
PROFILED_ENGINES = TRACEABLE_ENGINES + ("bmc-session",)

#: ``--engine-impl`` value -> engine-name suffix (the library default
#: is unsuffixed; see ``runner.split_engine_impl``).
_IMPL_SUFFIXES = {"specialized": "", "reference": REFERENCE_SUFFIX}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="per-run timeout (s)"
    )


def _add_engine_impl(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine-impl",
        choices=tuple(_IMPL_SUFFIXES),
        default="specialized",
        help="propagation core: generated per-propagator kernels (the "
        "default) or the reference engine they are tested against",
    )


def _with_impl(engine: str, impl: str) -> str:
    """``("hdpll+sp", "reference")`` -> ``"hdpll+sp-ref"``."""
    return engine + _IMPL_SUFFIXES[impl]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hdpll",
        description=(
            "Structural search for RTL with predicate learning "
            "(DAC 2005 reproduction)"
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="logging level for the repro logger (name or number; "
        "defaults to $REPRO_LOG, silent when neither is set)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes: the task pool of table1/table2/scaling/"
        "ablation, the portfolio width of solve --portfolio "
        "(and of the portfolio/dist-* engines) and prove --portfolio, "
        "the workers of a dist-work host; 1 = run in-process (the "
        "historical sequential path)",
    )
    parser.add_argument(
        "--telemetry-dir",
        default=None,
        help="cross-process telemetry directory: every worker writes a "
        "clock-aligned trace/metrics shard (and a pool task its log) "
        "there and the run merges them into timeline.jsonl + "
        "metrics.json/.prom (table1/table2/scaling and solve "
        "--portfolio; inspect with the report/top commands)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one BMC instance")
    solve.add_argument("case", help="e.g. b13_5")
    solve.add_argument("bound", type=int, help="time frames")
    solve.add_argument(
        "--engine", choices=ENGINE_NAMES, default="hdpll+sp"
    )
    solve.add_argument(
        "--portfolio",
        action="store_true",
        help="cube-and-conquer portfolio solve (-j sets the width; "
        "overrides --engine)",
    )
    solve.add_argument(
        "--optimize",
        action="store_true",
        help="run the rtl.optimize pre-pass before compiling "
        "(default off)",
    )
    _add_engine_impl(solve)
    _add_common(solve)

    trace = sub.add_parser(
        "trace",
        help="solve one instance with structured JSONL tracing + "
        "phase profiling, or replay an existing trace",
    )
    trace.add_argument("case", nargs="?", help="e.g. b01_1")
    trace.add_argument("bound", nargs="?", type=int, help="time frames")
    trace.add_argument(
        "--engine", choices=TRACEABLE_ENGINES, default="hdpll+sp"
    )
    trace.add_argument(
        "--output", default="trace.jsonl", help="trace file path"
    )
    trace.add_argument(
        "--narrate",
        action="store_true",
        help="also print the human-readable search narrative",
    )
    trace.add_argument(
        "--replay",
        metavar="PATH",
        help="narrate an existing trace file instead of solving",
    )
    _add_engine_impl(trace)
    _add_common(trace)

    profile = sub.add_parser(
        "profile", help="per-phase wall-time breakdown of one solve"
    )
    profile.add_argument("case", help="e.g. b13_5")
    profile.add_argument("bound", type=int, help="time frames")
    profile.add_argument(
        "--engine", choices=PROFILED_ENGINES, default="hdpll+sp"
    )
    _add_engine_impl(profile)
    _add_common(profile)

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument(
        "--max-bound",
        type=int,
        default=50,
        help="cap unrolling depth (0 = paper's full bounds)",
    )
    _add_common(table1)

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--max-bound", type=int, default=50)
    table2.add_argument(
        "--engines",
        default="hdpll,hdpll+s,hdpll+sp,uclid,ics",
        help="comma-separated engine list",
    )
    _add_common(table2)

    ablation = sub.add_parser("ablation", help="run the ablation study")
    _add_common(ablation)

    scaling = sub.add_parser(
        "scaling", help="run-time vs unrolling depth for one family"
    )
    scaling.add_argument("case", nargs="?", default="b13_1")
    scaling.add_argument(
        "--bounds", default="10,20,30,40,50", help="comma-separated depths"
    )
    scaling.add_argument(
        "--engines", default="hdpll,hdpll+s,hdpll+sp"
    )
    _add_common(scaling)

    prove = sub.add_parser(
        "prove",
        help="unbounded proof of a benchmark property "
        "(k-induction or predicate abstraction)",
    )
    prove.add_argument("case", help="e.g. b13_1")
    prove.add_argument(
        "--method",
        choices=("induction", "abstraction"),
        default="induction",
    )
    prove.add_argument("--max-k", type=int, default=8)
    prove.add_argument(
        "--portfolio",
        action="store_true",
        help="answer every base/step query with the cube-and-conquer "
        "portfolio (-j sets the width; induction method only)",
    )
    _add_common(prove)

    serve = sub.add_parser(
        "serve",
        help="run the solver daemon (NDJSON solve requests over "
        "TCP/UNIX sockets, warm session reuse; see docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=9123,
        help="TCP port (0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--unix-socket",
        default=None,
        help="also serve on this UNIX socket path",
    )
    serve.add_argument(
        "--no-tcp",
        action="store_true",
        help="disable the TCP endpoint (UNIX socket only)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4,
        help="concurrently solving requests; arrivals beyond this queue",
    )
    serve.add_argument(
        "--cache-entries",
        type=int,
        default=8,
        help="warm sessions kept (LRU)",
    )
    serve.add_argument(
        "--cache-mb",
        type=int,
        default=512,
        help="approximate session-cache byte budget (MiB)",
    )
    serve.add_argument(
        "--default-timeout",
        type=float,
        default=120.0,
        help="deadline for requests that carry no timeout_s (s)",
    )
    serve.add_argument(
        "--max-jobs",
        type=int,
        default=8,
        help="cap on the per-request portfolio escalation width",
    )

    serve_load = sub.add_parser(
        "serve-load",
        help="drive a burst of solve requests at a running daemon and "
        "print the latency/status summary",
    )
    serve_load.add_argument("--host", default="127.0.0.1")
    serve_load.add_argument("--port", type=int, default=9123)
    serve_load.add_argument(
        "--unix-socket",
        default=None,
        help="connect over this UNIX socket instead of TCP",
    )
    serve_load.add_argument(
        "--cases",
        default="b01_1:15,b13_1:10",
        help="comma-separated case:bound pairs to round-robin",
    )
    serve_load.add_argument(
        "--requests", type=int, default=16, help="total solve requests"
    )
    serve_load.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="client connections driving requests in parallel",
    )
    serve_load.add_argument(
        "--escalate-jobs",
        type=int,
        default=1,
        help="jobs field on every request (>1 exercises the portfolio)",
    )
    _add_common(serve_load)

    dist_serve = sub.add_parser(
        "dist-serve",
        help="run a cube hub for one BMC instance: splits the query "
        "into cubes and serves them to dist-work hosts over a "
        "TCP/UNIX socket (see docs/distributed.md)",
    )
    dist_serve.add_argument("case", help="e.g. b13_5")
    dist_serve.add_argument("bound", type=int, help="time frames")
    dist_serve.add_argument("--host", default="127.0.0.1")
    dist_serve.add_argument(
        "--port",
        type=int,
        default=9124,
        help="TCP port (0 = ephemeral, printed at startup)",
    )
    dist_serve.add_argument(
        "--unix-socket",
        default=None,
        help="serve on this UNIX socket path instead of TCP",
    )
    dist_serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="expected total worker count across hosts (sets the cube "
        "splitting depth; the hub accepts any number of hosts)",
    )
    dist_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="solve deadline in seconds (default: none)",
    )
    dist_serve.add_argument(
        "--lease",
        type=float,
        default=30.0,
        help="cube lease in seconds: a host silent this long loses its "
        "cubes back to the queue",
    )
    dist_serve.add_argument(
        "--relay-max-lbd",
        type=int,
        default=6,
        help="hub clause-relay admission: keep clauses with LBD <= "
        "this (binaries always pass)",
    )
    dist_serve.add_argument(
        "--cube-depth",
        type=int,
        default=None,
        help="override the lookahead splitting depth",
    )

    dist_work = sub.add_parser(
        "dist-work",
        help="run a worker host against a dist-serve hub: pulls cubes, "
        "solves them with -j local diversified workers, exchanges "
        "learned clauses through the hub",
    )
    dist_work.add_argument("--host", default="127.0.0.1")
    dist_work.add_argument("--port", type=int, default=9124)
    dist_work.add_argument(
        "--unix-socket",
        default=None,
        help="connect over this UNIX socket instead of TCP",
    )
    dist_work.add_argument(
        "--name",
        default=None,
        help="host label in hub logs (default: the hostname)",
    )
    dist_work.add_argument(
        "--crash-on-first-cube",
        action="store_true",
        help=argparse.SUPPRESS,  # test hook: die on the first assignment
    )

    report = sub.add_parser(
        "report",
        help="merge a telemetry directory and print the run report "
        "(worker lanes, cube lifecycle, clause flow, resource peaks)",
    )
    report.add_argument(
        "directory", help="telemetry directory from a previous run"
    )
    report.add_argument(
        "--narrate",
        action="store_true",
        help="also print the merged timeline narrative",
    )

    top = sub.add_parser(
        "top",
        help="live tail of a telemetry directory while a run is active",
    )
    top.add_argument("directory", help="telemetry directory of a live run")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds (default 1.0)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (for scripts and CI)",
    )

    sub.add_parser("list", help="list benchmark cases")
    return parser


def _trace_command(args) -> int:
    from repro.harness.tables import format_profile
    from repro.obs import (
        Observation,
        PhaseProfiler,
        TraceEmitter,
        narrate,
        read_trace,
        validate_trace,
    )

    if args.replay:
        try:
            events = read_trace(args.replay)
        except (OSError, ValueError) as error:
            print(f"trace: cannot replay {args.replay}: {error}",
                  file=sys.stderr)
            return 2
        errors = validate_trace(events, complete=False)
        print(narrate(events))
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        return 1 if errors else 0

    if args.case is None or args.bound is None:
        print(
            "trace: case and bound are required unless --replay is given",
            file=sys.stderr,
        )
        return 2
    inst = instance(args.case, args.bound)
    engine = _with_impl(args.engine, args.engine_impl)
    profiler = PhaseProfiler()
    with TraceEmitter.open(args.output) as tracer:
        observation = Observation(tracer=tracer, profiler=profiler)
        record = run_engine(
            inst, engine, args.timeout, observation=observation
        )
    events = read_trace(args.output)
    errors = validate_trace(events, complete=record.status != "-A-")
    print(
        f"{inst.name} [{engine}]: {record.status} in "
        f"{record.seconds:.2f}s — {len(events)} trace events "
        f"written to {args.output}"
    )
    if record.note:
        print(f"note: {record.note}")
    if args.narrate:
        print()
        print(narrate(events))
    print()
    reported = record.solve_seconds + record.learn_seconds
    print(format_profile(profiler.report(), reference=reported))
    drift_error = _check_profile_drift(profiler.report(), reported)
    if drift_error:
        errors.append(drift_error)
    for error in errors:
        print(f"trace error: {error}", file=sys.stderr)
    return 1 if errors else 0


def _check_profile_drift(report, reported: float) -> Optional[str]:
    """Phase sum vs solver-reported wall time, beyond tolerance?

    Sub-millisecond solves are all fixed overhead; the accounting check
    only means something once the solve is long enough to measure.
    """
    phase_sum = report["top_level_total"]
    drift = profile_drift(phase_sum, reported)
    if drift is not None and drift > PROFILE_DRIFT_TOLERANCE:
        return (
            f"profiler phase sum {phase_sum:.4f}s deviates "
            f"{drift:.0%} from solver-reported {reported:.4f}s"
        )
    return None


def _profile_command(args) -> int:
    from repro.harness.tables import format_profile
    from repro.obs import Observation, PhaseProfiler

    inst = instance(args.case, args.bound)
    engine = _with_impl(args.engine, args.engine_impl)
    profiler = PhaseProfiler()
    record = run_engine(
        inst,
        engine,
        args.timeout,
        observation=Observation(profiler=profiler),
    )
    print(
        f"{inst.name} [{engine}]: {record.status} in "
        f"{record.seconds:.2f}s"
    )
    if record.note:
        print(f"note: {record.note}")
    print()
    reported = record.solve_seconds + record.learn_seconds
    print(format_profile(profiler.report(), reference=reported))
    if record.props_per_sec:
        print()
        print(
            f"propagation core [{args.engine_impl}]: "
            f"{record.propagations} propagations "
            f"({record.props_per_sec:,.0f}/s), "
            f"{record.narrowings} narrowings "
            f"({record.narrowings_per_sec:,.0f}/s)"
        )
    if record.session_solves:
        rate = record.probe_cache_hit_rate
        print()
        print(
            f"session: {record.session_solves} solves, "
            f"{record.clauses_shifted} clauses shifted, "
            f"probe cache {record.probe_cache_hits} hits / "
            f"{record.probe_cache_misses} misses ({rate:.0%}), "
            f"{record.clauses_evicted} clauses evicted"
        )
    db_total = (
        record.clause_db_core + record.clause_db_mid + record.clause_db_local
    )
    if db_total or record.literals_minimized:
        print()
        print(
            f"clause db: {record.clause_db_core} core / "
            f"{record.clause_db_mid} mid / "
            f"{record.clause_db_local} local "
            f"(mean LBD {record.learned_lbd_mean:.2f}); "
            f"{record.literals_minimized} literals minimized, "
            f"{record.clauses_demoted} demoted, "
            f"{record.clauses_evicted} evicted"
        )
    heap_total = record.heap_picks + record.heap_stale_pops
    if heap_total:
        stale = record.heap_stale_pops / heap_total
        print()
        print(
            f"decision heap: {record.heap_picks} picks, "
            f"{record.heap_stale_pops} stale pops ({stale:.0%} stale)"
        )
    if not args.engine.startswith("hdpll"):
        # The drift check compares one solve's phase sum to one solve's
        # reported time; a session sweep interleaves many solves with
        # session-level work, so the accounting identity does not apply.
        return 0
    drift_error = _check_profile_drift(profiler.report(), reported)
    if drift_error:
        print(f"profile error: {drift_error}", file=sys.stderr)
        return 1
    return 0


def _report_command(args) -> int:
    from pathlib import Path

    from repro.obs import narrate, read_trace, validate_trace
    from repro.obs.telemetry import format_report, merge_directory

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"report: no such directory: {directory}", file=sys.stderr)
        return 2
    # Re-merging is deterministic and tolerates shards added since the
    # run wrote its timeline (e.g. a post-crash flight dump).
    summary = merge_directory(directory)
    if not summary["workers"]:
        print(f"report: no telemetry shards in {directory}", file=sys.stderr)
        return 2
    print(format_report(summary))
    if args.narrate:
        timeline = summary.get("timeline")
        if timeline:
            print()
            print(narrate(read_trace(timeline)))
    errors = validate_trace(read_trace(summary["timeline"]), complete=False)
    for error in errors:
        print(f"timeline error: {error}", file=sys.stderr)
    return 1 if errors else 0


def _top_command(args) -> int:
    import time as time_module
    from pathlib import Path

    from repro.obs.telemetry import format_top, snapshot_status

    directory = Path(args.directory)
    if not directory.is_dir():
        print(f"top: no such directory: {directory}", file=sys.stderr)
        return 2
    try:
        while True:
            rows = snapshot_status(directory)
            print(format_top(rows))
            if args.once:
                return 0
            time_module.sleep(max(0.1, args.interval))
            print()
    except KeyboardInterrupt:
        return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        configure_logging(args.log_level)
    except ValueError as error:
        print(f"repro-hdpll: {error}", file=sys.stderr)
        return 2
    if args.command == "list":
        for case in available_cases():
            print(case)
        return 0
    if args.command == "solve":
        inst = instance(args.case, args.bound)
        engine = (
            "portfolio"
            if args.portfolio
            else _with_impl(args.engine, args.engine_impl)
        )
        record = run_engine(
            inst,
            engine,
            args.timeout,
            jobs=args.jobs,
            optimize=args.optimize,
            telemetry_dir=args.telemetry_dir,
        )
        print(
            f"{inst.name} [{engine}]: {record.status} in "
            f"{record.seconds:.2f}s (decisions={record.decisions}, "
            f"conflicts={record.conflicts})"
        )
        if engine == "portfolio":
            print(
                f"cubes: {record.cubes_generated} generated, "
                f"{record.cubes_solved} solved, "
                f"{record.cubes_refuted} refuted; clauses shared: "
                f"{record.clauses_exported} exported, "
                f"{record.clauses_imported} imported "
                f"(hit rate {record.share_import_hit_rate:.0%})"
            )
        if args.optimize:
            print(
                f"optimize: {record.optimize_nodes_before} -> "
                f"{record.optimize_nodes_after} nodes"
            )
        if record.note:
            print(f"note: {record.note}")
        return 0
    if args.command == "trace":
        return _trace_command(args)
    if args.command == "profile":
        return _profile_command(args)
    if args.command == "report":
        return _report_command(args)
    if args.command == "top":
        return _top_command(args)
    if args.command == "table1":
        max_bound = args.max_bound or None
        rows = run_table1(
            timeout=args.timeout,
            max_bound=max_bound,
            jobs=args.jobs,
            telemetry_dir=args.telemetry_dir,
        )
        print(format_table1(rows))
        return 0
    if args.command == "table2":
        max_bound = args.max_bound or None
        engines = tuple(args.engines.split(","))
        rows = run_table2(
            timeout=args.timeout,
            max_bound=max_bound,
            engines=engines,
            jobs=args.jobs,
            telemetry_dir=args.telemetry_dir,
        )
        print(format_table2(rows, engines))
        return 0
    if args.command == "prove":
        from repro.core import HDPLL_SP
        from repro.itc99 import CIRCUITS, circuit as get_circuit

        circuit_name, _, property_name = args.case.partition("_")
        _, properties = CIRCUITS[circuit_name]
        prop = properties[property_name]
        sequential = get_circuit(circuit_name)
        if args.method == "induction":
            if args.portfolio:
                from repro.portfolio import prove_by_induction_portfolio

                outcome = prove_by_induction_portfolio(
                    args.case,
                    max_k=args.max_k,
                    jobs=max(1, args.jobs),
                    timeout=args.timeout,
                    base_config=HDPLL_SP,
                )
            else:
                from repro.bmc import prove_by_induction

                outcome = prove_by_induction(
                    sequential,
                    prop,
                    max_k=args.max_k,
                    config=HDPLL_SP,
                    timeout=args.timeout,
                )
            print(f"{args.case}: {outcome.status.value} (k = {outcome.k})")
            if outcome.note:
                print(f"note: {outcome.note}")
            for depth in outcome.depth_stats:
                k = depth["k"]
                index = int(k) - 1  # type: ignore[call-overload]
                base_s = (
                    f"{outcome.base_seconds[index]:.2f}s"
                    if index < len(outcome.base_seconds)
                    else "-"
                )
                step_s = (
                    f"{outcome.step_seconds[index]:.2f}s"
                    if index < len(outcome.step_seconds)
                    else "-"
                )
                print(
                    f"  k={k}: base {depth['base_decisions']}d/"
                    f"{depth['base_conflicts']}c {base_s}, "
                    f"step {depth['step_decisions']}d/"
                    f"{depth['step_conflicts']}c {step_s}, "
                    f"probe-cache {depth['probe_cache_hit_rate']:.0%}"
                )
        else:
            from repro.core import predicate_abstraction_check

            outcome = predicate_abstraction_check(sequential, prop)
            verdict = "proved" if outcome.proved else "not proved"
            print(
                f"{args.case}: {verdict} "
                f"({len(outcome.reachable_states)} abstract states, "
                f"{outcome.solver_calls} solver calls, "
                f"{outcome.pruned_by_relations} pruned by relations)"
            )
            if outcome.note:
                print(f"note: {outcome.note}")
        return 0
    if args.command == "scaling":
        from repro.harness.experiments import run_scaling

        engines = tuple(args.engines.split(","))
        rows = run_scaling(
            case=args.case,
            bounds=[int(b) for b in args.bounds.split(",")],
            engines=engines,
            timeout=args.timeout,
            jobs=args.jobs,
            telemetry_dir=args.telemetry_dir,
        )
        print(format_table2(rows, engines))
        return 0
    if args.command == "serve":
        return _serve_command(args)
    if args.command == "serve-load":
        return _serve_load_command(args)
    if args.command == "dist-serve":
        return _dist_serve_command(args)
    if args.command == "dist-work":
        return _dist_work_command(args)
    if args.command == "ablation":
        results = run_ablation(timeout=args.timeout, jobs=args.jobs)
        for name, records in results.items():
            print(f"== {name} ==")
            print(format_records(records))
            print()
        return 0
    return 1  # pragma: no cover - unreachable


def _serve_command(args) -> int:
    import asyncio
    import json

    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=-1 if args.no_tcp else args.port,
        unix_path=args.unix_socket,
        max_inflight=args.max_inflight,
        cache_entries=args.cache_entries,
        cache_bytes=args.cache_mb * 1024 * 1024,
        default_timeout_s=args.default_timeout,
        max_jobs=args.max_jobs,
        telemetry_dir=args.telemetry_dir,
    )

    def announce(server) -> None:
        # One parseable line so wrappers (tests, CI) can discover the
        # ephemeral port / socket path.
        print(
            json.dumps(
                {
                    "event": "listening",
                    "endpoints": [
                        [kind, address]
                        for kind, address in server.endpoints()
                    ],
                }
            ),
            flush=True,
        )

    asyncio.run(run_server(config, announce=announce))
    return 0


def _dist_serve_command(args) -> int:
    import json

    from repro.core import SolverConfig, Status
    from repro.dist import CubeHub
    from repro.dist.run import solve_on_hub
    from repro.errors import SolverError
    from repro.portfolio.worker import ProblemSpec

    def drive(hub: CubeHub):
        try:
            if args.unix_socket:
                kind, target = hub.start(unix_path=args.unix_socket)
            else:
                kind, target = hub.start(host=args.host, port=args.port)
            # Same one-line discovery contract as the solve daemon.
            print(
                json.dumps(
                    {
                        "event": "listening",
                        "endpoints": [
                            [kind, target if kind == "unix" else list(target)]
                        ],
                        "cubes": len(hub.cubes),
                    }
                ),
                flush=True,
            )
            result = None
            while result is None:
                result = hub.wait(timeout=1.0)
        except KeyboardInterrupt:
            result = hub.abort("interrupted")
        finally:
            hub.close()
        return result

    try:
        solved, result = solve_on_hub(
            ProblemSpec("instance", args.case, args.bound),
            max(1, args.workers),
            args.cube_depth,
            drive,
            base_config=SolverConfig(),
            timeout=args.timeout,
            lease_s=args.lease,
            relay_max_lbd=args.relay_max_lbd,
        )
    except SolverError as error:  # cube lost twice, or a failed replay
        print(
            json.dumps(
                {"event": "result", "status": "unknown", "error": str(error)}
            ),
            flush=True,
        )
        return 1
    stats = solved.stats
    print(
        json.dumps(
            {
                "event": "result",
                "status": solved.status.value,
                "note": solved.note,
                "winning_cube": result.winning_cube if result else None,
                "hosts": stats.dist_hosts,
                "cubes_solved": stats.cubes_solved,
                "requeues": stats.dist_requeues,
                "clauses_relayed": stats.dist_clauses_relayed,
                **({"model_verified": True} if solved.is_sat else {}),
            }
        ),
        flush=True,
    )
    return 0 if solved.status in (Status.SAT, Status.UNSAT) else 1


def _dist_work_command(args) -> int:
    import json

    from repro.dist import DistError, run_worker_host

    address = (
        ("unix", args.unix_socket)
        if args.unix_socket
        else ("tcp", (args.host, args.port))
    )
    # The crash hook marks every cube of every worker, so the host dies
    # on whichever assignment it receives first.
    jobs = max(1, args.jobs)
    crash = (
        {local: tuple(range(4096)) for local in range(jobs)}
        if args.crash_on_first_cube
        else None
    )
    try:
        summary = run_worker_host(
            address, jobs, name=args.name, crash_cubes=crash
        )
    except DistError as error:
        print(f"repro-hdpll dist-work: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"event": "done", **summary}), flush=True)
    return 0


def _serve_load_command(args) -> int:
    import json

    from repro.serve import run_load_blocking

    cases = []
    for token in args.cases.split(","):
        name, _, bound = token.partition(":")
        if not bound:
            print(
                f"bad --cases entry {token!r} (want case:bound)",
                file=sys.stderr,
            )
            return 2
        cases.append((name.strip(), int(bound)))
    kwargs = (
        {"path": args.unix_socket}
        if args.unix_socket
        else {"host": args.host, "port": args.port}
    )
    summary = run_load_blocking(
        cases=cases,
        total=args.requests,
        concurrency=args.concurrency,
        timeout_s=args.timeout,
        jobs=args.escalate_jobs,
        **kwargs,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if summary["errors"] == 0 else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
