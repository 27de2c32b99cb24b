"""Per-query search counters of a seeded e2e query list (bit-identity check).

A refactor of the search loop that claims to be pure speed must leave
every decision, conflict and learned clause where it was.  This script
solves the queries one closed-loop e2e workload draws for a seed and
prints one JSON line per query with the counters that would move if the
search took a different path:

    PYTHONPATH=src python -m benchmarks.perf.search_identity \\
        --workload bmc-search --seed 1 --rounds 4 > new.jsonl

Run it in two checkouts and ``diff`` the outputs; no line may differ.
Timings are left out on purpose.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from benchmarks.e2e.workloads import QUERY_TIMEOUT_S, WORKLOADS, query_rounds

#: Counters compared between checkouts.
COUNTERS = (
    "decisions",
    "conflicts",
    "j_conflicts",
    "structural_decisions",
    "restarts",
    "propagations",
    "narrowings",
    "learned_clauses",
    "learned_relations",
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="bmc-search")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument(
        "--engine",
        action="append",
        help="only queries of this engine (repeatable), e.g. hdpll+s",
    )
    args = parser.parse_args(argv)

    from repro.core import HDPLL_BASE, HDPLL_S, HDPLL_SP, HdpllSolver
    from repro.intervals.interval import reset_interval_cache
    from repro.itc99 import instance

    configs = {"hdpll": HDPLL_BASE, "hdpll+s": HDPLL_S, "hdpll+sp": HDPLL_SP}
    workload = WORKLOADS[args.workload]
    if workload.surface != "one-shot":
        parser.error(f"{args.workload} is not a one-shot workload")
    rounds = itertools.islice(query_rounds(workload, args.seed), args.rounds)
    for query in itertools.chain.from_iterable(rounds):
        if args.engine and query.engine not in args.engine:
            continue
        reset_interval_cache()
        inst = instance(query.case, query.bound)
        config = configs[query.engine].with_overrides(timeout=QUERY_TIMEOUT_S)
        result = HdpllSolver(inst.circuit, config).solve(inst.assumptions)
        line = {
            "qid": query.qid,
            "case": query.case,
            "bound": query.bound,
            "engine": query.engine,
            "status": result.status.value,
        }
        line.update({name: getattr(result.stats, name) for name in COUNTERS})
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
