"""Regenerate ``expected.json``: the oracle verdict of every instance.

Each (case, bound) any workload can draw is solved by the bit-blasting
baseline (CNF + CDCL), which shares no search code with HDPLL; SAT
answers are replayed through the simulator before they are written.
Run from the repository root::

    python3 -m benchmarks.e2e.make_expected [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Tuple

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from benchmarks.e2e.oracle import EXPECTED_PATH, replay  # noqa: E402
from benchmarks.e2e.workloads import pool_instances  # noqa: E402


def decide(pair: Tuple[str, int]) -> dict:
    from repro.baselines.bitblast import solve_by_bitblasting
    from repro.itc99 import instance

    case, bound = pair
    inst = instance(case, bound)
    start = time.perf_counter()
    satisfiable, model, _ = solve_by_bitblasting(inst.circuit, inst.assumptions)
    seconds = time.perf_counter() - start
    if satisfiable is None:
        raise RuntimeError(f"bitblast gave no verdict on {case}({bound})")
    if satisfiable and not replay(case, bound, model):
        raise RuntimeError(f"bitblast model of {case}({bound}) fails replay")
    return {
        "case": case,
        "bound": bound,
        "status": "sat" if satisfiable else "unsat",
        "oracle_s": round(seconds, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(EXPECTED_PATH))
    args = parser.parse_args(argv)
    pairs = pool_instances()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
        rows = list(pool.map(decide, pairs))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(
            {"oracle": "bitblast (CNF + CDCL), SAT models replayed", "instances": rows},
            handle,
            indent=1,
        )
        handle.write("\n")
    print(f"wrote {len(rows)} verdicts to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
