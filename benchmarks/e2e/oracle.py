"""The verdict oracle: committed expected verdicts plus model replay.

``expected.json`` holds, for every (case, bound) any workload can draw,
the verdict of the bit-blasting baseline (CNF + CDCL), which shares no
search code with HDPLL; ``make_expected.py`` regenerates it.  SAT models
are additionally replayed through the concrete simulator.  The replay is
written here on top of ``repro.rtl.simulate`` rather than reusing the
solver packages' own replay helpers, so a bug there cannot hide itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Record ``verdict`` values; everything except ``ok`` and ``undecided``
#: counts as a failed operation.
FAILED_VERDICTS = ("wrong", "replay-failed", "error")


def load_expected(path: Path = EXPECTED_PATH) -> Dict[Tuple[str, int], str]:
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    return {
        (row["case"], int(row["bound"])): row["status"]
        for row in data["instances"]
    }


def replay(case: str, bound: int, model: Mapping[str, int]) -> bool:
    """Simulate the model's input values on a fresh unrolling and check
    that the property violation the query asked for really happens."""
    from repro.itc99 import instance
    from repro.rtl.simulate import simulate_combinational

    inst = instance(case, bound)
    try:
        values = simulate_combinational(
            inst.circuit,
            {net.name: int(model[net.name]) for net in inst.circuit.inputs},
        )
    except (KeyError, ValueError, TypeError):
        return False
    for name, wanted in inst.assumptions.items():
        lo, hi = (wanted, wanted) if isinstance(wanted, int) else (wanted.lo, wanted.hi)
        if not lo <= values[name] <= hi:
            return False
    return True


def check(records: Iterable[dict], expected: Mapping[Tuple[str, int], str]) -> None:
    """Set ``record["verdict"]`` on every record (after the timed region).

    ``ok``: the status matches the oracle (and a SAT model replays);
    ``undecided``: the surface answered ``unknown`` within its budget;
    ``wrong`` / ``replay-failed`` / ``error``: a failed operation.
    """
    for record in records:
        status = record.get("status")
        if record.get("error") or status not in ("sat", "unsat", "unknown"):
            record["verdict"] = "error"
        elif status == "unknown":
            record["verdict"] = "undecided"
        elif status != expected.get((record["case"], record["bound"])):
            record["verdict"] = "wrong"
        elif status == "sat" and not replay(
            record["case"], record["bound"], record.get("model") or {}
        ):
            record["verdict"] = "replay-failed"
        else:
            record["verdict"] = "ok"
        record.pop("model", None)
