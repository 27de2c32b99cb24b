"""Workload definitions and the seeded input generators.

Everything a run hands the program is drawn here from the workload
seed: the bounds, the query order, the serve request sequence and its
arrival times.  The surfaces only execute what these functions return,
and none of these functions imports ``repro``, so the inputs of a run
can be inspected (and tested) without solving anything.

Closed-loop workloads run in *rounds*.  A round holds one query per
family, its bound drawn from one of :data:`STRATA` equal slices of the
family's bound range, in seeded order.  Each family walks its slices in
a seeded permutation, so any :data:`STRATA` consecutive rounds cover
every slice once.  Each family's range is chosen so that its queries
cost about the same (within roughly 1.5x at this commit): two seeds then
draw different bounds but the same mix of costs, and the percentiles
stay put.  Wide ranges made the median move 15% between seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

#: Bound slices per family; see the module docstring.
STRATA = 4

#: Per-query solver budget (seconds), for every surface.
QUERY_TIMEOUT_S = 60.0

#: One-shot queries timed both untraced and traced at the start of a
#: traced run, to measure what tracing costs.
OVERHEAD_PAIRS = 4


@dataclass(frozen=True)
class Family:
    """Property ``case`` of one ITC'99 circuit at bounds ``lo``..``hi``."""

    case: str
    lo: int
    hi: int
    #: Harness engine name: ``hdpll``, ``hdpll+s`` or ``hdpll+sp``
    #: (one-shot workloads; the cubes surface ignores it).
    engine: str = "hdpll+sp"


@dataclass(frozen=True)
class Query:
    qid: str
    case: str
    bound: int
    engine: str


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``one-shot``, ``serve`` or ``cubes``: which surface runs it.
    surface: str
    families: Tuple[Family, ...] = ()
    #: Percentile reported as ``verdict_tail_s``: the highest one that
    #: leaves at least ten samples beyond it at this commit's speed.
    tail_percentile: float = 90.0
    #: Seconds one round takes at reference machine speed at this commit;
    #: a closed-loop run of ``--seconds S`` solves ``S / round_s`` rounds.
    round_s: float = 1.0

    def rounds(self, seconds: float) -> int:
        """Rounds in a run: fixed work, so a slow machine or a slow
        commit takes longer instead of solving a different query mix."""
        return max(1, round(seconds / self.round_s))

    def worst_case_s(self, seconds: float) -> float:
        """How long a run of ``seconds`` takes at most when every call
        uses its whole :data:`QUERY_TIMEOUT_S` budget.  A parent that
        waits this long sees timeouts and slow commits as undecided
        records and long latencies, not as a hung child."""
        if self.surface == "serve":
            # The daemon answers every request within its budget of the
            # request's arrival, and the last one arrives by ``seconds``.
            return seconds + QUERY_TIMEOUT_S
        calls = self.rounds(seconds) * len(self.families)
        if self.surface == "cubes":
            calls *= 2  # each query goes through both transports
        else:
            calls += 2 * OVERHEAD_PAIRS  # a traced run's extra queries
        return calls * QUERY_TIMEOUT_S


#: Ranked serve working set: 22 (case, bound) problems, most popular
#: first.  The daemon keys warm sessions by netlist signature, so all
#: properties of one circuit at one bound share a session.  The eight
#: most popular problems live on four sessions, and their SAT queries
#: return models; the fourteen others each have a session of their own
#: and cost a cold build of 0.09-0.15 s, so with a cache of 8 nearly
#: every request to them misses and evicts.  The order puts the median
#: request inside the biggest cluster of hit latencies (the rank-1
#: problem's) rather than between two clusters.
SERVE_PROBLEMS: Tuple[Tuple[str, int], ...] = (
    ("b03_40", 20),
    ("b04_1", 30),
    ("b06_40", 20),
    ("b01_1", 10),
    ("b06_1", 20),
    ("b03_1", 20),
    ("b06_2", 20),
    ("b03_2", 20),
    ("b13_1", 8),
    ("b04_1", 15),
    ("b06_1", 14),
    ("b03_1", 15),
    ("b13_5", 9),
    ("b04_1", 17),
    ("b06_2", 16),
    ("b03_40", 13),
    ("b13_8", 7),
    ("b04_1", 19),
    ("b06_1", 18),
    ("b03_2", 17),
    ("b06_2", 12),
    ("b03_1", 11),
)

#: Problems primed during set-up: the most popular ones, as a daemon
#: that has been up for a while would hold them.
SERVE_PRIMED = 8

#: Open-loop arrival rate (requests/s); about a third of the daemon's
#: capacity at this commit.
SERVE_RATE = 6.0

#: Serve requests per popularity block (see :func:`serve_requests`):
#: one block per 20-second run.
SERVE_BLOCK = 120


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "bmc-learn",
            "one-shot",
            families=(
                Family("b13_1", 12, 15),
                Family("b13_2", 11, 14),
                Family("b13_3", 12, 15),
                Family("b13_5", 11, 14),
                Family("b13_8", 10, 13),
                Family("b03_1", 28, 35),
                Family("b03_2", 28, 35),
                Family("b06_1", 24, 29),
                Family("b06_2", 24, 29),
                Family("b04_1", 28, 33),
                Family("b03_40", 24, 31),
                Family("b06_40", 12, 15),
                Family("b13_40", 12, 15),
            ),
            tail_percentile=85.0,
            round_s=3.3,
        ),
        Workload(
            "bmc-search",
            "one-shot",
            families=(
                Family("b02_1", 16, 17, "hdpll"),
                Family("b06_2", 20, 22, "hdpll"),
                Family("b13_1", 29, 32, "hdpll"),
                Family("b13_3", 27, 30, "hdpll"),
                Family("b13_8", 26, 29, "hdpll"),
                Family("b13_40", 30, 33, "hdpll+s"),
                Family("b06_40", 12, 15, "hdpll+s"),
                Family("b04_1", 20, 50, "hdpll+s"),
                Family("b03_40", 15, 30, "hdpll+s"),
            ),
            tail_percentile=85.0,
            round_s=2.2,
        ),
        Workload("serve-zipf", "serve", tail_percentile=90.0),
        Workload(
            "cubes",
            "cubes",
            families=(
                Family("b06_40", 15, 25),
                Family("b13_8", 20, 28),
                Family("b13_3", 20, 26),
                Family("b03_40", 20, 30),
                Family("b13_1", 15, 25),
                Family("b13_40", 24, 28),
            ),
            tail_percentile=75.0,
            round_s=6.0,
        ),
    )
}


def _slice(family: Family, index: int) -> Tuple[int, int]:
    span = family.hi - family.lo + 1
    lo = family.lo + span * index // STRATA
    hi = family.lo + span * (index + 1) // STRATA - 1
    return lo, max(lo, hi)


def query_rounds(workload: Workload, seed: int) -> Iterator[List[Query]]:
    """Endless seeded rounds of a closed-loop workload (module doc)."""
    rng = random.Random(f"{workload.name}:{seed}")
    walks = [rng.sample(range(STRATA), STRATA) for _ in workload.families]
    serial = itertools.count()
    for round_index in itertools.count():
        drawn = []
        for family, walk in zip(workload.families, walks):
            lo, hi = _slice(family, walk[round_index % STRATA])
            drawn.append((family, rng.randint(lo, hi)))
        rng.shuffle(drawn)
        yield [
            Query(f"q{next(serial)}", family.case, bound, family.engine)
            for family, bound in drawn
        ]


def zipf_counts(block: int, ranks: int) -> List[int]:
    """Requests per rank in one block: Zipf(s=1) shares of ``block``,
    rounded by largest remainder so they sum to ``block`` exactly."""
    weights = [1.0 / (rank + 1) for rank in range(ranks)]
    total = sum(weights)
    exact = [block * w / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(ranks), key=lambda r: exact[r] - counts[r], reverse=True
    )
    for rank in by_remainder[: block - sum(counts)]:
        counts[rank] += 1
    return counts


def serve_requests(seed: int) -> Iterator[Tuple[str, int]]:
    """Endless seeded serve request sequence.

    Each block of :data:`SERVE_BLOCK` requests holds every problem its
    exact Zipf share (see :func:`zipf_counts`), and a problem's copies
    are spread evenly over the block from a seeded phase.  A uniform
    shuffle instead clustered repeats at random, and the cache miss
    count of a run moved twice as much between seeds.
    """
    rng = random.Random(f"serve-requests:{seed}")
    counts = zipf_counts(SERVE_BLOCK, len(SERVE_PROBLEMS))
    while True:
        slots = []
        for problem, count in zip(SERVE_PROBLEMS, counts):
            phase = rng.random()
            slots += [((copy + phase) / count, rng.random(), problem) for copy in range(count)]
        slots.sort()
        yield from (problem for _, _, problem in slots)


def paced_arrivals(seed: int, rate: float, seconds: float) -> List[float]:
    """Seeded arrival offsets (seconds from the start): one per
    ``1/rate`` slot, placed uniformly in the middle 80% of its slot.

    An open loop either way; Poisson arrivals made the tail depend on
    the burst pattern of the draw, which moved p90 threefold between
    seeds.
    """
    rng = random.Random(f"serve-arrivals:{seed}")
    gap = 1.0 / rate
    return [
        (slot + rng.uniform(0.1, 0.9)) * gap for slot in range(int(seconds * rate))
    ]


def pool_instances() -> List[Tuple[str, int]]:
    """Every (case, bound) any workload can draw, for the oracle."""
    pairs = set(SERVE_PROBLEMS)
    for workload in WORKLOADS.values():
        for family in workload.families:
            pairs.update(
                (family.case, bound)
                for bound in range(family.lo, family.hi + 1)
            )
    return sorted(pairs)
