"""Experiment drivers for the paper's tables.

Each driver regenerates one table: the same instance list as the paper,
the same columns, the same -to-/-A- markers.  Because this is a pure
Python reproduction of a C/C++ system, absolute run-times are not
comparable; a ``max_bound`` knob scales the deepest unrollings down so a
full table run finishes on a laptop, while ``max_bound=None`` reproduces
the paper's exact instance list.  EXPERIMENTS.md records a full
paper-vs-measured comparison.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.parallel import (
    EngineTask,
    Task,
    outcome_to_record,
    run_engine_tasks,
    run_tasks,
)
from repro.harness.runner import RunRecord, run_engine
from repro.itc99 import instance

#: Table 1 instance list (case, bound) — Section 3.1.
TABLE1_INSTANCES: Tuple[Tuple[str, int], ...] = (
    ("b01_1", 10),
    ("b01_1", 20),
    ("b02_1", 10),
    ("b02_1", 20),
    ("b04_1", 20),
    ("b13_5", 10),
    ("b13_1", 10),
    ("b13_5", 20),
    ("b13_1", 20),
    ("b13_5", 30),
    ("b13_1", 30),
    ("b13_5", 50),
    ("b13_1", 50),
    ("b13_5", 100),
    ("b13_1", 100),
    ("b13_5", 200),
    ("b13_1", 200),
    ("b13_1", 300),
)

#: Table 2 instance list (case, bound) — Section 5.
TABLE2_INSTANCES: Tuple[Tuple[str, int], ...] = (
    ("b01_1", 50),
    ("b01_1", 100),
    ("b02_1", 50),
    ("b02_1", 100),
    ("b04_1", 50),
    ("b04_1", 100),
    ("b13_40", 13),
    ("b13_1", 50),
    ("b13_2", 50),
    ("b13_3", 50),
    ("b13_5", 50),
    ("b13_8", 50),
    ("b13_1", 100),
    ("b13_2", 100),
    ("b13_3", 100),
    ("b13_5", 100),
    ("b13_8", 100),
    ("b13_1", 200),
    ("b13_2", 200),
    ("b13_3", 200),
    ("b13_5", 200),
    ("b13_8", 200),
    ("b13_1", 300),
    ("b13_2", 300),
    ("b13_3", 300),
    ("b13_5", 300),
    ("b13_8", 300),
    ("b13_1", 400),
    ("b13_2", 400),
    ("b13_3", 400),
    ("b13_5", 400),
    ("b13_8", 400),
)

#: Table 1's learning threshold (Section 3.1).
TABLE1_THRESHOLD = 2500


@dataclass
class TableRow:
    """One line of a regenerated table: per-engine records."""

    case: str
    bound: int
    records: Dict[str, RunRecord] = field(default_factory=dict)

    @property
    def result_letter(self) -> str:
        for record in self.records.values():
            if record.status in ("S", "U"):
                return record.status
        return "?"


def _scaled(
    instances: Sequence[Tuple[str, int]], max_bound: Optional[int]
) -> List[Tuple[str, int]]:
    """Cap bounds, dropping rows that collapse onto an existing one."""
    if max_bound is None:
        return list(instances)
    seen = set()
    scaled: List[Tuple[str, int]] = []
    for case, bound in instances:
        capped = min(bound, max_bound)
        if (case, capped) not in seen:
            seen.add((case, capped))
            scaled.append((case, capped))
    return scaled


def _run_matrix(
    pairs: Sequence[Tuple[str, int]],
    columns: Sequence[Tuple[str, Optional[int]]],
    timeout: float,
    jobs: int,
    telemetry_dir: Optional[str],
) -> List[TableRow]:
    """Run an (instance x engine) matrix into table rows.

    ``columns`` is ``(engine, learning_threshold)`` per table column.
    All cells go through the worker pool; ``jobs=1`` is the inline
    sequential path, so table output is identical either way, cell for
    cell, in deterministic row order.  ``telemetry_dir`` gives every
    cell a telemetry shard and log there, merged after the run.
    """
    specs = [
        EngineTask(
            case=case,
            bound=bound,
            engine=engine,
            timeout=timeout,
            learning_threshold=threshold,
        )
        for case, bound in pairs
        for engine, threshold in columns
    ]
    hub = None
    if telemetry_dir is not None:
        from repro.obs.telemetry import TelemetryHub

        hub = TelemetryHub(telemetry_dir)
    records = run_engine_tasks(specs, jobs=jobs, telemetry=hub)
    if hub is not None:
        hub.merge()
    rows: List[TableRow] = []
    cursor = 0
    for case, bound in pairs:
        row = TableRow(case=case, bound=bound)
        for engine, _ in columns:
            row.records[engine] = records[cursor]
            cursor += 1
        rows.append(row)
    return rows


def run_table1(
    timeout: float = 120.0,
    max_bound: Optional[int] = 50,
    instances: Optional[Sequence[Tuple[str, int]]] = None,
    jobs: int = 1,
    telemetry_dir: Optional[str] = None,
) -> List[TableRow]:
    """Regenerate Table 1: HDPLL with and without predicate learning."""
    return _run_matrix(
        _scaled(instances or TABLE1_INSTANCES, max_bound),
        (("hdpll", None), ("hdpll+p", TABLE1_THRESHOLD)),
        timeout,
        jobs,
        telemetry_dir,
    )


def run_table2(
    timeout: float = 120.0,
    max_bound: Optional[int] = 50,
    instances: Optional[Sequence[Tuple[str, int]]] = None,
    engines: Sequence[str] = ("hdpll", "hdpll+s", "hdpll+sp", "uclid", "ics"),
    jobs: int = 1,
    telemetry_dir: Optional[str] = None,
) -> List[TableRow]:
    """Regenerate Table 2: the structural decision strategy comparison."""
    return _run_matrix(
        _scaled(instances or TABLE2_INSTANCES, max_bound),
        tuple((engine, None) for engine in engines),
        timeout,
        jobs,
        telemetry_dir,
    )


def run_scaling(
    case: str = "b13_1",
    bounds: Sequence[int] = (10, 20, 30, 40, 50),
    engines: Sequence[str] = ("hdpll", "hdpll+s", "hdpll+sp"),
    timeout: float = 120.0,
    jobs: int = 1,
    telemetry_dir: Optional[str] = None,
) -> List[TableRow]:
    """Run-time as a function of unrolling depth for one family.

    This is the growth-curve view behind the paper's tables: where the
    paper reports spot depths, the sweep shows each configuration's
    scaling trend and where the separations open up.
    """
    return _run_matrix(
        [(case, bound) for bound in bounds],
        tuple((engine, None) for engine in engines),
        timeout,
        jobs,
        telemetry_dir,
    )


#: Ablation axes: config override -> instances that expose the effect.
ABLATION_INSTANCES: Tuple[Tuple[str, int], ...] = (
    ("b02_1", 20),
    ("b04_1", 20),
    ("b13_1", 30),
)


def _ablation_cell(name: str, config, case: str, bound: int) -> RunRecord:
    """One ablation solve — module-level so pool workers can import it."""
    from repro.core import solve_circuit
    from repro.intervals import reset_interval_cache

    reset_interval_cache()
    inst = instance(case, bound)
    start = _time.monotonic()
    result = solve_circuit(inst.circuit, inst.assumptions, config)
    elapsed = _time.monotonic() - start
    return RunRecord(
        case=case,
        bound=bound,
        engine=name,
        status={"sat": "S", "unsat": "U"}.get(result.status.value, "-to-"),
        seconds=elapsed,
        conflicts=result.stats.conflicts,
        decisions=result.stats.decisions,
        learned_relations=result.stats.learned_relations,
    )


def run_ablation(
    timeout: float = 120.0,
    jobs: int = 1,
) -> Dict[str, List[RunRecord]]:
    """Ablation study over the design choices DESIGN.md calls out.

    Axes: hybrid learned clauses off (Boolean-only learning), the
    strengthened mux backward rule on, and Section 4.4 phase hints on.
    Each (variant, instance) cell is an independent pool task — the
    ablation exercises the pool's generic ``(engine, instance, config)``
    form, with the config pickled into the worker.
    """
    from repro.core import SolverConfig

    variants: Dict[str, SolverConfig] = {
        "hdpll+sp": SolverConfig(
            structural_decisions=True, predicate_learning=True, timeout=timeout
        ),
        "no-hybrid-clauses": SolverConfig(
            structural_decisions=True,
            predicate_learning=True,
            hybrid_learned_clauses=False,
            timeout=timeout,
        ),
        "mux-select-implication": SolverConfig(
            structural_decisions=True,
            predicate_learning=True,
            mux_select_implication=True,
            timeout=timeout,
        ),
        "phase-hints": SolverConfig(
            structural_decisions=True,
            predicate_learning=True,
            learned_phase_hints=True,
            timeout=timeout,
        ),
    }
    cells = [
        (name, config, case, bound)
        for name, config in variants.items()
        for case, bound in ABLATION_INSTANCES
    ]
    tasks = [
        Task(
            fn=_ablation_cell,
            args=cell,
            timeout=timeout,
            label=f"{cell[2]}({cell[3]})/{cell[0]}",
        )
        for cell in cells
    ]
    outcomes = run_tasks(tasks, jobs=jobs)
    results: Dict[str, List[RunRecord]] = {name: [] for name in variants}
    for (name, _config, case, bound), outcome in zip(cells, outcomes):
        if outcome.ok:
            results[name].append(outcome.value)
        else:
            results[name].append(
                outcome_to_record(outcome, case, bound, name)
            )
    return results
