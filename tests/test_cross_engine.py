"""Cross-engine agreement: every solver must give the same answer.

The strongest correctness evidence in the suite: random sequential BMC
instances solved by all four HDPLL configurations, the configuration
ablations, bit-blasting+CDCL, the lazy-SMT and the eager-CDP baselines —
all must agree, and SAT models must replay on the concrete simulator.
"""

import pytest

from repro.baselines import solve_by_bitblasting, solve_eager_cdp, solve_lazy_smt
from repro.bmc import make_bmc_instance
from repro.core import SolverConfig, Status, solve_circuit
from repro.itc99 import random_safety_property, random_sequential_circuit

CONFIG_MATRIX = {
    "base": SolverConfig(),
    "+P": SolverConfig(predicate_learning=True),
    "+S": SolverConfig(structural_decisions=True),
    "+S+P": SolverConfig(structural_decisions=True, predicate_learning=True),
    "bool-clauses": SolverConfig(hybrid_learned_clauses=False),
    "mux-implication": SolverConfig(mux_select_implication=True),
    "phase-hints": SolverConfig(
        structural_decisions=True,
        predicate_learning=True,
        learned_phase_hints=True,
    ),
    "no-restarts": SolverConfig(restart_interval=0),
    "phase-zero": SolverConfig(default_phase=0),
    "ref-core": SolverConfig(
        structural_decisions=True,
        predicate_learning=True,
        engine_impl="reference",
    ),
}


@pytest.mark.parametrize("seed", range(8))
def test_all_hdpll_configs_agree(seed):
    circuit = random_sequential_circuit(seed, width=3, operations=8)
    instance = make_bmc_instance(circuit, random_safety_property(), 3)
    answers = {}
    for name, config in CONFIG_MATRIX.items():
        result = solve_circuit(
            instance.circuit,
            instance.assumptions,
            config.with_overrides(timeout=120),
        )
        assert result.status is not Status.UNKNOWN, (seed, name)
        answers[name] = result.is_sat
    assert len(set(answers.values())) == 1, (seed, answers)


@pytest.mark.parametrize("seed", range(8))
def test_hdpll_agrees_with_all_baselines(seed):
    circuit = random_sequential_circuit(seed + 100, width=3, operations=7)
    instance = make_bmc_instance(circuit, random_safety_property(), 3)

    reference = solve_circuit(
        instance.circuit,
        instance.assumptions,
        SolverConfig(structural_decisions=True, predicate_learning=True,
                     timeout=120),
    )
    assert reference.status is not Status.UNKNOWN

    blast_sat, _, _ = solve_by_bitblasting(
        instance.circuit, instance.assumptions, timeout=120
    )
    assert blast_sat == reference.is_sat, seed

    lazy = solve_lazy_smt(instance.circuit, instance.assumptions, timeout=120)
    if lazy.status is not Status.UNKNOWN:
        assert lazy.is_sat == reference.is_sat, seed

    eager = solve_eager_cdp(
        instance.circuit, instance.assumptions, timeout=120
    )
    if eager.status is not Status.UNKNOWN:
        assert eager.is_sat == reference.is_sat, seed


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_sat_models_replay(seed):
    from repro.bmc import input_trace_from_model
    from repro.rtl import SequentialSimulator

    # Hunt for a SAT instance among seeds, then replay its model.
    circuit = random_sequential_circuit(seed, width=3, operations=8)
    prop = random_safety_property()
    for bound in (2, 3, 4, 5):
        instance = make_bmc_instance(circuit, prop, bound)
        result = solve_circuit(
            instance.circuit,
            instance.assumptions,
            SolverConfig(structural_decisions=True, timeout=120),
        )
        if result.is_sat:
            trace = input_trace_from_model(circuit, result.model, bound)
            sim = SequentialSimulator(circuit)
            values = [sim.step(frame) for frame in trace]
            assert values[-1]["ok"] == 0
            return
    # All bounds UNSAT for this seed: equally fine (nothing to replay).
