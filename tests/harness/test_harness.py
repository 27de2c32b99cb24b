"""Tests for the benchmark harness: runner, table drivers, CLI."""

import pytest

from repro.harness import (
    ENGINE_NAMES,
    TABLE1_INSTANCES,
    TABLE2_INSTANCES,
    format_records,
    format_table1,
    format_table2,
    run_engine,
    run_table1,
    run_table2,
)
from repro.harness.cli import main
from repro.itc99 import instance


class TestRunner:
    def test_run_hdpll(self):
        inst = instance("b01_1", 10)
        record = run_engine(inst, "hdpll+sp", timeout=60)
        assert record.status == "S"
        assert record.seconds >= 0
        assert record.arith_ops > 0

    def test_run_bitblast(self):
        inst = instance("b01_1", 20)
        record = run_engine(inst, "bitblast", timeout=60)
        assert record.status == "U"

    def test_unknown_engine(self):
        inst = instance("b01_1", 10)
        # ``-spec`` was an engine-impl suffix once; it must not fall
        # through to plain HDPLL now.
        for engine in ("frobnicator", "hdpll+sp-spec"):
            record = run_engine(inst, engine, timeout=1)
            assert record.status == "-A-", engine
            assert "unknown engine" in record.note

    def test_timeout_marker(self):
        inst = instance("b04_1", 20)
        record = run_engine(inst, "hdpll", timeout=0.1)
        assert record.status in ("-to-", "S")  # S if absurdly fast

    def test_engine_names_all_runnable(self):
        inst = instance("b01_1", 10)
        for engine in ENGINE_NAMES:
            record = run_engine(inst, engine, timeout=30)
            assert record.status in ("S", "-to-", "-A-"), engine


class TestTableDrivers:
    def test_instance_lists_match_paper_shape(self):
        assert len(TABLE1_INSTANCES) == 18
        assert len(TABLE2_INSTANCES) == 32
        assert ("b13_1", 300) in TABLE1_INSTANCES
        assert ("b13_8", 400) in TABLE2_INSTANCES

    def test_run_table1_small(self):
        rows = run_table1(
            timeout=60, instances=[("b01_1", 10), ("b01_1", 20)]
        )
        assert [row.result_letter for row in rows] == ["S", "U"]
        text = format_table1(rows)
        assert "b01_1(10)" in text
        assert "HDPLL+P" in text

    def test_run_table2_small(self):
        rows = run_table2(
            timeout=60,
            instances=[("b01_1", 10)],
            engines=("hdpll", "hdpll+s"),
        )
        assert rows[0].result_letter == "S"
        text = format_table2(rows, ("hdpll", "hdpll+s"))
        assert "b01_1(10)" in text
        assert "Arith" in text

    def test_scaling_caps_and_dedupes(self):
        rows = run_table1(
            timeout=60,
            max_bound=10,
            instances=[("b01_1", 10), ("b01_1", 20), ("b02_1", 10)],
        )
        names = [(row.case, row.bound) for row in rows]
        assert names == [("b01_1", 10), ("b02_1", 10)]

    def test_format_records(self):
        inst = instance("b01_1", 10)
        record = run_engine(inst, "hdpll", timeout=60)
        text = format_records([record])
        assert "b01_1(10)" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "b13_5" in out

    def test_solve(self, capsys):
        assert main(["solve", "b01_1", "10", "--engine", "hdpll+s"]) == 0
        out = capsys.readouterr().out
        assert "S in" in out

    def test_table1_cli(self, capsys):
        # Tiny: cap at bound 10 so the CLI path stays fast.
        assert main(["table1", "--max-bound", "10", "--timeout", "60"]) == 0
        out = capsys.readouterr().out
        assert "b01_1(10)" in out

    def test_bad_case_raises(self):
        with pytest.raises(Exception):
            main(["solve", "b99_1", "10"])

    def test_trace_cli(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert (
            main(
                [
                    "trace", "b01_1", "10",
                    "--output", str(trace_path), "--narrate",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "trace events" in out
        assert "solve begin" in out       # the narrative
        assert "phase" in out             # the profile table
        from repro.obs import read_trace, validate_trace

        events = read_trace(trace_path)
        assert validate_trace(events) == []

    def test_trace_cli_replay(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["trace", "b01_1", "10", "--output", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "--replay", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "result:" in out

    def test_trace_cli_requires_case_without_replay(self, capsys):
        assert main(["trace"]) == 2
        err = capsys.readouterr().err
        assert "case and bound are required" in err

    def test_profile_cli(self, capsys):
        assert main(["profile", "b01_1", "10"]) == 0
        out = capsys.readouterr().out
        assert "search" in out
        assert "total (top-level phases)" in out


class TestLogging:
    def _cleanup(self):
        import logging

        logger = logging.getLogger("repro")
        for handler in list(logger.handlers):
            if getattr(handler, "_repro_cli_handler", False):
                logger.removeHandler(handler)

    def test_log_level_flag_wires_stderr_handler(self, capsys):
        try:
            assert main(["--log-level", "debug", "list"]) == 0
            err = capsys.readouterr().err
            assert "predicate learning" not in err  # list solves nothing
            assert main(["--log-level", "debug", "solve", "b01_1", "5"]) == 0
            err = capsys.readouterr().err
            assert "run begin" in err
        finally:
            self._cleanup()

    def test_env_var_default(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_LOG", "info")
        try:
            assert main(["solve", "b01_1", "5"]) == 0
        finally:
            self._cleanup()

    def test_silent_by_default(self, capsys):
        import logging

        assert main(["solve", "b01_1", "5"]) == 0
        err = capsys.readouterr().err
        assert "run begin" not in err
        logger = logging.getLogger("repro")
        assert not any(
            getattr(h, "_repro_cli_handler", False) for h in logger.handlers
        )


class TestScaling:
    def test_run_scaling_shape(self):
        from repro.harness.experiments import run_scaling

        rows = run_scaling(
            case="b01_1", bounds=(5, 10), engines=("hdpll",), timeout=60
        )
        assert [(r.case, r.bound) for r in rows] == [
            ("b01_1", 5),
            ("b01_1", 10),
        ]
        assert all("hdpll" in r.records for r in rows)

    def test_scaling_cli(self, capsys):
        assert (
            main(
                [
                    "scaling",
                    "b01_1",
                    "--bounds",
                    "5,10",
                    "--engines",
                    "hdpll",
                    "--timeout",
                    "60",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "b01_1(5)" in out


class TestBudgetHandling:
    def test_tiny_omega_budget_is_unknown_not_crash(self):
        from repro.core import SolverConfig, Status, solve_circuit
        from repro.itc99 import instance as make_instance

        inst = make_instance("b04_1", 5)
        config = SolverConfig(
            structural_decisions=True, omega_branch_budget=1, timeout=30
        )
        result = solve_circuit(inst.circuit, inst.assumptions, config)
        assert result.status in (Status.UNKNOWN, Status.SAT, Status.UNSAT)


class TestProveCli:
    def test_prove_induction(self, capsys):
        assert main(["prove", "b13_1", "--max-k", "4", "--timeout", "120"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out

    def test_prove_induction_with_jobs(self, capsys):
        # -j widens only prove --portfolio; plain prove runs the session
        # loop at any -j and finds b04_1's counterexample at depth 3.
        assert main(["-j", "2", "prove", "b04_1", "--max-k", "4"]) == 0
        out = capsys.readouterr().out
        assert "b04_1: violated (k = 3)" in out

    def test_prove_abstraction(self, capsys):
        assert main(["prove", "b02_1", "--method", "abstraction"]) == 0
        out = capsys.readouterr().out
        assert "proved" in out
