"""Tests for FME and the Omega-style integer feasibility solver.

The load-bearing test is the brute-force cross-check: on random small
systems the solver must agree exactly with exhaustive enumeration.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fme import (
    LinearConstraint,
    OmegaSolver,
    dark_shadow_feasible,
    eliminate_variable,
    rational_feasible,
    variable_bounds_after_projection,
)


def brute_force(constraints, bounds):
    names = sorted(bounds)
    for point in itertools.product(
        *(range(bounds[v][0], bounds[v][1] + 1) for v in names)
    ):
        assignment = dict(zip(names, point))
        if all(c.evaluate(assignment) for c in constraints):
            return assignment
    return None


class TestEliminateVariable:
    def test_simple_projection(self):
        # x0 <= x1, x1 <= 5  project x1  =>  x0 <= 5
        constraints = [
            LinearConstraint.le({0: 1, 1: -1}, 0),
            LinearConstraint.le({1: 1}, 5),
        ]
        projected = eliminate_variable(constraints, 1)
        assert projected == [LinearConstraint.le({0: 1}, 5)]

    def test_contradiction_detected(self):
        # 3 <= x0 and x0 <= 2.
        constraints = [
            LinearConstraint.le({0: -1}, -3),
            LinearConstraint.le({0: 1}, 2),
        ]
        assert eliminate_variable(constraints, 0) is None

    def test_untouched_constraints_kept(self):
        constraints = [
            LinearConstraint.le({0: 1}, 5),
            LinearConstraint.le({1: 1}, 3),
        ]
        projected = eliminate_variable(constraints, 1)
        assert LinearConstraint.le({0: 1}, 5) in projected


class TestRationalFeasible:
    def test_feasible(self):
        assert rational_feasible(
            [
                LinearConstraint.le({0: 1, 1: 1}, 10),
                LinearConstraint.le({0: -1}, 0),
                LinearConstraint.le({1: -1}, 0),
            ]
        )

    def test_infeasible(self):
        assert not rational_feasible(
            [
                LinearConstraint.le({0: 1}, 2),
                LinearConstraint.le({0: -1}, -3),
            ]
        )

    def test_rationally_feasible_integrally_infeasible(self):
        # 2x == 1 as two inequalities: rational point x = 0.5 exists.
        assert rational_feasible(
            [
                LinearConstraint.le({0: 2}, 1),
                LinearConstraint.le({0: -2}, -1),
            ]
        )


class TestProjectionBounds:
    def test_bounds(self):
        # x0 + x1 <= 6, x1 >= 2  =>  x0 <= 4.
        constraints = [
            LinearConstraint.le({0: 1, 1: 1}, 6),
            LinearConstraint.le({1: -1}, -2),
        ]
        lo, hi = variable_bounds_after_projection(constraints, 0)
        assert hi == 4
        assert lo is None

    def test_infeasible_returns_none(self):
        constraints = [
            LinearConstraint.le({0: 1}, 1),
            LinearConstraint.le({0: -1}, -2),
        ]
        assert variable_bounds_after_projection(constraints, 0) is None


class TestOmegaSolver:
    def test_simple_witness(self):
        solver = OmegaSolver()
        witness = solver.solve(
            [LinearConstraint.eq({0: 1, 1: 1}, 7)],
            {0: (0, 15), 1: (0, 15)},
        )
        assert witness is not None
        assert witness[0] + witness[1] == 7

    def test_infeasible_equality(self):
        solver = OmegaSolver()
        assert (
            solver.solve(
                [LinearConstraint.eq({0: 2}, 5)],
                {0: (0, 15)},
            )
            is None
        )

    def test_bounds_make_it_infeasible(self):
        solver = OmegaSolver()
        assert (
            solver.solve(
                [LinearConstraint.eq({0: 1, 1: 1}, 20)],
                {0: (0, 7), 1: (0, 7)},
            )
            is None
        )

    def test_integrality_gap_detected(self):
        # 3x - 3y == 1 has rational solutions but no integer ones.
        solver = OmegaSolver()
        assert (
            solver.solve(
                [LinearConstraint.eq({0: 3, 1: -3}, 1)],
                {0: (0, 100), 1: (0, 100)},
            )
            is None
        )

    def test_interrupt_runs_during_search_and_ends_it(self):
        # x + y <= 7 over 0..100 with x != y needs search; an
        # interrupt that raises on its third call ends the search.
        calls = []

        class Stop(Exception):
            pass

        def interrupt():
            calls.append(None)
            if len(calls) == 3:
                raise Stop()

        constraints = [LinearConstraint.le({0: 1, 1: 1}, 7)]
        diseqs = [LinearConstraint.eq({0: 1, 1: -1}, 0)]
        bounds = {0: (0, 100), 1: (0, 100)}
        assert OmegaSolver().solve(constraints, bounds, diseqs) is not None
        with pytest.raises(Stop):
            OmegaSolver(interrupt=interrupt).solve(constraints, bounds, diseqs)
        assert len(calls) == 3

    def test_non_unit_equality_solved(self):
        # 2x + 4y == 10 with tight bounds.
        solver = OmegaSolver()
        witness = solver.solve(
            [LinearConstraint.eq({0: 2, 1: 4}, 10)],
            {0: (0, 7), 1: (0, 7)},
        )
        assert witness is not None
        assert 2 * witness[0] + 4 * witness[1] == 10

    def test_chained_substitution(self):
        # Carry-style system: a + b == s + 8c, s == 3, c in {0,1}.
        solver = OmegaSolver()
        constraints = [
            LinearConstraint.eq({0: 1, 1: 1, 2: -1, 3: -8}, 0),
            LinearConstraint.eq({2: 1}, 3),
        ]
        witness = solver.solve(
            constraints, {0: (0, 7), 1: (0, 7), 2: (0, 7), 3: (0, 1)}
        )
        assert witness is not None
        assert witness[0] + witness[1] == witness[2] + 8 * witness[3]
        assert witness[2] == 3

    def test_unconstrained_vars_get_values(self):
        solver = OmegaSolver()
        witness = solver.solve([], {0: (3, 9)})
        assert witness == {0: 3}

    def test_feasible_shortcut(self):
        solver = OmegaSolver()
        assert solver.feasible(
            [LinearConstraint.le({0: 1}, 5)], {0: (0, 7)}
        )

    @pytest.mark.parametrize("seed", range(25))
    def test_against_brute_force(self, seed):
        rng = random.Random(seed)
        num_vars = rng.randint(2, 4)
        bounds = {v: (0, rng.choice([3, 7, 15])) for v in range(num_vars)}
        constraints = []
        for _ in range(rng.randint(1, 5)):
            coeffs = {
                v: rng.randint(-3, 3)
                for v in range(num_vars)
                if rng.random() < 0.7
            }
            coeffs = {v: c for v, c in coeffs.items() if c != 0}
            if not coeffs:
                continue
            constant = rng.randint(-10, 20)
            equality = rng.random() < 0.4
            constraints.append(
                LinearConstraint.make(coeffs, constant, equality)
            )
        expected = brute_force(constraints, bounds)
        witness = OmegaSolver().solve(constraints, bounds)
        if expected is None:
            assert witness is None, (constraints, witness)
        else:
            assert witness is not None, (constraints, expected)
            for constraint in constraints:
                assert constraint.evaluate(witness)
            for var, (lo, hi) in bounds.items():
                assert lo <= witness[var] <= hi

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_against_brute_force_hypothesis(self, data):
        num_vars = data.draw(st.integers(2, 3))
        bounds = {v: (0, 7) for v in range(num_vars)}
        constraints = []
        for _ in range(data.draw(st.integers(1, 4))):
            coeffs = {}
            for v in range(num_vars):
                c = data.draw(st.integers(-2, 2))
                if c:
                    coeffs[v] = c
            if not coeffs:
                continue
            constraints.append(
                LinearConstraint.make(
                    coeffs,
                    data.draw(st.integers(-8, 15)),
                    data.draw(st.booleans()),
                )
            )
        expected = brute_force(constraints, bounds)
        witness = OmegaSolver().solve(constraints, bounds)
        assert (witness is not None) == (expected is not None)
        if witness is not None:
            assert all(c.evaluate(witness) for c in constraints)


class TestDarkShadow:
    def test_exact_system_true(self):
        result = dark_shadow_feasible(
            [
                LinearConstraint.le({0: 1}, 5),
                LinearConstraint.le({0: -1}, 0),
            ]
        )
        assert result is True

    def test_empty_real_shadow_false(self):
        result = dark_shadow_feasible(
            [
                LinearConstraint.le({0: 1}, 1),
                LinearConstraint.le({0: -1}, -2),
            ]
        )
        assert result is False

    def test_no_constraints(self):
        assert dark_shadow_feasible([]) is True


class TestDisequalities:
    def test_diseq_blocks_unique_point(self):
        solver = OmegaSolver()
        constraints = [LinearConstraint.eq({0: 1}, 4)]
        diseq = [LinearConstraint.eq({0: 1}, 4)]
        assert solver.solve(constraints, {0: (0, 7)}, diseq) is None

    def test_diseq_forces_other_point(self):
        solver = OmegaSolver()
        # x in <3, 4>, x != 3  =>  x == 4.
        constraints = [
            LinearConstraint.le({0: 1}, 4),
            LinearConstraint.le({0: -1}, -3),
        ]
        diseq = [LinearConstraint.eq({0: 1}, 3)]
        witness = solver.solve(constraints, {0: (0, 7)}, diseq)
        assert witness == {0: 4}

    def test_diseq_between_variables(self):
        solver = OmegaSolver()
        # x == y and x != y is unsatisfiable.
        constraints = [LinearConstraint.eq({0: 1, 1: -1}, 0)]
        diseq = [LinearConstraint.eq({0: 1, 1: -1}, 0)]
        assert solver.solve(constraints, {0: (0, 7), 1: (0, 7)}, diseq) is None

    def test_diseq_satisfiable_between_variables(self):
        solver = OmegaSolver()
        diseq = [LinearConstraint.eq({0: 1, 1: -1}, 0)]
        witness = solver.solve([], {0: (0, 1), 1: (0, 1)}, diseq)
        assert witness is not None
        assert witness[0] != witness[1]

    def test_diseq_with_gcd_always_true(self):
        solver = OmegaSolver()
        # 2x != 5 always holds over integers.
        diseq = [LinearConstraint.eq({0: 2}, 5)]
        witness = solver.solve([], {0: (0, 7)}, diseq)
        assert witness is not None

    def test_many_diseqs_narrow_range(self):
        solver = OmegaSolver()
        diseqs = [LinearConstraint.eq({0: 1}, v) for v in range(7)]
        witness = solver.solve([], {0: (0, 7)}, diseqs)
        assert witness == {0: 7}

    def test_all_values_excluded(self):
        solver = OmegaSolver()
        diseqs = [LinearConstraint.eq({0: 1}, v) for v in range(8)]
        assert solver.solve([], {0: (0, 7)}, diseqs) is None

    def test_diseq_interacts_with_equality_substitution(self):
        solver = OmegaSolver()
        # y == x + 1, y != 4  =>  x != 3.
        constraints = [LinearConstraint.eq({1: 1, 0: -1}, 1)]
        diseqs = [LinearConstraint.eq({1: 1}, 4)]
        witness = solver.solve(
            constraints, {0: (3, 3), 1: (0, 7)}, diseqs
        )
        assert witness is None
