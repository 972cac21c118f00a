"""Branch-and-bound exactness on general integer programs.

Theorem 3 programs are 0/1 packings; these are not: coefficients up to
3, zero-profit variables and explicit upper bounds below the implied
ones.  :func:`repro.ilp.solve` must compute exactly the optimum of the
DP oracle (and of scipy's exact solver when it is installed) with a
feasible, integral point, and every LP relaxation must be a pure
function of its data.  Class names are those of the batched best-first
search this file used to compare with the recursion; that search is
gone, and the tests now check the one solver.
"""

import math
import random

import pytest
from oracles.packing import scipy_available, solve_dp, solve_scipy

from repro.ilp import IntegerProgram, solve, solve_lp


def random_program(rng):
    num_vars = rng.randint(2, 6)
    num_rows = rng.randint(2, 5)
    objective = [float(rng.randint(0, 6)) for _ in range(num_vars)]
    rows = [
        [float(rng.choice((0, 0, 1, 1, 2, 3))) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    # Every variable must appear in some row so the program is bounded
    # (Theorem 3 programs always are).
    for j in range(num_vars):
        if all(row[j] == 0 for row in rows):
            rows[rng.randrange(num_rows)][j] = 1.0
    rhs = [float(rng.randint(0, 12)) for _ in range(num_rows)]
    upper = None
    if rng.random() < 0.5:
        upper = [float(rng.randint(0, 6)) for _ in range(num_vars)]
    return IntegerProgram(objective=objective, rows=rows, rhs=rhs, upper_bounds=upper)


def rescaled(base, scale):
    return IntegerProgram(
        objective=list(base.objective),
        rows=[list(row) for row in base.rows],
        rhs=[math.floor(b * scale) for b in base.rhs],
        upper_bounds=list(base.upper_bounds) if base.upper_bounds else None,
    )


def assert_exact(program, solution):
    """``solution`` is optimal for ``program`` by the oracles."""
    assert solution.status == "optimal"
    assert program.is_feasible(solution.values)
    assert all(value == int(value) for value in solution.values)
    assert math.isclose(
        program.objective_value(solution.values), solution.objective, abs_tol=1e-6
    )
    assert math.isclose(solution.objective, solve_dp(program).objective, abs_tol=1e-6)
    if scipy_available():
        exact = solve_scipy(program)
        assert math.isclose(solution.objective, exact.objective, abs_tol=1e-4)


class TestBatchedEqualsRecursive:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_programs(self, seed):
        rng = random.Random(seed)
        for _ in range(25):
            program = random_program(rng)
            assert_exact(program, solve(program))

    @pytest.mark.parametrize("seed", (2, 5, 8, 13))
    def test_warm_state_schedule_matches_cold(self, seed):
        """A schedule of rescaled capacities, ending where it started:
        every point is exact, optima grow with the capacities, and the
        repeat returns the first answer — no state survives a solve."""
        rng = random.Random(100 + seed)
        base = random_program(rng)
        answers = []
        for scale in (1.0, 1.5, 2.0, 1.0):
            program = rescaled(base, scale)
            solution = solve(program)
            assert_exact(program, solution)
            answers.append(solution)
        assert answers[0].objective <= answers[1].objective <= answers[2].objective
        assert answers[3] == answers[0]


class TestSolveMany:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_independent_cold_solves(self, seed):
        """LP relaxations along an rhs schedule are independent: solving
        the schedule backwards gives the same answer for every rhs, and
        each is primal feasible."""
        rng = random.Random(seed)
        num_vars = rng.randint(1, 5)
        num_rows = rng.randint(1, 5)
        objective = [float(rng.randint(0, 5)) for _ in range(num_vars)]
        rows = [
            [float(rng.choice((0, 1, 1, 2))) for _ in range(num_vars)]
            for _ in range(num_rows)
        ]
        for j in range(num_vars):
            if all(row[j] == 0 for row in rows):
                rows[rng.randrange(num_rows)][j] = 1.0
        schedule = [
            [float(rng.randint(0, 9)) for _ in range(num_rows)] for _ in range(12)
        ]
        forward = [solve_lp(objective, rows, rhs) for rhs in schedule]
        backward = [solve_lp(objective, rows, rhs) for rhs in reversed(schedule)]
        for rhs, result, again in zip(schedule, forward, reversed(backward)):
            assert (result.status, result.objective, result.values) == (
                again.status,
                again.objective,
                again.values,
            )
            assert result.status == "optimal"
            for row, b in zip(rows, rhs):
                used = sum(a * v for a, v in zip(row, result.values))
                assert used <= b + 1e-7
            assert all(v >= -1e-9 for v in result.values)

    def test_rejects_mismatched_rhs_lengths(self):
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0]], [1.0, 2.0])
