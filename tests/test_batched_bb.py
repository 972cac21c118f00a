"""Batched best-first branch-and-bound equality.

The heap-driven search resolves whole frontiers of open-node
relaxations through ``IncrementalLp.solve_many``; it must compute
exactly the optimum of the historic recursive reference
(``incremental=False``: one cold two-phase relaxation per node), with
a feasible incumbent, on randomized integer programs — cold and warm
(state carried across an rhs schedule) — and agree with scipy's exact
solver when it is installed.
"""

import math
import random

import pytest

from repro.ilp import (
    IntegerProgram,
    scipy_available,
    solve_branch_bound,
    solve_scipy,
)
from repro.ilp.branch_bound import BranchBoundState
from repro.ilp.simplex import IncrementalLp


def random_program(rng):
    num_vars = rng.randint(2, 6)
    num_rows = rng.randint(2, 5)
    objective = [float(rng.randint(0, 6)) for _ in range(num_vars)]
    rows = [
        [float(rng.choice((0, 0, 1, 1, 2, 3))) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    # Every variable must appear in some row so the program is bounded
    # (the packing engine's Theorem 3 programs always are).
    for j in range(num_vars):
        if all(row[j] == 0 for row in rows):
            rows[rng.randrange(num_rows)][j] = 1.0
    rhs = [float(rng.randint(0, 12)) for _ in range(num_rows)]
    upper = None
    if rng.random() < 0.5:
        upper = [float(rng.randint(0, 6)) for _ in range(num_vars)]
    return IntegerProgram(
        objective=objective, rows=rows, rhs=rhs, upper_bounds=upper
    )


def rescaled(base, scale):
    return IntegerProgram(
        objective=list(base.objective),
        rows=[list(row) for row in base.rows],
        rhs=[b * scale for b in base.rhs],
        upper_bounds=list(base.upper_bounds) if base.upper_bounds else None,
    )


class TestBatchedEqualsRecursive:
    @pytest.mark.parametrize("seed", range(10))
    def test_randomized_programs(self, seed):
        rng = random.Random(seed)
        for round_index in range(25):
            program = random_program(rng)
            batched = solve_branch_bound(program)
            reference = solve_branch_bound(program, incremental=False)
            assert batched.status == reference.status
            assert math.isclose(batched.objective, reference.objective, abs_tol=1e-6)
            if batched.status == "optimal":
                assert program.is_feasible(batched.values)
                assert math.isclose(
                    program.objective_value(batched.values),
                    batched.objective,
                    abs_tol=1e-6,
                )
            if scipy_available() and round_index % 5 == 0:
                exact = solve_scipy(program)
                if exact.status == "optimal":
                    assert math.isclose(
                        batched.objective, exact.objective, abs_tol=1e-4
                    )

    @pytest.mark.parametrize("seed", (2, 5, 8, 13))
    def test_warm_state_schedule_matches_cold(self, seed):
        rng = random.Random(100 + seed)
        base = random_program(rng)
        state = BranchBoundState()
        for scale in (1.0, 1.5, 2.0, 1.0):
            program = rescaled(base, scale)
            warm = solve_branch_bound(program, state)
            cold = solve_branch_bound(program, incremental=False)
            assert warm.status == cold.status
            assert math.isclose(warm.objective, cold.objective, abs_tol=1e-6)
            if warm.status == "optimal":
                assert program.is_feasible(warm.values)
                # Carry the incumbent like the packing engine does; the
                # next solve re-checks it against its own program, so a
                # stale seed can never leak into the optimum.
                state.incumbent = warm


class TestSolveMany:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_independent_cold_solves(self, seed):
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
        lp = IncrementalLp(objective, rows)
        lp.solve(schedule[0])  # establish a basis to share
        batch = lp.solve_many(schedule)
        assert len(batch) == len(schedule)
        for rhs, result in zip(schedule, batch):
            cold = IncrementalLp(objective, rows).solve(rhs)
            assert result.status == cold.status
            if result.status == "optimal":
                assert math.isclose(
                    result.objective,
                    cold.objective,
                    rel_tol=1e-9,
                    abs_tol=1e-9,
                )
                for row, b in zip(rows, rhs):
                    used = sum(a * v for a, v in zip(row, result.values))
                    assert used <= b + 1e-7
                assert all(v >= -1e-9 for v in result.values)

    def test_warm_columns_take_no_pivots(self):
        # Identical rhs columns after a solved basis are pure
        # ``B^-1 . RHS`` reads: warm_solves counts them, pivot counts
        # stay frozen at the cold solve's value.
        objective = [3.0, 2.0]
        rows = [[1.0, 1.0], [2.0, 1.0]]
        lp = IncrementalLp(objective, rows)
        first = lp.solve([4.0, 6.0])
        warm_before = lp.warm_solves
        batch = lp.solve_many([[4.0, 6.0]] * 5)
        assert [r.objective for r in batch] == [first.objective] * 5
        assert [r.pivots for r in batch] == [first.pivots] * 5
        assert lp.warm_solves == warm_before + 5

    def test_rejects_mismatched_rhs_lengths(self):
        lp = IncrementalLp([1.0], [[1.0]])
        with pytest.raises(ValueError):
            lp.solve_many([[1.0], [1.0, 2.0]])


def corrupt_inverse(lp, factor):
    """Scale the slack columns of the retained tableau — the tracked
    ``B^-1`` — simulating the roundoff a product-form inverse
    accumulates over hundreds of pivots, far past tolerance."""
    tableau = lp._tableau
    offset = tableau.num_vars
    for row in tableau.rows:
        for j in range(offset, offset + tableau.num_rows):
            row[j] *= factor


class TestDriftCertificates:
    """A degraded basis inverse must never surface a wrong optimum.

    Long-carried warm state drifts: the tableau stays internally
    consistent while its answers leave the true optimum.  The warm
    paths re-prove every answer against the pristine program data and
    re-derive cold on failure, so results match a fresh solver exactly
    even after the inverse is corrupted outright.
    """

    OBJECTIVE = [3.0, 2.0, 4.0]
    ROWS = [[1.0, 1.0, 2.0], [2.0, 1.0, 1.0], [1.0, 2.0, 1.0]]
    SCHEDULE = [[8.0, 9.0, 7.0], [6.0, 11.0, 8.0], [9.0, 9.0, 9.0]]

    @pytest.mark.parametrize("factor", (0.999, 1.001))
    def test_scalar_warm_heals_to_cold(self, factor):
        lp = IncrementalLp(self.OBJECTIVE, self.ROWS)
        lp.solve([4.0, 6.0, 5.0])
        corrupt_inverse(lp, factor)
        for rhs in self.SCHEDULE:
            warm = lp.solve(rhs)
            cold = IncrementalLp(self.OBJECTIVE, self.ROWS).solve(rhs)
            assert warm.status == cold.status
            assert math.isclose(warm.objective, cold.objective, abs_tol=1e-9)
        # At least one certificate failure re-derived cold and thereby
        # rebuilt the factorization.
        assert lp.cold_solves >= 2

    @pytest.mark.parametrize("factor", (0.999, 1.001))
    def test_solve_many_heals_to_cold(self, factor):
        lp = IncrementalLp(self.OBJECTIVE, self.ROWS)
        lp.solve([4.0, 6.0, 5.0])
        corrupt_inverse(lp, factor)
        batch = lp.solve_many(self.SCHEDULE)
        for rhs, warm in zip(self.SCHEDULE, batch):
            cold = IncrementalLp(self.OBJECTIVE, self.ROWS).solve(rhs)
            assert warm.status == cold.status
            assert math.isclose(warm.objective, cold.objective, abs_tol=1e-9)
