"""Cross-validation of the branch-and-bound against the oracles of
``tests/oracles/packing.py``: DP and scipy (exact) and greedy (lower
bound)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.packing import (scipy_available, solve_dp, solve_greedy,
                             solve_scipy)

from repro.ilp import IntegerProgram, solve, solve_branch_bound


def knapsack(objective, rows, rhs, upper=None):
    return IntegerProgram(objective=list(objective),
                          rows=[list(r) for r in rows],
                          rhs=list(rhs),
                          upper_bounds=upper)


class TestHandCrafted:
    def test_single_capacity(self):
        # max x1 + x2 with x1 <= 3, x2 <= 2 via shared rows.
        program = knapsack([1, 1], [[1, 0], [0, 1]], [3, 2])
        solution = solve_branch_bound(program)
        assert solution.objective == 5

    def test_theorem3_shape(self):
        # The case-study packing: one unschedulable combination using
        # both segments, capacities 3 and 3 -> optimum 3.
        program = knapsack([1], [[1], [1]], [3, 3])
        assert solve_branch_bound(program).objective == 3

    def test_fractional_relaxation_needs_branching(self):
        # max x1 + x2 + x3 with pairwise sums <= 1: LP optimum 1.5,
        # ILP optimum 1.
        program = knapsack(
            [1, 1, 1],
            [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
            [1, 1, 1])
        assert solve_branch_bound(program).objective == 1
        assert solve_dp(program).objective == 1

    def test_weighted_objective(self):
        # The heavy item can be taken twice within the shared capacity.
        program = knapsack([5, 2, 2], [[1, 1, 1]], [2])
        solution = solve_branch_bound(program)
        assert solution.objective == 10  # x1 = 2

    def test_weighted_objective_with_unit_bound(self):
        # Cap the heavy item at one copy: heavy + one light wins.
        program = knapsack([5, 2, 2], [[1, 1, 1]], [2], upper=[1, 1, 1])
        solution = solve_branch_bound(program)
        assert solution.objective == 7
        assert solve_dp(program).objective == 7

    def test_empty_program(self):
        program = knapsack([], [], [])
        assert solve_branch_bound(program).objective == 0
        assert solve_dp(program).objective == 0
        assert solve_greedy(program).objective == 0

    def test_unbounded_detection(self):
        program = knapsack([1], [], [])
        assert solve_branch_bound(program).status == "unbounded"
        assert solve_dp(program).status == "unbounded"
        assert solve_greedy(program).status == "unbounded"

    def test_zero_capacity(self):
        program = knapsack([1, 1], [[1, 1]], [0])
        assert solve_branch_bound(program).objective == 0

    def test_explicit_upper_bounds(self):
        program = knapsack([1], [[1]], [100], upper=[4])
        assert solve_branch_bound(program).objective == 4
        assert solve_dp(program).objective == 4

    def test_unknown_backend_rejected(self):
        # One solver: there is no backend to choose.
        with pytest.raises(TypeError):
            solve(knapsack([1], [[1]], [1]), backend="martian")

    def test_cross_check_mode(self):
        program = knapsack([1, 2], [[1, 1]], [3])
        solution = solve(program)
        assert solution.objective == 6
        assert solution.objective == solve_dp(program).objective
        if scipy_available():
            assert solution.objective == solve_scipy(program).objective

    def test_capacity_just_below_an_integer(self):
        # Capacities within INT_TOL of an integer count as that integer,
        # in the root bound and when the rounded point is accepted (the
        # search used to reject that point and answer 0).
        for program in (
            knapsack([1, 1], [[1, 1]], [2.9999999]),
            knapsack([1], [[1]], [10], upper=[2.9999999]),
        ):
            assert solve_branch_bound(program).objective == 3
            assert solve(program).objective == 3


class TestDpGuards:
    def test_rejects_fractional_rhs(self):
        with pytest.raises(ValueError):
            solve_dp(knapsack([1], [[1]], [1.5]))

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            solve_dp(knapsack([1], [[-1]], [2]))

    def test_rejects_huge_state_space(self):
        program = knapsack([1, 1, 1],
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                           [500, 500, 500])
        with pytest.raises(ValueError):
            solve_dp(program)


@st.composite
def packing_instances(draw):
    """Random Theorem 3-shaped instances: 0/1 matrix, small capacities."""
    num_vars = draw(st.integers(1, 6))
    num_rows = draw(st.integers(1, 5))
    objective = [draw(st.integers(1, 4)) for _ in range(num_vars)]
    rows = []
    rhs = []
    for _ in range(num_rows):
        row = [draw(st.integers(0, 1)) for _ in range(num_vars)]
        rows.append(row)
        rhs.append(draw(st.integers(0, 6)))
    # Every variable must be covered by at least one row to stay bounded.
    for j in range(num_vars):
        if not any(row[j] for row in rows):
            extra = [0] * num_vars
            extra[j] = 1
            rows.append(extra)
            rhs.append(draw(st.integers(0, 6)))
    return knapsack(objective, rows, rhs)


class TestBackendAgreement:
    @pytest.mark.skipif(
        not scipy_available(), reason="scipy not installed (no-numpy leg)"
    )
    @settings(max_examples=80, deadline=None)
    @given(program=packing_instances())
    def test_branch_bound_equals_scipy(self, program):
        ours = solve_branch_bound(program)
        reference = solve_scipy(program)
        assert ours.status == reference.status == "optimal"
        assert ours.objective == pytest.approx(reference.objective)

    @settings(max_examples=80, deadline=None)
    @given(program=packing_instances())
    def test_branch_bound_equals_dp(self, program):
        ours = solve_branch_bound(program)
        exact = solve_dp(program)
        assert ours.objective == pytest.approx(exact.objective)

    @settings(max_examples=80, deadline=None)
    @given(program=packing_instances())
    def test_greedy_is_feasible_lower_bound(self, program):
        heuristic = solve_greedy(program)
        exact = solve_branch_bound(program)
        assert heuristic.objective <= exact.objective + 1e-9
        assert program.is_feasible(heuristic.values)

    @settings(max_examples=60, deadline=None)
    @given(program=packing_instances())
    def test_solutions_are_integral_and_feasible(self, program):
        solution = solve_branch_bound(program)
        assert program.is_feasible(solution.values)
        for value in solution.values:
            assert value == int(value)
