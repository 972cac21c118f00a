"""Differential property tests of :func:`repro.ilp.solve`.

Random 0/1 packings of 1-30 variables with integer capacities, kept
within the DP oracle's state guard, must solve to exactly the DP
optimum (and scipy's, when it is installed) at a feasible integral
point, and greedy must never beat them.  One-variable programs take the
closed form, which must equal the branch-and-bound it short-cuts —
including explicit upper bounds and capacities within 1e-7 of an
integer, where ``INT_TOL`` decides the answer.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.packing import (
    MAX_STATES,
    scipy_available,
    solve_dp,
    solve_greedy,
    solve_scipy,
)

from repro.analysis import analyze_twca
from repro.ilp import IntegerProgram, solve, solve_branch_bound
from repro.synth import figure4_system

#: DP states per example: far inside the oracle's guard, so the whole
#: property runs in seconds.
STATE_BUDGET = 3_000
assert STATE_BUDGET <= MAX_STATES


@st.composite
def packings(draw):
    """A 0/1 packing whose every variable some row caps."""
    num_vars = draw(st.integers(1, 30))
    num_rows = draw(st.integers(1, 8))
    objective = [float(draw(st.integers(1, 4))) for _ in range(num_vars)]
    rows = [
        [float(draw(st.integers(0, 1))) for _ in range(num_vars)]
        for _ in range(num_rows)
    ]
    for j in range(num_vars):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, num_rows - 1))][j] = 1.0
    caps = [draw(st.integers(0, 6)) for _ in range(num_rows)]
    while math.prod(c + 1 for c in caps) > STATE_BUDGET:
        caps[caps.index(max(caps))] -= 1
    return IntegerProgram(objective, rows, [float(c) for c in caps])


@settings(max_examples=150, deadline=None)
@given(program=packings())
def test_solve_matches_the_oracles(program):
    ours = solve(program)
    exact = solve_dp(program)
    assert ours.status == exact.status == "optimal"
    assert ours.objective == exact.objective
    assert program.is_feasible(ours.values)
    assert all(value == int(value) for value in ours.values)
    assert program.objective_value(ours.values) == ours.objective
    if scipy_available():
        assert ours.objective == solve_scipy(program).objective
    heuristic = solve_greedy(program)
    assert program.is_feasible(heuristic.values)
    assert heuristic.objective <= ours.objective


def near_integers():
    """Integers 0-12, exactly or 1e-7 above or below."""
    return st.builds(
        lambda base, offset: base + offset,
        st.integers(0, 12),
        st.sampled_from((-1e-7, 0.0, 1e-7)),
    )


@st.composite
def one_variable_programs(draw):
    num_rows = draw(st.integers(1, 4))
    rows = [[float(draw(st.integers(0, 1)))] for _ in range(num_rows)]
    rhs = [draw(near_integers()) for _ in range(num_rows)]
    upper = draw(st.one_of(st.none(), near_integers().map(lambda u: [u])))
    objective = [draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))]
    return IntegerProgram(objective, rows, rhs, upper_bounds=upper)


@settings(max_examples=300, deadline=None)
@given(program=one_variable_programs())
def test_closed_form_equals_branch_and_bound(program):
    closed = solve(program)
    searched = solve_branch_bound(program)
    assert (closed.status, closed.objective, closed.values) == (
        searched.status,
        searched.objective,
        searched.values,
    )


def test_case_study_program_shape():
    """``dmm`` is the clamped, ``N_b``-scaled optimum of
    ``packing_program``: one variable per minimal combination, one row
    per used active segment, capped by its chain's Omega."""
    system = figure4_system()
    result = analyze_twca(system, system["sigma_c"])
    for k in (3, 10, 76):
        omegas = {name: result.omega(name, k) for name in result.active_segments}
        program = result.packing_program(omegas)
        assert program.num_variables == len(result.minimal_unschedulable())
        used = [
            (name, segment)
            for name in sorted(result.active_segments)
            for segment in result.active_segments[name]
            if any(combo.uses(segment) for combo in result.minimal_unschedulable())
        ]
        assert program.rhs == [float(omegas[name]) for name, _ in used]
        optimum = solve(program).objective
        assert result.dmm(k) == min(k, result.n_b * int(optimum))
