"""E5 — Figure 2: packing overload activations into busy windows.

The figure illustrates why the DMM computation is a knapsack: with three
overload tasks whose activation models allow two activations each, and
"any combination containing more than one task is unschedulable", the
number of deadline misses depends on how activations are grouped into
busy windows.  Packing pairs ({1,2}, {1,3}, {2,3}) hits three windows;
packing {1,2,3} together first (the greedy choice) only reaches two.

We reproduce that gap with the actual ILP machinery: the exact solvers
find the 3-window packing, the greedy heuristic the inferior one.
"""

from __future__ import annotations

import itertools

from conftest import run_once
from oracles.packing import solve_dp, solve_greedy

from repro.ilp import IntegerProgram, solve_branch_bound

TASKS = ("tau_1", "tau_2", "tau_3")
BUDGET = 2  # activations available per overload task


def build_packing_program():
    """Variables: one per unschedulable combination (subsets of >= 2
    tasks); rows: one capacity per overload task."""
    combos = [subset
              for size in (2, 3)
              for subset in itertools.combinations(range(3), size)]
    rows = []
    for task_index in range(3):
        rows.append([1.0 if task_index in combo else 0.0
                     for combo in combos])
    program = IntegerProgram(
        objective=[1.0] * len(combos),
        rows=rows,
        rhs=[float(BUDGET)] * 3,
        names=["+".join(TASKS[i] for i in combo) for combo in combos])
    return program, combos


def test_figure2_packing(benchmark):
    program, combos = build_packing_program()
    exact = run_once(benchmark, solve_branch_bound, program)
    heuristic = solve_greedy(program)
    also_exact = solve_dp(program)
    print()
    print("Figure 2 packing (3 overload tasks x 2 activations,"
          " pairs unschedulable):")
    chosen = [name for name, x in zip(program.names, exact.values) if x]
    print(f"  exact packing  -> {int(exact.objective)} unschedulable "
          f"windows via {chosen}")
    print(f"  greedy packing -> {int(heuristic.objective)} windows")
    assert exact.objective == 3       # case 2 of the figure
    assert also_exact.objective == 3
    assert heuristic.objective <= exact.objective
    # The chosen packing uses each task at most twice.
    for row, capacity in zip(program.rows, program.rhs):
        used = sum(a * x for a, x in zip(row, exact.values))
        assert used <= capacity


def test_packing_scales_with_budget(benchmark):
    """The miss bound grows linearly in the per-task activation budget —
    the Omega capacities of Lemma 4 enter the ILP exactly like this."""

    def sweep():
        results = {}
        for budget in (1, 2, 4, 8):
            program, _ = build_packing_program()
            program.rhs = [float(budget)] * 3
            results[budget] = solve_branch_bound(program).objective
        return results

    results = run_once(benchmark, sweep)
    print(f"\nbudget -> packed windows: {results}")
    assert results[1] == 1
    assert results[2] == 3
    assert results[4] == 6
    assert results[8] == 12
