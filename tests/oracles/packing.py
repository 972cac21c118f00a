"""Reference solvers for the Theorem 3 packing, and the cold DMM path.

Oracles of :func:`repro.ilp.solve`, the one production solver:

* :func:`solve_dp` — exact dynamic program over residual capacities;
  integer data only, and a guard refuses state spaces above
  :data:`MAX_STATES`;
* :func:`solve_greedy` — ratio-greedy rounding, feasible but not
  optimal (the ablation baseline; never a DMM bound);
* :func:`solve_scipy` — ``scipy.optimize.milp`` (HiGHS), when scipy is
  installed (:func:`scipy_available`);
* :func:`dmm_reference` — ``dmm(k)`` with a freshly built program and
  no memo, solved by any of the above or by the branch-and-bound.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

from repro.analysis.twca import ChainTwcaResult, GuaranteeStatus
from repro.ilp import IntegerProgram, Solution, solve_branch_bound
from repro.ilp.model import empty_solution

#: Refuse DP instances with more states than this.
MAX_STATES = 2_000_000


def solve_dp(program: IntegerProgram) -> Solution:
    """Solve ``program`` exactly by DP over residual capacities."""
    n = program.num_variables
    if n == 0:
        return empty_solution()
    caps = []
    for b in program.rhs:
        if b < 0 or float(b) != math.floor(b):
            raise ValueError("DP solver needs non-negative integer rhs")
        caps.append(int(b))
    columns = []
    zero_columns = []
    for j in range(n):
        column = []
        for row in program.rows:
            a = row[j]
            if a < 0 or float(a) != math.floor(a):
                raise ValueError("DP solver needs non-negative integer coefficients")
            column.append(int(a))
        columns.append(tuple(column))
        if all(a == 0 for a in column):
            zero_columns.append(j)
            if program.objective[j] > 0 and math.isinf(program.variable_bound(j)):
                return Solution("unbounded", math.inf, (), 0)

    states = 1
    for c in caps:
        states *= c + 1
        if states > MAX_STATES:
            raise ValueError(f"DP state space exceeds {MAX_STATES}")

    # best[state] = best objective with that residual capacity.  One
    # layer per variable records how many copies of it led to a state
    # (states absent from a layer took none), so the walk back through
    # the layers rebuilds the packing.
    best: Dict[Tuple[int, ...], float] = {tuple(caps): 0.0}
    layers: List[Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]]] = []
    for j in range(n):
        layer: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
        layers.append(layer)
        if j in zero_columns:
            continue  # handled analytically below
        bound = program.variable_bound(j)
        current = dict(best)
        for state, value in best.items():
            copies = 1
            while copies <= bound + 1e-9:
                reached = tuple(s - copies * a for s, a in zip(state, columns[j]))
                if any(s < 0 for s in reached):
                    break
                gain = value + copies * program.objective[j]
                if gain > current.get(reached, -math.inf) + 1e-12:
                    current[reached] = gain
                    layer[reached] = (state, copies)
                copies += 1
        best = current

    state = max(best, key=lambda s: best[s])
    opt_value = best[state]
    values = [0.0] * n
    for j in reversed(range(n)):
        if state in layers[j]:
            state, copies = layers[j][state]
            values[j] = float(copies)
    # Zero columns consume no capacity: take them at their bound when
    # profitable.
    for j in zero_columns:
        if program.objective[j] > 0:
            values[j] = float(int(math.floor(program.variable_bound(j))))
            opt_value += program.objective[j] * values[j]
    solution = Solution("optimal", opt_value, tuple(values), work=len(best))
    assert program.is_feasible(solution.values), "DP packing infeasible"
    return solution


def solve_greedy(program: IntegerProgram) -> Solution:
    """Feasible (sub-optimal) packing: take variables by best
    profit-to-consumption ratio, each as often as the residual
    capacities allow."""
    n = program.num_variables
    if n == 0:
        return empty_solution()
    residual: List[float] = list(program.rhs)
    values = [0.0] * n

    def consumption(j: int) -> float:
        return sum(max(row[j], 0.0) for row in program.rows)

    def ratio(j: int) -> Tuple[float, float]:
        return (-program.objective[j] / (consumption(j) + 1e-12), consumption(j))

    order = sorted(range(n), key=ratio)
    steps = 0
    for j in order:
        if program.objective[j] <= 0:
            continue
        ub = program.variable_bound(j)
        fit = math.inf if math.isinf(ub) else math.floor(ub + 1e-9)
        for row, cap in zip(program.rows, residual):
            a = row[j]
            if a > 0:
                fit = min(fit, math.floor(cap / a + 1e-9))
        if math.isinf(fit):
            return Solution("unbounded", math.inf, (), steps)
        fit = int(fit)
        if fit <= 0:
            continue
        values[j] = float(fit)
        steps += 1
        for i, row in enumerate(program.rows):
            residual[i] -= row[j] * fit
    objective = program.objective_value(values)
    solution = Solution("optimal", objective, tuple(values), steps)
    assert program.is_feasible(solution.values), "greedy packing infeasible"
    return solution


def scipy_available() -> bool:
    """True when scipy.optimize.milp can be imported."""
    try:
        from scipy.optimize import milp  # noqa: F401
    except Exception:
        return False
    return True


def solve_scipy(program: IntegerProgram) -> Solution:
    """Solve ``program`` exactly with HiGHS via scipy."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = program.num_variables
    if n == 0:
        return empty_solution()
    upper = []
    for i in range(n):
        ub = program.variable_bound(i)
        if math.isinf(ub) and program.objective[i] > 0:
            return Solution("unbounded", math.inf, (), 0)
        upper.append(np.inf if math.isinf(ub) else math.floor(ub + 1e-9))
    constraints = []
    if program.rows:
        constraints.append(
            LinearConstraint(
                np.asarray(program.rows, dtype=float),
                ub=np.asarray(program.rhs, dtype=float),
            )
        )
    result = milp(
        c=-np.asarray(program.objective, dtype=float),  # milp minimizes
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(lb=np.zeros(n), ub=np.asarray(upper, dtype=float)),
    )
    if not result.success:
        return Solution("infeasible" if result.status == 2 else "error", 0.0, (), 0)
    values = tuple(float(round(v)) for v in result.x)
    return Solution("optimal", program.objective_value(values), values)


def dmm_reference(
    result: ChainTwcaResult,
    k: int,
    solver: Callable[[IntegerProgram], Solution] = solve_branch_bound,
) -> int:
    """``result.dmm(k)`` the cold way: the Theorem 3 program built here,
    independently of :meth:`ChainTwcaResult.packing_program` (explicit
    per-variable upper bounds included, which the rows already imply),
    and solved by ``solver`` with no memo.  The default solver is the
    branch-and-bound itself, so one-variable programs check the closed
    form of :func:`repro.ilp.solve` too."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if result.status is GuaranteeStatus.SCHEDULABLE:
        return 0
    if result.status is GuaranteeStatus.NO_GUARANTEE:
        return k
    if not result.unschedulable_count:
        return 0
    omegas = {name: result.omega(name, k) for name in sorted(result.active_segments)}
    if any(math.isinf(om) for om in omegas.values()):
        return k
    combos = result.minimal_unschedulable()
    rows: List[List[float]] = []
    rhs: List[float] = []
    for chain_name in sorted(result.active_segments):
        for segment in result.active_segments[chain_name]:
            row = [1.0 if combo.uses(segment) else 0.0 for combo in combos]
            if any(row):
                rows.append(row)
                rhs.append(float(omegas[chain_name]))
    program = IntegerProgram(
        objective=[1.0] * len(combos),
        rows=rows,
        rhs=rhs,
        upper_bounds=[max(omegas.values())] * len(combos),
    )
    solution = solver(program)
    if not solution.is_optimal:
        raise RuntimeError(f"packing ILP did not solve: {solution.status}")
    return min(k, result.n_b * int(round(solution.objective)))
