"""Exact ILP solving by branch-and-bound over the simplex relaxation.

Depth-first recursion with a cold two-phase relaxation per node,
variable selection by most-fractional value and integral rounding
tolerance.  Designed for the small packing programs of Theorem 3;
exactness is what matters, not scale.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from .model import IntegerProgram, Solution, empty_solution
from .simplex import solve_lp

#: Values closer than this to an integer are treated as integral.
INT_TOL = 1e-6

#: Node budget: a safety valve against degenerate inputs.
MAX_NODES = 200_000


def _relaxation(program: IntegerProgram, lower: List[float], upper: List[float]):
    """Solve the LP relaxation under per-variable bounds by shifting
    ``x = y + lower`` and appending bound rows ``y_i <= upper_i - lower_i``.
    Returns ``(status, objective, values)`` in the original coordinates.
    """
    n = program.num_variables
    rows: List[List[float]] = []
    rhs: List[float] = []
    for row, b in zip(program.rows, program.rhs):
        shift = sum(a * lo for a, lo in zip(row, lower))
        rows.append(list(row))
        rhs.append(b - shift)
    for i in range(n):
        span = upper[i] - lower[i]
        if span < 0:
            return "infeasible", 0.0, ()
        if not math.isinf(span):
            bound_row = [0.0] * n
            bound_row[i] = 1.0
            rows.append(bound_row)
            rhs.append(span)
    result = solve_lp(program.objective, rows, rhs)
    if result.status != "optimal":
        return result.status, 0.0, ()
    values = tuple(v + lo for v, lo in zip(result.values, lower))
    offset = sum(c * lo for c, lo in zip(program.objective, lower))
    return "optimal", result.objective + offset, values


def solve_branch_bound(program: IntegerProgram) -> Solution:
    """Solve ``program`` exactly.  All variables are integer, >= 0.

    ``Solution.work`` counts the branch-and-bound nodes.
    """
    n = program.num_variables
    if n == 0:
        return empty_solution()
    base_upper = [program.variable_bound(i) for i in range(n)]
    for i, ub in enumerate(base_upper):
        if math.isinf(ub) and program.objective[i] > 0:
            # An unconstrained profitable variable means the packing is
            # unbounded; Theorem 3 programs never are, but report it.
            return Solution("unbounded", math.inf, (), 0)
        if not math.isinf(ub):
            base_upper[i] = math.floor(ub + INT_TOL)

    best_value = -math.inf
    best_x: Optional[Tuple[float, ...]] = None
    nodes = 0
    integral_objective = all(float(c).is_integer() for c in program.objective)

    def recurse(lower: List[float], upper: List[float]) -> None:
        nonlocal best_value, best_x, nodes
        nodes += 1
        if nodes > MAX_NODES:
            raise RuntimeError(f"branch-and-bound exceeded {MAX_NODES} nodes")
        status, objective, values = _relaxation(program, lower, upper)
        if status != "optimal":
            return
        # Integer-valued objectives let us round the bound down.
        bound = math.floor(objective + INT_TOL) if integral_objective else objective
        if bound <= best_value + INT_TOL:
            return
        frac_index = -1
        frac_amount = 0.0
        for i, v in enumerate(values):
            distance = abs(v - round(v))
            if distance > max(INT_TOL, frac_amount):
                frac_amount = distance
                frac_index = i
        if frac_index < 0:
            # The rounded point may exceed a capacity that lies within
            # INT_TOL below an integer, as the root bounds do.
            rounded = tuple(round(v) for v in values)
            if program.is_feasible(rounded, tol=INT_TOL):
                value = program.objective_value(rounded)
                if value > best_value:
                    best_value = value
                    best_x = rounded
            return
        floor_v = math.floor(values[frac_index])
        # Explore the "up" branch first: packing problems usually profit
        # from larger values, which tightens the incumbent early.
        up_lower = list(lower)
        up_lower[frac_index] = floor_v + 1
        recurse(up_lower, upper)
        down_upper = list(upper)
        down_upper[frac_index] = floor_v
        recurse(lower, down_upper)

    recurse([0.0] * n, base_upper)
    if best_x is None:
        # x = 0 is always feasible for packing rows with b >= 0; if even
        # the relaxation was infeasible the program has contradictory
        # rows.
        zero = tuple(0.0 for _ in range(n))
        if program.is_feasible(zero):
            return Solution("optimal", 0.0, zero, nodes)
        return Solution("infeasible", 0.0, (), nodes)
    return Solution("optimal", float(best_value), best_x, nodes)
