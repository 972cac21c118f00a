"""The one production entry point of the packing solver.

A one-variable program with a positive objective and non-negative
right-hand sides is answered in closed form: its optimum is the root
bound of :func:`~repro.ilp.branch_bound.solve_branch_bound`, which the
root relaxation would return anyway, so only the LP is skipped.  Every
other program goes through the branch-and-bound.
"""

from __future__ import annotations

import math

from .branch_bound import INT_TOL, solve_branch_bound
from .model import IntegerProgram, Solution


def solve(program: IntegerProgram) -> Solution:
    """Solve ``program`` exactly.  ``Solution.work`` counts the
    branch-and-bound nodes (0 for the closed form)."""
    if (
        program.num_variables == 1
        and program.objective[0] > 0
        and all(b >= 0 for b in program.rhs)
    ):
        bound = program.variable_bound(0)
        if not math.isinf(bound) and bound + INT_TOL >= 0:
            values = (math.floor(bound + INT_TOL),)
            return Solution("optimal", float(program.objective_value(values)), values)
    return solve_branch_bound(program)
