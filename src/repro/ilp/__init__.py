"""Integer linear programming for the Theorem 3 packing.

:func:`solve` is the one exact solver: a closed form for one-variable
programs, otherwise :func:`solve_branch_bound` — branch-and-bound over
the own two-phase simplex :func:`solve_lp`, since the environment
provides no MILP library.  Both consume :class:`IntegerProgram`
(maximize, ``A x <= b``, integer ``x >= 0``) and return
:class:`Solution`.  The reference solvers the tests compare against
(DP, greedy, scipy) live in ``tests/oracles/packing.py``.
"""

from .branch_bound import solve_branch_bound
from .export import to_lp_string, write_lp_file
from .model import IntegerProgram, Solution
from .simplex import SimplexResult, solve_lp
from .solver import solve

__all__ = [
    "IntegerProgram",
    "Solution",
    "solve",
    "solve_lp",
    "SimplexResult",
    "solve_branch_bound",
    "to_lp_string",
    "write_lp_file",
]
