"""Integer linear program representation.

The DMM computation of Theorem 3 is a multi-dimensional knapsack: maximize
a non-negative linear objective subject to ``A x <= b`` with non-negative
integer variables.  :class:`IntegerProgram` captures exactly that shape
(plus optional per-variable upper bounds); the solvers in this package all
consume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple


@dataclass
class IntegerProgram:
    """``maximize c . x  subject to  A x <= b,  0 <= x <= u,  x integer``.

    Attributes
    ----------
    objective:
        Coefficient vector ``c`` (length = number of variables).
    rows:
        Constraint matrix ``A`` as a list of rows.
    rhs:
        Right-hand sides ``b`` (one per row).
    upper_bounds:
        Optional per-variable upper bounds; ``None`` entries mean
        unbounded above (but every variable is implicitly bounded by the
        constraints in a well-posed packing problem).
    names:
        Optional variable names for diagnostics.
    """

    objective: List[float]
    rows: List[List[float]]
    rhs: List[float]
    upper_bounds: Optional[List[Optional[float]]] = None
    names: Optional[List[str]] = None

    def __post_init__(self) -> None:
        n = len(self.objective)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError(f"row {i} has {len(row)} coefficients, expected {n}")
        if len(self.rhs) != len(self.rows):
            raise ValueError(
                f"{len(self.rhs)} right-hand sides for {len(self.rows)} rows"
            )
        if self.upper_bounds is not None and len(self.upper_bounds) != n:
            raise ValueError("upper_bounds length mismatch")
        if self.names is not None and len(self.names) != n:
            raise ValueError("names length mismatch")

    @property
    def num_variables(self) -> int:
        return len(self.objective)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def variable_bound(self, index: int) -> float:
        """Tightest implied upper bound for variable ``index``: the
        explicit bound combined with single-row implications
        ``x_i <= b_j / A[j][i]`` for positive coefficients."""
        bound = math.inf
        if self.upper_bounds is not None:
            explicit = self.upper_bounds[index]
            if explicit is not None:
                bound = explicit
        for row, b in zip(self.rows, self.rhs):
            coeff = row[index]
            if coeff > 0:
                bound = min(bound, b / coeff)
        return bound

    def is_feasible(self, x: Sequence[float], tol: float = 1e-9) -> bool:
        """Check a candidate solution against all constraints."""
        if len(x) != self.num_variables:
            return False
        for value in x:
            if value < -tol:
                return False
        if self.upper_bounds is not None:
            for value, ub in zip(x, self.upper_bounds):
                if ub is not None and value > ub + tol:
                    return False
        for row, b in zip(self.rows, self.rhs):
            if sum(a * v for a, v in zip(row, x)) > b + tol:
                return False
        return True

    def objective_value(self, x: Sequence[float]) -> float:
        """Evaluate ``c . x``."""
        return sum(c * v for c, v in zip(self.objective, x))


@dataclass(frozen=True)
class Solution:
    """Result of an (I)LP solve."""

    status: str  # "optimal", "infeasible" or "unbounded"
    objective: float
    values: Tuple[float, ...]
    #: Branch-and-bound nodes (0 for the one-variable closed form; the
    #: test oracles count their own units); for performance reporting
    #: only.
    work: int = 0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"


def empty_solution() -> Solution:
    """The optimal solution of a program with no variables."""
    return Solution(status="optimal", objective=0.0, values=())
