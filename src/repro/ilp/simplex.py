"""Dense two-phase primal simplex for small LPs.

This is the LP-relaxation engine behind the exact branch-and-bound ILP
solver.  It is written for clarity and robustness on the small programs
produced by Theorem 3 (tens of variables / rows), not for scale:

* dense tableau representation;
* Bland's anti-cycling pivot rule;
* two phases, so right-hand sides of any sign are accepted.

Problem shape: ``maximize c . x  subject to  A x <= b,  x >= 0``.
Variable upper bounds must be encoded as explicit rows by the caller.

The tableau is a list of Python float rows: at these sizes the
per-call overhead of array libraries costs more than the row updates.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

#: Numerical tolerance for pivoting / optimality tests.
EPSILON = 1e-9

#: Pivot budget per phase (a safety valve, not a tuning knob).
MAX_PIVOTS = 50_000


class SimplexResult:
    """Outcome of an LP solve."""

    __slots__ = ("status", "objective", "values", "pivots")

    def __init__(
        self, status: str, objective: float, values: Tuple[float, ...], pivots: int
    ):
        self.status = status
        self.objective = objective
        self.values = values
        self.pivots = pivots

    def __repr__(self) -> str:
        return f"SimplexResult(status={self.status!r}, objective={self.objective!r})"


class _Tableau:
    """Standard-form dense tableau with the shared pivot machinery."""

    def __init__(
        self,
        objective: Sequence[float],
        rows: Sequence[Sequence[float]],
        rhs: Sequence[float],
    ):
        self.num_vars = len(objective)
        self.num_rows = len(rows)
        self.objective = objective
        total = self.num_vars + self.num_rows
        self.rows: List[List[float]] = []
        self.basis: List[int] = []
        self.artificial_cols: List[int] = []
        self.pivots = 0

        for i in range(self.num_rows):
            row = [float(v) for v in rows[i]] + [0.0] * self.num_rows + [0.0]
            row[self.num_vars + i] = 1.0
            row[-1] = float(rhs[i])
            if row[-1] < 0:
                row = [-v for v in row]
            self.rows.append(row)

        # Decide the starting basis: slack when its coefficient stayed
        # +1, otherwise an artificial column appended on the fly.
        for i in range(self.num_rows):
            if self.rows[i][self.num_vars + i] == 1.0:
                self.basis.append(self.num_vars + i)
            else:
                column = total + len(self.artificial_cols)
                self.artificial_cols.append(column)
                for j, row in enumerate(self.rows):
                    row.insert(-1, 1.0 if j == i else 0.0)
                self.basis.append(column)
        self.width = total + len(self.artificial_cols)

    # ------------------------------------------------------------------
    # Column views for the selection loops
    # ------------------------------------------------------------------
    def _column_values(self, k: int) -> List[float]:
        return [row[k] for row in self.rows]

    def _rhs_values(self) -> List[float]:
        return [row[-1] for row in self.rows]

    # ------------------------------------------------------------------
    # Row operations
    # ------------------------------------------------------------------
    def pivot(self, row_index: int, col_index: int) -> None:
        self.pivots += 1
        pivot_row = self.rows[row_index]
        factor = pivot_row[col_index]
        for k in range(len(pivot_row)):
            pivot_row[k] /= factor
        for j, row in enumerate(self.rows):
            if j == row_index:
                continue
            coeff = row[col_index]
            if abs(coeff) > EPSILON:
                for k in range(len(row)):
                    row[k] -= coeff * pivot_row[k]
        self.basis[row_index] = col_index

    def reduced_costs(self, costs: Sequence[float]) -> List[float]:
        """Reduced cost per column for a *minimization* objective."""
        rc = list(costs)
        for i, b_col in enumerate(self.basis):
            cb = costs[b_col]
            if cb == 0.0:
                continue
            row = self.rows[i]
            for k in range(self.width):
                rc[k] -= cb * row[k]
        return rc

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def run_phase(self, costs: Sequence[float]) -> str:
        """Minimize ``costs . (all columns)`` with Bland's rule."""
        budget = self.pivots + MAX_PIVOTS
        while True:
            rc = self.reduced_costs(costs)
            entering = -1
            for k in range(self.width):
                if k in self.basis:
                    continue
                if rc[k] < -EPSILON:
                    entering = k
                    break  # Bland: smallest index
            if entering < 0:
                return "optimal"
            # Ratio test (Bland ties by smallest basis index).
            column = self._column_values(entering)
            rhs = self._rhs_values()
            leaving = -1
            best_ratio = math.inf
            for i in range(self.num_rows):
                coeff = column[i]
                if coeff > EPSILON:
                    ratio = rhs[i] / coeff
                    if ratio < best_ratio - EPSILON or (
                        abs(ratio - best_ratio) <= EPSILON
                        and (leaving < 0 or self.basis[i] < self.basis[leaving])
                    ):
                        best_ratio = ratio
                        leaving = i
            if leaving < 0:
                return "unbounded"
            self.pivot(leaving, entering)
            if self.pivots > budget:
                raise RuntimeError("simplex exceeded pivot budget")

    def phase2_costs(self) -> List[float]:
        costs = [0.0] * self.width
        for k in range(self.num_vars):
            costs[k] = -float(self.objective[k])
        # Artificials must never re-enter: give them prohibitive cost.
        for col in self.artificial_cols:
            costs[col] = 1e18
        return costs

    def extract(self) -> SimplexResult:
        values = [0.0] * self.num_vars
        rhs = self._rhs_values()
        for i, col in enumerate(self.basis):
            if col < self.num_vars:
                values[col] = rhs[i]
        objective_value = sum(c * v for c, v in zip(self.objective, values))
        return SimplexResult("optimal", objective_value, tuple(values), self.pivots)


def _two_phase(tableau: _Tableau) -> SimplexResult:
    """Run the classic two phases on a fresh tableau."""
    if tableau.artificial_cols:
        phase1_costs = [0.0] * tableau.width
        for col in tableau.artificial_cols:
            phase1_costs[col] = 1.0
        status = tableau.run_phase(phase1_costs)
        if status == "unbounded":  # pragma: no cover - cannot happen
            raise RuntimeError("phase 1 unbounded")
        art_set = set(tableau.artificial_cols)
        rhs = tableau._rhs_values()
        infeasibility = sum(
            rhs[i] for i, col in enumerate(tableau.basis) if col in art_set
        )
        if infeasibility > 1e-7:
            return SimplexResult("infeasible", 0.0, (), tableau.pivots)
        # Pivot any artificial still in the basis out (degenerate rows).
        for i in range(tableau.num_rows):
            if tableau.basis[i] in art_set:
                row = tableau.rows[i]
                for k in range(tableau.num_vars + tableau.num_rows):
                    if abs(row[k]) > EPSILON and k not in tableau.basis:
                        tableau.pivot(i, k)
                        break

    status = tableau.run_phase(tableau.phase2_costs())
    if status == "unbounded":
        return SimplexResult("unbounded", math.inf, (), tableau.pivots)
    return tableau.extract()


def solve_lp(
    objective: Sequence[float],
    rows: Sequence[Sequence[float]],
    rhs: Sequence[float],
) -> SimplexResult:
    """Maximize ``objective . x`` subject to ``rows @ x <= rhs, x >= 0``.

    Returns a :class:`SimplexResult` with status ``"optimal"``,
    ``"infeasible"`` or ``"unbounded"``.
    """
    num_vars = len(objective)
    num_rows = len(rows)
    if num_rows != len(rhs):
        raise ValueError("rows / rhs length mismatch")
    for row in rows:
        if len(row) != num_vars:
            raise ValueError("ragged constraint matrix")
    if num_vars == 0:
        if all(b >= -EPSILON for b in rhs):
            return SimplexResult("optimal", 0.0, (), 0)
        return SimplexResult("infeasible", 0.0, (), 0)
    return _two_phase(_Tableau(objective, rows, rhs))
