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

Besides the one-shot :func:`solve_lp`, the module offers
:class:`IncrementalLp`: a persistent tableau for *rhs-only* re-solves of
the same matrix.  The slack columns of an optimal tableau hold the basis
inverse, so a new rhs is installed by one matrix-vector product
(``B^-1 b``), the previous basis stays dual feasible (reduced costs do
not depend on the rhs), and a few dual-simplex pivots restore primal
feasibility.  This is what makes the branch-and-bound node relaxations
and the packing engine's growing ``Omega`` capacities near-free; every
doubtful outcome falls back to a cold two-phase solve, so results are
always identical to :func:`solve_lp`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

#: Numerical tolerance for pivoting / optimality tests.
EPSILON = 1e-9

#: Pivot budget shared by the phases (a safety valve, not a tuning knob).
MAX_PIVOTS = 50_000

#: Absolute slack granted per unit of objective magnitude when a warm
#: answer is re-proved against the original data (see
#: :meth:`IncrementalLp._certified`).  Far below the branch-and-bound
#: integrality tolerance, so a certified bound can never floor to the
#: wrong integer.
CERTIFICATE_TOL = 1e-9


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

    def install_rhs(self, rhs: Sequence[float]) -> None:
        """Re-solve preparation for an rhs-only change: the slack
        columns of the tableau hold ``B^-1``, so the new basic values
        are one matrix-vector product away.  Only valid when the
        tableau was built without row negations or artificials."""
        offset = self.num_vars
        for row in self.rows:
            total = 0.0
            for j in range(self.num_rows):
                coeff = row[offset + j]
                if coeff != 0.0:
                    total += coeff * float(rhs[j])
            row[-1] = total

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def run_phase(self, costs: Sequence[float]) -> str:
        """Minimize ``costs . (all columns)`` with Bland's rule.  The
        pivot budget is relative to the current counter: a long-lived
        warm tableau accumulates pivots across many re-solves."""
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

    def run_dual_phase(self, costs: Sequence[float]) -> str:
        """Dual-simplex steps until the basic solution is primal
        feasible.  Requires dual feasibility (non-negative reduced
        costs) on entry.  Returns ``"optimal"``, ``"infeasible"`` (no
        entering column for a violated row) or ``"abandoned"`` (pivot
        budget, leave the decision to a cold re-solve)."""
        budget = self.pivots + MAX_PIVOTS
        while True:
            rhs = self._rhs_values()
            leaving = -1
            worst = -EPSILON
            for i in range(self.num_rows):
                if rhs[i] < worst:
                    worst = rhs[i]
                    leaving = i
            if leaving < 0:
                return "optimal"
            rc = self.reduced_costs(costs)
            entering = -1
            best_ratio = math.inf
            leaving_row = self.rows[leaving]
            for k in range(self.width):
                if k in self.basis:
                    continue
                coeff = leaving_row[k]
                if coeff < -EPSILON:
                    ratio = rc[k] / -coeff
                    if ratio < best_ratio - EPSILON or (
                        abs(ratio - best_ratio) <= EPSILON
                        and (entering < 0 or k < entering)
                    ):
                        best_ratio = ratio
                        entering = k
            if entering < 0:
                return "infeasible"
            self.pivot(leaving, entering)
            if self.pivots > budget:
                return "abandoned"

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


class IncrementalLp:
    """Persistent simplex state for rhs-only re-solves of one matrix.

    ``maximize c . x  subject to  A x <= b,  x >= 0`` with ``A`` and
    ``c`` fixed and ``b`` supplied per :meth:`solve`.  The first solve
    (and every fallback) runs the cold two-phase path; subsequent
    solves reuse the final tableau: the new rhs is installed through the
    basis inverse and repaired with dual-simplex pivots.  Every outcome
    the warm path is not certain about — dual feasibility lost to
    roundoff, pivot budget, a claimed infeasibility — is re-derived
    cold, so the answers are exactly :func:`solve_lp`'s.

    A long-lived tableau is a product-form basis inverse: hundreds of
    accumulated pivots can leave it internally consistent yet wrong, so
    no warm ``optimal`` is *trusted* either.  Each one must present an
    optimality certificate checked against the pristine
    ``objective``/``rows`` data (:meth:`_certified`): the primal point
    must be feasible, the dual prices must be feasible, and the duality
    gap must close.  Certificates are immune to tableau drift — a
    failure triggers a cold re-solve, which also rebuilds the
    factorization, healing the state for subsequent warm solves.
    """

    def __init__(self, objective: Sequence[float], rows: Sequence[Sequence[float]]):
        self.objective = [float(c) for c in objective]
        self.rows = [list(row) for row in rows]
        for row in self.rows:
            if len(row) != len(self.objective):
                raise ValueError("ragged constraint matrix")
        self._tableau: Optional[_Tableau] = None
        #: Warm / cold solve counters (performance diagnostics).
        self.warm_solves = 0
        self.cold_solves = 0

    def _cold(self, rhs: Sequence[float]) -> SimplexResult:
        self.cold_solves += 1
        tableau = _Tableau(self.objective, self.rows, rhs)
        result = _two_phase(tableau)
        # Only an optimal, artificial-free tableau can be reused: the
        # rhs install relies on the slack columns being exactly B^-1.
        # A non-optimal outcome keeps the previously retained tableau —
        # infeasibility is a property of this rhs, not of the basis, so
        # the next rhs may still warm-start (dual pivots preserve both
        # the tableau invariant and dual feasibility).
        if result.status == "optimal" and not tableau.artificial_cols:
            self._tableau = tableau
        return result

    def _dual_values(self) -> List[float]:
        """Dual prices ``y = c_B . B^-1`` read off the retained tableau.

        With the phase-2 (minimization) costs, the reduced cost of
        slack column ``j`` is exactly the price of row ``j`` in the
        original maximization, so no extra factorization work is
        needed.  The values inherit whatever roundoff the tableau has
        accumulated — :meth:`_certified` checks them against the clean
        data, so a drifted vector simply fails to certify.
        """
        tableau = self._tableau
        reduced = tableau.reduced_costs(tableau.phase2_costs())
        offset = tableau.num_vars
        return [float(reduced[offset + j]) for j in range(tableau.num_rows)]

    def _certified(
        self, result: SimplexResult, rhs: Sequence[float], duals: Sequence[float]
    ) -> bool:
        """Prove a warm ``optimal`` against the original data.

        ``result.values`` must be primal feasible, ``duals`` must be
        dual feasible (``A^T y >= c``, ``y >= 0``) and the duality gap
        ``b . y - c . x`` must close — all measured on the pristine
        ``objective``/``rows``/``rhs``, never on the drifting tableau.
        When every check passes, weak duality brackets the true optimum
        inside ``[c . x, b . y]``, so the answer is right no matter how
        degraded the factorization is.
        """
        values = result.values
        tol = CERTIFICATE_TOL * (1.0 + abs(result.objective))
        if any(v < -tol for v in values):
            return False
        for row, cap in zip(self.rows, rhs):
            used = 0.0
            for coeff, value in zip(row, values):
                if coeff != 0.0:
                    used += coeff * value
            if used > float(cap) + tol:
                return False
        if any(y < -tol for y in duals):
            return False
        for k, price in enumerate(self.objective):
            covered = 0.0
            for y, row in zip(duals, self.rows):
                coeff = row[k]
                if coeff != 0.0:
                    covered += y * coeff
            if covered < price - tol:
                return False
        bound = sum(y * float(cap) for y, cap in zip(duals, rhs))
        return bound - result.objective <= tol

    def solve(self, rhs: Sequence[float]) -> SimplexResult:
        """Maximize against capacities ``rhs``."""
        if len(rhs) != len(self.rows):
            raise ValueError("rows / rhs length mismatch")
        if not self.objective:
            return solve_lp(self.objective, self.rows, rhs)
        tableau = self._tableau
        if tableau is None:
            return self._cold(rhs)
        tableau.install_rhs(rhs)
        costs = tableau.phase2_costs()
        status = tableau.run_dual_phase(costs)
        if status == "infeasible" or status == "abandoned":
            # "infeasible" is trustworthy in exact arithmetic but this
            # tableau has accumulated roundoff; re-derive cold.
            return self._cold(rhs)
        self.warm_solves += 1
        # Polish with the primal phase: normally zero pivots, but it
        # re-checks optimality after the dual repairs and absorbs any
        # dual-tolerance slack.
        try:
            status = tableau.run_phase(costs)
        except RuntimeError:
            return self._cold(rhs)
        if status == "unbounded":
            # An aged factorization can hallucinate unboundedness just
            # as it can a wrong optimum; drop it and re-derive cold.
            self._tableau = None
            return self._cold(rhs)
        result = tableau.extract()
        if self._certified(result, rhs, self._dual_values()):
            return result
        return self._cold(rhs)

    def solve_many(self, rhs_list: Sequence[Sequence[float]]) -> List[SimplexResult]:
        """Maximize against many capacity vectors, in order — exactly
        ``[self.solve(rhs) for rhs in rhs_list]``.  Branch-and-bound
        resolves a whole frontier of open-node relaxations through it."""
        return [self.solve(rhs) for rhs in rhs_list]
