"""Numeric paths of the library and the shared Kleene solvers.

Each layer has one fixed numeric path, picked by end-to-end
measurement: the analysis (arrival curves, the Theorem 1 fixed points,
the Def. 10 check and the Theorem 3 packing ILP) runs in pure Python,
whose per-call cost beats numpy on the small vectors these analyses
evaluate; the simulator's event calendar (:mod:`repro.sim.calendar`)
runs on numpy, which pays off at soak scale.  :func:`kernel_name`
names that combination for environment reports.

The masked Kleene solvers below advance many independent monotone
fixed points as one batch: the 2-D one behind the Def. 10 check, the
1-D one behind the response-time baseline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

#: The numeric paths of this build (see the module docstring).
KERNEL = "python-analysis+numpy-sim"


def kernel_name() -> str:
    """The numeric paths of this build, for environment reports."""
    return KERNEL


# ----------------------------------------------------------------------
# Masked Kleene solvers
# ----------------------------------------------------------------------
def solve_monotone_fixed_points(
    seeds: Sequence[float],
    totals_many,
    totals_one,
    *,
    max_window: float,
    max_iterations: int,
):
    """Batched Kleene iteration of a pointwise-monotone operator.

    Every coordinate ``i`` starts from ``seeds[i]`` (a sound lower
    bound on its least fixed point) and advances through
    ``horizon <- total`` steps until ``total <= horizon``; converged
    coordinates are masked out so one sweep of ``totals_many`` serves
    exactly the still-active ones.  Because the operator is monotone,
    every sound seed converges to exactly the least fixed point, so the
    returned values are bit-identical to a coordinate-at-a-time scalar
    iteration.

    ``totals_many(indices, horizons)`` evaluates the operator for the
    given coordinate indices at the given horizons and returns the
    totals.  When it raises ``OverflowError`` the sweep falls back to
    ``totals_one(index, horizon)`` per coordinate so the offender can be
    isolated instead of poisoning the batch.

    Returns ``(values, iterations, failures)``: per-coordinate fixed
    points (``None`` where failed), evaluation counts, and failure
    reasons (``None``, or a string starting with ``"window"``,
    ``"iterations"`` or ``"overflow:"``).
    """
    n = len(seeds)
    values: List[Optional[float]] = [None] * n
    iterations = [0] * n
    failures: List[Optional[str]] = [None] * n
    active = list(range(n))
    horizons = [float(seed) for seed in seeds]
    while active:
        probe = [horizons[i] for i in active]
        try:
            totals = totals_many(active, probe)
        except OverflowError:
            totals = []
            still = []
            for i, horizon in zip(active, probe):
                try:
                    totals.append(totals_one(i, horizon))
                    still.append(i)
                except OverflowError as exc:
                    iterations[i] += 1
                    failures[i] = f"overflow: {exc}"
            active = still
        next_active = []
        for i, total in zip(active, totals):
            total = float(total)
            iterations[i] += 1
            if total <= horizons[i]:
                values[i] = total
            elif total > max_window:
                failures[i] = "window"
            elif iterations[i] > max_iterations:
                failures[i] = "iterations"
            else:
                horizons[i] = total
                next_active.append(i)
        active = next_active
    return values, iterations, failures


def solve_monotone_fixed_points_2d(
    seeds: Sequence[Sequence[float]],
    totals_many,
    totals_one,
    *,
    max_window: float,
    max_iterations: int,
    stop_row=None,
):
    """2-D masked Kleene iteration: an ``(S, Q)`` matrix of independent
    monotone fixed points advanced as one batch.

    Row ``r`` holds ``len(seeds[r])`` coordinates; cell ``(r, c)``
    starts from ``seeds[r][c]`` (a sound lower bound on its least fixed
    point) and advances through ``horizon <- total`` steps until
    ``total <= horizon``, exactly like the 1-D
    :func:`solve_monotone_fixed_points` — every cell iterates
    independently, so batching across rows never changes any cell's
    horizon sequence and the results stay bit-identical to per-row 1-D
    or cell-at-a-time scalar iteration.

    ``totals_many(cells, horizons)`` evaluates the operator for the
    given ``(row, col)`` cells at the given horizons and returns the
    totals.  When it raises ``OverflowError`` the sweep falls back to
    ``totals_one(row, col, horizon)`` per cell so the offender can be
    isolated instead of poisoning the batch.

    ``stop_row(row, col, total)`` (optional) is checked on every fresh
    total *before* the convergence test; returning true settles the
    whole row — its remaining cells are masked out of all later sweeps
    (the Def. 10 early exit: one missed deadline decides the
    signature).  Cells of a stopped row keep whatever value/failure
    they had already reached.

    Returns ``(values, iterations, failures, stopped)``: three
    row-major 2-D lists shaped like ``seeds`` (``values[r][c]`` is
    ``None`` where unconverged, ``failures[r][c]`` is ``None`` or a
    string starting with ``"window"``, ``"iterations"`` or
    ``"overflow:"``) plus one ``stopped`` flag per row.
    """
    shape = [len(row) for row in seeds]
    values: List[List[Optional[float]]] = [[None] * width for width in shape]
    iterations: List[List[int]] = [[0] * width for width in shape]
    failures: List[List[Optional[str]]] = [[None] * width for width in shape]
    stopped: List[bool] = [False] * len(shape)
    horizons: List[List[float]] = [[float(seed) for seed in row] for row in seeds]
    active: List[Tuple[int, int]] = [
        (r, c) for r, width in enumerate(shape) for c in range(width)
    ]
    while active:
        probe = [horizons[r][c] for r, c in active]
        try:
            totals = totals_many(active, probe)
        except OverflowError:
            totals = []
            still = []
            for (r, c), horizon in zip(active, probe):
                try:
                    totals.append(totals_one(r, c, horizon))
                    still.append((r, c))
                except OverflowError as exc:
                    iterations[r][c] += 1
                    failures[r][c] = f"overflow: {exc}"
            active = still
        next_active = []
        for (r, c), total in zip(active, totals):
            if stopped[r]:
                continue
            total = float(total)
            iterations[r][c] += 1
            if stop_row is not None and stop_row(r, c, total):
                stopped[r] = True
            elif total <= horizons[r][c]:
                values[r][c] = total
            elif total > max_window:
                failures[r][c] = "window"
            elif iterations[r][c] > max_iterations:
                failures[r][c] = "iterations"
            else:
                horizons[r][c] = total
                next_active.append((r, c))
        active = [(r, c) for r, c in next_active if not stopped[r]]
    return values, iterations, failures, stopped
