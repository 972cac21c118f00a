"""Well-formedness checks of event models.

The pseudo-inverse duality of ``eta_plus`` and ``delta_minus``, and the
super-additivity of ``delta_minus``, checked pointwise up to a window
count.  The arrival-model tests run them over every model family and
over the curve algebra's combinators.
"""

from __future__ import annotations

import math

from repro.arrivals import EventModel


def check_duality(model: EventModel, up_to: int = 32) -> None:
    """Assert that ``eta_plus`` and ``delta_minus`` are proper
    pseudo-inverses of each other for ``model``.

    For every ``k`` in ``[1, up_to]`` we must have:

    * ``eta_plus(delta_minus(k)) <= k - 1``  (a window that *just* fails
      to strictly contain the k-th spacing holds at most k-1 events), and
    * ``eta_plus(delta_minus(k) + 1) >= k``  (open the window slightly and
      k events fit).

    The second check is skipped when ``delta_minus(k)`` is infinite.
    """
    for k in range(2, up_to + 1):
        d = model.delta_minus(k)
        if math.isinf(d):
            continue
        got = model.eta_plus(d)
        if d > 0 and got > k - 1:
            raise AssertionError(f"eta_plus(delta_minus({k})={d}) = {got} > {k - 1}")
        got_open = model.eta_plus(d + 1)
        if got_open < k:
            # Only a genuine violation if the curve is strictly increasing
            # at k; plateaus (several k with the same distance) are fine.
            if model.delta_minus(k + 1) > d:
                raise AssertionError(
                    f"eta_plus(delta_minus({k}) + 1) = {got_open} < {k}"
                )


def superadditive_closure_defect(model: EventModel, up_to: int = 24) -> float:
    """Largest violation of super-additivity of ``delta_minus``.

    A well-formed minimum-distance function satisfies
    ``delta_minus(i + j - 1) >= delta_minus(i) + delta_minus(j)`` (gluing
    two densest windows shares one event).  Returns the largest positive
    defect found, 0.0 if the curve is super-additive up to ``up_to``.
    """
    worst = 0.0
    for i in range(2, up_to + 1):
        for j in range(2, up_to + 2 - i):
            lhs = model.delta_minus(i + j - 1)
            rhs = model.delta_minus(i) + model.delta_minus(j)
            if math.isinf(lhs) or math.isinf(rhs):
                continue
            worst = max(worst, rhs - lhs)
    return worst
