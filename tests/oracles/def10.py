"""The textbook Def. 10 check: one ``q`` at a time, one scalar Theorem 1
window evaluation per Kleene step.

Oracle of the per-signature check behind ``_build_verdict``
(``verdict.exact_check``): a combination with per-chain cost
``signature`` is unschedulable when, for some ``q`` of the busy window,
the Eq. (3) fixed point (the typical interference plus the
combination's overload cost) misses the deadline, or when that fixed
point does not exist.  The production check runs the same loop over
the typical interference structure it shares with the rest of the
analysis; this one re-evaluates every window through the public
scalar ``busy_time``.
"""

from __future__ import annotations

import math

from repro.analysis import busy_time
from repro.analysis.exceptions import BusyWindowDivergence


def exact_unschedulable_scalar(system, target, deltas, signature) -> bool:
    """Def. 10 for one cost signature (``((chain_name, weight), ...)``)
    over the ``q -> delta_minus(q)`` windows of ``deltas``."""
    deadline = target.deadline
    for q in deltas:
        try:
            typical_total = busy_time(system, target, q, include_overload=False).total
        except BusyWindowDivergence:
            return True  # typical part diverges: no fixed point
        horizon = max(typical_total, q * target.total_wcet) or math.ulp(0.0)
        for _ in range(10_000):
            typical = busy_time(
                system, target, q, include_overload=False, window=horizon
            ).total
            cost = sum(
                weight * max(1, system[name].activation.eta_plus(horizon))
                for name, weight in signature
            )
            total = typical + cost
            if total <= horizon:
                break
            if total - deltas[q] > deadline:
                return True  # already past the deadline; miss
            horizon = total
        else:
            return True  # no fixed point: treat as unschedulable
        if total - deltas[q] > deadline:
            return True
    return False
