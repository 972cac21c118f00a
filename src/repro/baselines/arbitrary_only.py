"""Ablation baseline: latency analysis without the segment machinery.

Treats *every* interfering chain as arbitrarily interfering — i.e. drops
the deferred-chain case distinction of Theorem 1 (lines 4 and 5) and
charges ``eta_plus(B) * C_a`` for all of them.  Sound but pessimistic;
the gap to :func:`repro.analysis.analyze_latency` measures the value of
the segment analysis (ablation A1 in DESIGN.md).  Kept deliberately as
the simple one-``q``-at-a-time scalar loop: it is an ablation
*reference*, not a hot path.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..analysis.busy_window import MAX_ITERATIONS, MAX_WINDOW, BusyTimeBreakdown
from ..analysis.exceptions import BusyWindowDivergence
from ..analysis.latency import MAX_Q, LatencyResult
from ..model import System, TaskChain


def busy_time_arbitrary(
    system: System, target: TaskChain, q: int, *, include_overload: bool = True
) -> BusyTimeBreakdown:
    """Theorem 1 with every interferer treated as arbitrary."""
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    interferers = [
        chain
        for chain in system.others(target)
        if include_overload or not chain.overload
    ]
    base = q * target.total_wcet
    header_cost = sum(t.wcet for t in target.header_prefix())

    def evaluate(horizon: float) -> BusyTimeBreakdown:
        self_interference = 0.0
        if target.is_asynchronous and header_cost > 0:
            backlog = max(0, target.activation.eta_plus(horizon) - q)
            self_interference = backlog * header_cost
        arbitrary = {
            chain.name: chain.activation.eta_plus(horizon) * chain.total_wcet
            for chain in interferers
        }
        total = base + self_interference + sum(arbitrary.values())
        return BusyTimeBreakdown(
            q=q,
            base=base,
            self_interference=self_interference,
            arbitrary=arbitrary,
            total=total,
        )

    horizon = base if base > 0 else math.ulp(0.0)
    iterations = 0
    while True:
        current = evaluate(horizon)
        iterations += 1
        if current.total <= horizon:
            return current
        if current.total > MAX_WINDOW or iterations > MAX_ITERATIONS:
            raise BusyWindowDivergence(
                target.name, q, "arbitrary-only analysis diverged"
            )
        horizon = current.total


def analyze_latency_arbitrary(
    system: System,
    target: TaskChain,
    *,
    include_overload: bool = True,
    max_q: int = MAX_Q,
) -> LatencyResult:
    """Theorem 2 on top of the arbitrary-only busy time."""
    busy: List[float] = []
    latencies: List[float] = []
    q = 0
    while True:
        q += 1
        if q > max_q:
            raise BusyWindowDivergence(
                target.name, q, "no busy-window closure (arbitrary-only)"
            )
        breakdown = busy_time_arbitrary(
            system, target, q, include_overload=include_overload
        )
        busy.append(breakdown.total)
        latencies.append(breakdown.total - target.activation.delta_minus(q))
        if breakdown.total <= target.activation.delta_minus(q + 1):
            break
    wcl = max(latencies)
    return LatencyResult(
        chain_name=target.name,
        busy_times=tuple(busy),
        latencies=tuple(latencies),
        max_queue=q,
        wcl=wcl,
        critical_q=latencies.index(wcl) + 1,
        include_overload=include_overload,
    )


def pessimism_ratio(system: System, target: TaskChain) -> Optional[float]:
    """``WCL_arbitrary / WCL_segment_aware`` for one chain; ``None`` when
    either analysis diverges.  >= 1 by construction."""
    from ..analysis.latency import analyze_latency

    try:
        aware = analyze_latency(system, target)
        blunt = analyze_latency_arbitrary(system, target)
    except BusyWindowDivergence:
        return None
    if aware.wcl <= 0:
        return None
    return blunt.wcl / aware.wcl
