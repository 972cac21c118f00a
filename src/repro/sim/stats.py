"""Trace statistics: latency distributions, overshoot and settling time.

Reference [6] of the paper (Kumar & Thiele, RTSS'12) quantifies rare
timing events through *overshoot* (how far latencies exceed the typical
level after an overload activation) and *settling time* (how long until
they return).  This module computes both from simulation traces, plus
the usual distribution statistics, giving the simulator an evaluation
vocabulary matching the weakly-hard literature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .engine import SimulationResult


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of a chain's observed latencies."""

    chain: str
    count: int
    minimum: float
    maximum: float
    mean: float
    percentiles: Dict[int, float]

    @classmethod
    def from_samples(
        cls,
        chain: str,
        samples: Sequence[float],
        marks: Sequence[int] = (50, 90, 95, 99),
    ) -> "LatencyStats":
        if len(samples) == 0:
            raise ValueError(f"no finished instances for chain {chain!r}")
        ordered = sorted(samples)
        return cls(
            chain=chain,
            count=len(ordered),
            minimum=ordered[0],
            maximum=ordered[-1],
            mean=sum(ordered) / len(ordered),
            percentiles={mark: percentile(ordered, mark) for mark in marks},
        )


def percentile(ordered: Sequence[float], mark: int) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not ordered:
        raise ValueError("empty sample")
    if not 0 <= mark <= 100:
        raise ValueError(f"percentile mark {mark} outside [0, 100]")
    if mark == 0:
        return ordered[0]
    rank = math.ceil(mark / 100 * len(ordered))
    return ordered[rank - 1]


def latency_stats(
    result: SimulationResult, chain: str, marks: Sequence[int] = (50, 90, 95, 99)
) -> LatencyStats:
    """Distribution summary of ``chain``'s latencies in ``result``."""
    return LatencyStats.from_samples(chain, result.latencies(chain), marks)


@dataclass(frozen=True)
class OvershootReport:
    """Effect of one overload activation on a victim chain.

    Attributes
    ----------
    overload_time:
        When the overload chain was activated.
    overshoot:
        Peak victim latency in the disturbed episode minus the typical
        (pre-overload) worst latency; 0 when nothing rose.
    settling_instances:
        Number of victim instances from the overload activation until
        latencies return to the typical level (the discrete settling
        time of Kumar & Thiele).
    peak_latency:
        The worst latency observed during the episode.
    """

    overload_time: float
    overshoot: float
    settling_instances: int
    peak_latency: float


def overshoot_report(
    result: SimulationResult,
    victim: str,
    overload: str,
    typical_level: Optional[float] = None,
) -> List[OvershootReport]:
    """One report per overload activation in the trace.

    ``typical_level`` defaults to the worst latency observed *before
    the first* overload activation (the trace's own typical regime);
    pass the analytical typical WCL for a model-based reference.
    """
    victims = [rec for rec in result.instances[victim] if rec.latency is not None]
    if not victims:
        raise ValueError(f"no finished instances of {victim!r}")
    overload_times = [rec.activation for rec in result.instances[overload]]
    if typical_level is None:
        first = overload_times[0] if overload_times else math.inf
        baseline = [rec.latency for rec in victims if rec.activation < first]
        typical_level = max(baseline) if baseline else 0.0

    reports: List[OvershootReport] = []
    for index, start in enumerate(overload_times):
        end = (
            overload_times[index + 1] if index + 1 < len(overload_times) else math.inf
        )
        episode = [rec for rec in victims if start <= rec.activation < end]
        if not episode:
            reports.append(OvershootReport(start, 0.0, 0, 0.0))
            continue
        peak = max(rec.latency for rec in episode)
        settled = 0
        for position, rec in enumerate(episode):
            if rec.latency > typical_level:
                settled = position + 1
        reports.append(
            OvershootReport(
                overload_time=start,
                overshoot=max(0.0, peak - typical_level),
                settling_instances=settled,
                peak_latency=peak,
            )
        )
    return reports


def max_settling_time(
    result: SimulationResult,
    victim: str,
    overload: str,
    typical_level: Optional[float] = None,
) -> int:
    """Largest observed settling time (in victim instances) over all
    overload activations."""
    reports = overshoot_report(result, victim, overload, typical_level)
    return max((r.settling_instances for r in reports), default=0)


def miss_streaks(result: SimulationResult, chain: str) -> List[int]:
    """Lengths of consecutive-miss runs — the quantity the
    'no more than N consecutive misses' weakly-hard constraint bounds.

    Vectorized as an edge detection over the padded flag vector.
    """
    arr = np.asarray(result.miss_flags(chain), dtype=np.int8)
    edges = np.diff(np.concatenate(([0], arr, [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    return (ends - starts).tolist()
