"""Activation-stream generation from event models.

The simulator consumes explicit activation timestamps.  This module
derives them from :class:`~repro.arrivals.EventModel` objects in three
flavours: strictly periodic, *worst-case* (as dense as the model allows,
the critical-instant pattern), and randomized sporadic.

Deterministic streams are generated in batch: an O(log n) galloping
search over the model's staircase finds the event count that fits the
horizon, then one ``delta_minus_many`` / ``delta_plus_many`` call
materializes all timestamps (a single numpy gather over the compiled
:class:`~repro.arrivals.staircase.StaircaseKernel`), evaluating the
identical float64 operations as the scalar ``delta_minus``.
Randomized streams consume a Python ``random.Random`` sequence and stay
scalar by construction.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List

from ..arrivals import EventModel

#: Event-count ceiling of any generated stream, mirroring the historic
#: per-activation generator guard.
MAX_STREAM_EVENTS = 10_000_000


def _count_events(
    spacing: Callable[[int], float], horizon: float, offset: float
) -> int:
    """Largest ``n`` with ``offset + spacing(n) <= horizon`` (0 when even
    the first event misses the horizon).

    ``spacing`` must be non-decreasing in the event count; exponential
    galloping plus binary search probe O(log n) scalar values, and every
    probe applies the same ``offset + spacing(k)`` float operation as
    the materialized stream, so the count is exact.
    """
    if offset + spacing(1) > horizon:
        return 0
    lo, hi = 1, 2
    while offset + spacing(hi) <= horizon:
        lo = hi
        hi *= 2
        if lo > MAX_STREAM_EVENTS:
            raise OverflowError("activation stream too dense")
    # Invariant: offset + spacing(lo) <= horizon < offset + spacing(hi).
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if offset + spacing(mid) <= horizon:
            lo = mid
        else:
            hi = mid
    if lo > MAX_STREAM_EVENTS:
        raise OverflowError("activation stream too dense")
    return lo


def _materialize(values, offset: float) -> List[float]:
    """``offset + value`` per event, as a plain list of floats."""
    if hasattr(values, "tolist"):
        values = values.tolist()
    return [offset + value for value in values]


def periodic_stream(
    model: EventModel, horizon: float, offset: float = 0.0
) -> List[float]:
    """Activations at the model's *average* pace: event ``i`` at
    ``offset + delta_plus(i+1)`` when finite, else at
    ``offset + delta_minus(i+1)`` (densest legal spacing)."""
    if math.isinf(model.delta_plus(2)):
        # delta_plus(1) == delta_minus(1) == 0, so the sporadic fallback
        # is the worst-case stream from the first event on.
        return worst_case_stream(model, horizon, offset)
    count = _count_events(model.delta_plus, horizon, offset)
    if count == 0:
        return []
    return _materialize(model.delta_plus_many(range(1, count + 1)), offset)


def worst_case_stream(
    model: EventModel, horizon: float, offset: float = 0.0
) -> List[float]:
    """The densest stream the model admits: event ``i`` (0-based) at
    ``offset + delta_minus(i + 1)``.

    This is the critical-instant pattern used to stress the analysis
    bounds: all sources releasing like this from a common origin
    maximizes interference.
    """
    kernel = model.staircase_kernel()
    spacing = kernel.delta if kernel is not None else model.delta_minus
    count = _count_events(spacing, horizon, offset)
    if count == 0:
        return []
    return _materialize(model.delta_minus_many(range(1, count + 1)), offset)


def random_stream(
    model: EventModel,
    horizon: float,
    rng: random.Random,
    slack_scale: float = 0.5,
    offset: float = 0.0,
) -> List[float]:
    """A randomized legal stream: consecutive gaps are the model's
    minimum spacing inflated by an exponential slack of mean
    ``slack_scale * minimum_gap``.

    The result always satisfies ``delta_minus`` pair-wise; for
    super-additive curves the generator re-checks the full prefix and
    pushes events right when needed, so the stream is legal for the
    complete curve, not just adjacent pairs.
    """
    if slack_scale < 0:
        raise ValueError("slack_scale must be non-negative")
    times: List[float] = []
    t = offset + rng.random() * model.delta_minus(2)
    count = 0
    while t <= horizon:
        # Enforce the whole delta_minus prefix against earlier events.
        for back in range(2, min(len(times), 64) + 2):
            earliest = times[-(back - 1)] + model.delta_minus(back)
            if t < earliest:
                t = earliest
        if t > horizon:
            break
        times.append(t)
        count += 1
        min_gap = model.delta_minus(len(times) + 1) - model.delta_minus(len(times))
        if min_gap <= 0:
            min_gap = model.delta_minus(2)
        if min_gap <= 0:
            raise ValueError("model admits unbounded density")
        t = times[-1] + min_gap * (
            1.0 + rng.expovariate(1.0 / slack_scale) if slack_scale > 0 else 1.0
        )
        if count > MAX_STREAM_EVENTS:
            raise OverflowError("activation stream too dense")
    return times


def single_burst(model: EventModel, count: int, offset: float = 0.0) -> List[float]:
    """Exactly ``count`` activations packed as densely as the model
    allows, starting at ``offset`` — handy for injecting one overload
    burst into a simulation."""
    return _materialize(model.delta_minus_many(range(1, count + 1)), offset)
