"""Periodic and periodic-with-jitter activation models."""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .base import EventModel, require_finite
from .staircase import (
    COMPILE_LIMIT,
    StaircaseKernel,
    integral_kernel,
    prefix_points,
)


class PeriodicModel(EventModel):
    """Events every ``period`` time units, released with up to ``jitter``
    deviation, but never closer than ``min_distance``.

    This is the classical three-parameter (P, J, d) event model of
    Compositional Performance Analysis.  With ``jitter == 0`` it is a
    strictly periodic stream; with ``jitter > 0`` events may bunch up to a
    spacing of ``max(period - jitter, min_distance)``.

    Curves (all standard):

    * ``eta_plus(dt)  = min(ceil((dt + J) / P), ceil(dt / d))``
    * ``delta_minus(k) = max((k - 1) * P - J, (k - 1) * d)``
    * ``delta_plus(k)  = (k - 1) * P + J``
    """

    def __init__(
        self, period: float, jitter: float = 0.0, min_distance: float = 0.0
    ):
        require_finite(period, "period")
        require_finite(jitter, "jitter")
        require_finite(min_distance, "min_distance")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if min_distance < 0:
            raise ValueError(f"min_distance must be non-negative, got {min_distance}")
        if min_distance > period:
            raise ValueError(
                f"min_distance cannot exceed the period ({min_distance} > {period})"
            )
        if jitter >= period and min_distance == 0:
            raise ValueError(
                "jitter >= period requires a positive min_distance to keep "
                "eta_plus finite over small windows"
            )
        self.period = period
        self.jitter = jitter
        self.min_distance = min_distance

    # -- closed forms ---------------------------------------------------
    def delta_minus(self, k: int) -> float:
        if k <= 1:
            return 0.0 if isinstance(self.period, float) else 0
        spread = (k - 1) * self.period - self.jitter
        floor = (k - 1) * self.min_distance
        return max(spread, floor, 0)

    def delta_plus(self, k: int) -> float:
        if k <= 1:
            return 0.0 if isinstance(self.period, float) else 0
        return (k - 1) * self.period + self.jitter

    def delta_plus_many(self, ks):
        arr = np.asarray(ks, dtype=np.int64)
        # Same closed form and operation order as delta_plus, evaluated
        # elementwise, so the values are bit-identical to the scalar
        # loop for float parameters (and numerically equal for ints).
        out = (arr - 1) * self.period + self.jitter
        return np.where(arr <= 1, 0.0, out)

    def _compile_kernel(self) -> Optional[StaircaseKernel]:
        """Jittered streams bunch events until the ``(k-1)(P-d) >= J``
        regime, after which the staircase climbs by one period per
        event: the breakpoint prefix covers the bunching, the tail is
        ``(1 event, P)``.

        With ``jitter == 0`` (or ``period == min_distance``) the tail
        expression is float-identical to :meth:`delta_minus`, so the
        kernel is exact for any parameters.  A jittered prefix is only
        exact when the staircase is integral — the kernel's
        ``breaks[L-1] + c * P`` associates differently from the model's
        ``(k-1) * P - J`` and can drift an ulp across a boundary
        otherwise (an *under*-count there would be unsound), so
        non-integral jittered models keep the generic search over the
        authoritative ``delta_minus``."""
        period, jitter, floor = self.period, self.jitter, self.min_distance
        if jitter == 0 or period <= floor:
            return StaircaseKernel(prefix_points(self, 2), 1, period)
        length = 2 + math.ceil(jitter / (period - floor))
        if length > COMPILE_LIMIT:
            return None
        kernel = StaircaseKernel(prefix_points(self, length), 1, period)
        if not integral_kernel(kernel):
            return None
        return kernel

    def _eta_plus_unbounded(self) -> int:
        raise OverflowError("eta_plus(inf) is unbounded for a periodic model")

    def eta_minus(self, dt: float) -> int:
        if dt < 0:
            return 0
        return max(0, int(math.floor((dt - self.jitter) / self.period)))

    def rate(self) -> float:
        return 1.0 / self.period

    def __repr__(self) -> str:
        parts = [f"period={self.period!r}"]
        if self.jitter:
            parts.append(f"jitter={self.jitter!r}")
        if self.min_distance:
            parts.append(f"min_distance={self.min_distance!r}")
        return f"PeriodicModel({', '.join(parts)})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PeriodicModel)
            and self.period == other.period
            and self.jitter == other.jitter
            and self.min_distance == other.min_distance
        )

    def __hash__(self) -> int:
        return hash((PeriodicModel, self.period, self.jitter, self.min_distance))
