"""Sporadic activation models (no upper bound on event spacing)."""

from __future__ import annotations

import math

from .base import EventModel, require_finite
from .staircase import StaircaseKernel, prefix_points


class SporadicModel(EventModel):
    """Events arrive with at least ``min_distance`` between consecutive
    events and no further constraint.

    This is the model of the case study's overload chains
    (``sigma_a[700]``, ``sigma_b[600]`` in Fig. 4: ``delta_minus(2)`` is
    the bracketed number).  ``delta_plus`` is infinite — a sporadic source
    may stay silent forever — so ``eta_minus`` is identically 0.
    """

    def __init__(self, min_distance: float):
        require_finite(min_distance, "min_distance")
        if min_distance <= 0:
            raise ValueError(f"min_distance must be positive, got {min_distance}")
        self.min_distance = min_distance

    def delta_minus(self, k: int) -> float:
        if k <= 1:
            return 0.0 if isinstance(self.min_distance, float) else 0
        return (k - 1) * self.min_distance

    def delta_plus(self, k: int) -> float:
        if k <= 1:
            return 0
        return math.inf

    def _compile_kernel(self) -> StaircaseKernel:
        return StaircaseKernel(prefix_points(self, 2), 1, self.min_distance)

    def _eta_plus_unbounded(self) -> int:
        raise OverflowError("eta_plus(inf) is unbounded for a sporadic model")

    def eta_minus(self, dt: float) -> int:
        return 0

    def rate(self) -> float:
        return 1.0 / self.min_distance

    def __repr__(self) -> str:
        return f"SporadicModel(min_distance={self.min_distance!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SporadicModel)
            and self.min_distance == other.min_distance
        )

    def __hash__(self) -> int:
        return hash((SporadicModel, self.min_distance))


class SporadicBurstModel(EventModel):
    """Bursty sporadic events: at most ``burst`` events with an inner
    spacing of ``inner_distance``, after which the stream must pause so
    that any ``burst + 1`` consecutive events span at least
    ``outer_distance``.

    This two-level model is typical for interrupt service routines and
    recovery chains — exactly the overload sources the paper names — and
    is the natural shape for the (unpublished) industrial overload curves
    of the case study.  Formally::

        delta_minus(k) = floor((k - 1) / burst) * outer_distance
                         + ((k - 1) mod burst) * inner_distance
    """

    def __init__(self, inner_distance: float, burst: int, outer_distance: float):
        require_finite(inner_distance, "inner_distance")
        require_finite(burst, "burst")
        require_finite(outer_distance, "outer_distance")
        if inner_distance <= 0:
            raise ValueError("inner_distance must be positive")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        if outer_distance < burst * inner_distance:
            raise ValueError(
                "outer_distance must be at least burst * inner_distance "
                f"({outer_distance} < {burst * inner_distance})"
            )
        self.inner_distance = inner_distance
        self.burst = burst
        self.outer_distance = outer_distance

    def delta_minus(self, k: int) -> float:
        if k <= 1:
            return 0
        full, rem = divmod(k - 1, self.burst)
        return full * self.outer_distance + rem * self.inner_distance

    def delta_plus(self, k: int) -> float:
        if k <= 1:
            return 0
        return math.inf

    def _compile_kernel(self) -> StaircaseKernel:
        """One burst of ``burst`` events per ``outer_distance``: the
        prefix stores the first burst, the tail repeats it."""
        return StaircaseKernel(
            prefix_points(self, self.burst + 1), self.burst, self.outer_distance
        )

    def eta_minus(self, dt: float) -> int:
        return 0

    def rate(self) -> float:
        return self.burst / self.outer_distance

    def __repr__(self) -> str:
        return (
            f"SporadicBurstModel(inner_distance={self.inner_distance!r}, "
            f"burst={self.burst!r}, outer_distance={self.outer_distance!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SporadicBurstModel)
            and self.inner_distance == other.inner_distance
            and self.burst == other.burst
            and self.outer_distance == other.outer_distance
        )

    def __hash__(self) -> int:
        return hash(
            (
                SporadicBurstModel,
                self.inner_distance,
                self.burst,
                self.outer_distance,
            )
        )
