"""Explicit staircase arrival curves.

Industrial activation patterns (the paper's overload chains come from
interrupt service routines and recovery chains observed at Thales) are
rarely captured by two-parameter models.  :class:`ArrivalCurve` stores the
``delta_minus`` staircase point-wise and extrapolates beyond the stored
prefix, which is exactly what trace-derived curves look like in CPA tools.
``eta_plus`` (scalar and batched) is served by the shared
:class:`~repro.arrivals.staircase.StaircaseKernel` compiled directly from
the stored prefix.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .base import EventModel, require_finite
from .staircase import StaircaseKernel


class ArrivalCurve(EventModel):
    """Event model given by an explicit ``delta_minus`` prefix.

    Parameters
    ----------
    delta_min_points:
        ``delta_min_points[i]`` is ``delta_minus(i)``; the first two
        entries must be 0 (``delta_minus(0) == delta_minus(1) == 0``) and
        the sequence must be non-decreasing.
    tail_distance:
        Extrapolation spacing: for ``k`` beyond the stored prefix,
        ``delta_minus(k) = delta_minus(k_max) + (k - k_max) * tail_distance``.
        Defaults to the last increment of the prefix (or the largest
        increment if the last one is 0).
    delta_max_points:
        Optional explicit ``delta_plus`` prefix.  When omitted the model
        is sporadic-like (``delta_plus == inf`` for ``k >= 2``).
    """

    def __init__(
        self,
        delta_min_points: Sequence[float],
        tail_distance: Optional[float] = None,
        delta_max_points: Optional[Sequence[float]] = None,
    ):
        points = list(delta_min_points)
        for point in points:
            require_finite(point, "delta_min_points entry")
        if len(points) < 2:
            raise ValueError("need at least delta_minus(0) and delta_minus(1)")
        if points[0] != 0 or points[1] != 0:
            raise ValueError("delta_minus(0) and delta_minus(1) must be 0")
        for i in range(1, len(points)):
            if points[i] < points[i - 1]:
                raise ValueError(f"delta_minus must be non-decreasing (index {i})")
        self._points = points
        if tail_distance is None:
            if len(points) >= 3:
                tail_distance = points[-1] - points[-2]
                if tail_distance == 0:
                    tail_distance = max(
                        points[i] - points[i - 1] for i in range(1, len(points))
                    )
            else:
                tail_distance = 0
        require_finite(tail_distance, "tail_distance")
        if tail_distance < 0:
            raise ValueError("tail_distance must be non-negative")
        if tail_distance == 0 and len(points) > 2:
            # A zero tail would let eta_plus explode on any finite window.
            raise ValueError(
                "tail_distance of 0 makes the curve infinitely dense; "
                "provide a positive tail_distance"
            )
        self.tail_distance = tail_distance

        self._max_points = None
        if delta_max_points is not None:
            maxima = list(delta_max_points)
            for point in maxima:
                require_finite(point, "delta_max_points entry")
            if len(maxima) < 2 or maxima[0] != 0 or maxima[1] != 0:
                raise ValueError("delta_plus(0) and delta_plus(1) must be 0")
            for i in range(1, len(maxima)):
                if maxima[i] < maxima[i - 1]:
                    raise ValueError(
                        f"delta_plus must be non-decreasing (index {i})"
                    )
            for k in range(min(len(points), len(maxima))):
                if maxima[k] < points[k]:
                    raise ValueError(f"delta_plus({k}) < delta_minus({k})")
            self._max_points = maxima

    @classmethod
    def from_trace(
        cls,
        timestamps: Sequence[float],
        tail_distance: Optional[float] = None,
    ) -> "ArrivalCurve":
        """Derive a conservative curve from an observed activation trace.

        ``delta_minus(k)`` becomes the *minimum* observed span over all
        windows of ``k`` consecutive timestamps, ``delta_plus(k)`` the
        maximum observed span — the standard trace-to-curve abstraction.
        """
        ts = sorted(timestamps)
        if len(ts) < 2:
            raise ValueError("need at least two timestamps")
        n = len(ts)
        mins = [0, 0]
        maxs = [0, 0]
        for k in range(2, n + 1):
            spans = [ts[i + k - 1] - ts[i] for i in range(n - k + 1)]
            mins.append(min(spans))
            maxs.append(max(spans))
        return cls(mins, tail_distance=tail_distance, delta_max_points=maxs)

    def delta_minus(self, k: int) -> float:
        if k <= 1:
            return 0
        if k < len(self._points):
            return self._points[k]
        extra = k - (len(self._points) - 1)
        return self._points[-1] + extra * self.tail_distance

    def delta_plus(self, k: int) -> float:
        if k <= 1:
            return 0
        if self._max_points is None:
            return math.inf
        if k < len(self._max_points):
            return self._max_points[k]
        return math.inf

    def _compile_kernel(self) -> StaircaseKernel:
        """The stored prefix *is* the breakpoint array; the tail adds
        ``tail_distance`` per event.  The kernel memoizes the probed
        windows — the busy-window fixed points and the Eq. (3) re-checks
        evaluate the same handful over and over."""
        return StaircaseKernel(
            self._points, 1, self.tail_distance, max_events=self.MAX_EVENTS
        )

    def rate(self) -> float:
        if self.tail_distance <= 0:
            return math.inf
        return 1.0 / self.tail_distance

    def __repr__(self) -> str:
        preview = self._points[:6]
        suffix = ", ..." if len(self._points) > 6 else ""
        return (
            f"ArrivalCurve(delta_min={preview}{suffix}, "
            f"tail_distance={self.tail_distance!r})"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrivalCurve)
            and self._points == other._points
            and self.tail_distance == other.tail_distance
            and self._max_points == other._max_points
        )

    def __hash__(self) -> int:
        return hash(
            (
                ArrivalCurve,
                tuple(self._points),
                self.tail_distance,
                None if self._max_points is None else tuple(self._max_points),
            )
        )
