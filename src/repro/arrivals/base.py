"""Abstract event models (arrival curves) for chain activations.

The paper (Sec. II) specifies chain activation with arrival curves in the
style of Compositional Performance Analysis / Real-Time Calculus:

* ``eta_plus(dt)`` / ``eta_minus(dt)`` — the maximum / minimum number of
  activations that may occur in any half-open time window of length ``dt``.
* ``delta_minus(k)`` / ``delta_plus(k)`` — the minimum / maximum distance
  between the first and the last event of any ``k`` consecutive events
  (the pseudo-inverses of the ``eta`` curves).

Conventions used throughout the library (pinned against the paper's case
study, see DESIGN.md):

* ``delta_minus(0) == delta_minus(1) == 0`` and likewise for
  ``delta_plus``.
* ``eta_plus(0) == 0`` and, for ``dt > 0``,
  ``eta_plus(dt) == max{k : delta_minus(k) < dt}``.  For a periodic model
  with period ``P`` this yields the classical busy-window bound
  ``ceil(dt / P)``.
* ``delta_plus`` may be infinite (sporadic models have no maximum
  distance); infinity is represented by ``math.inf``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Optional, Sequence

import numpy as np

from .staircase import StaircaseKernel


def require_finite(value: float, what: str) -> None:
    """Reject a NaN or infinite model parameter at construction, before
    it can be analyzed into a plausible-looking answer."""
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")


#: Sentinel distinguishing "never compiled" from "compiled to None".
_KERNEL_UNSET = object()


class EventModel(ABC):
    """Base class of all activation models.

    Subclasses must implement :meth:`delta_minus` and :meth:`delta_plus`.
    The ``eta_plus`` curve is served by a compiled
    :class:`~repro.arrivals.staircase.StaircaseKernel` whenever the
    subclass provides one through :meth:`_compile_kernel` (all shipped
    models do); models without a staircase form fall back to the
    generic galloping pseudo-inverse search over ``delta_minus``.
    :meth:`eta_plus_counter` hands out that choice as one function,
    which the busy-window fixed points call directly, so a subclass
    shapes its curve through ``delta_minus`` (and ``_compile_kernel``),
    not by overriding ``eta_plus``.
    """

    #: Safety bound for pseudo-inverse searches.  ``eta_plus`` of a window
    #: never needs to look further than this many events in this library;
    #: analyses that would exceed it indicate a divergent busy window.
    MAX_EVENTS = 10**7

    @abstractmethod
    def delta_minus(self, k: int) -> float:
        """Minimum distance between the first and last of ``k`` events."""

    @abstractmethod
    def delta_plus(self, k: int) -> float:
        """Maximum distance between the first and last of ``k`` events.

        ``math.inf`` when the model places no upper bound (sporadic).
        """

    # ------------------------------------------------------------------
    # Compiled staircase kernel
    # ------------------------------------------------------------------
    def _compile_kernel(self) -> Optional[StaircaseKernel]:
        """Build this model's staircase kernel, or ``None`` when the
        curve has no (affordable) eventually periodic form.  Overridden
        by every shipped model; the default keeps user-defined models on
        the generic search."""
        return None

    def staircase_kernel(self) -> Optional[StaircaseKernel]:
        """The compiled ``delta_minus`` staircase of this model (cached;
        ``None`` for models without one)."""
        kernel = getattr(self, "_staircase_kernel", _KERNEL_UNSET)
        if kernel is _KERNEL_UNSET:
            kernel = self._compile_kernel()
            self._staircase_kernel = kernel
        return kernel

    # ------------------------------------------------------------------
    # Derived curves
    # ------------------------------------------------------------------
    def eta_plus(self, dt: float) -> int:
        """Maximum number of events in any window of length ``dt``.

        Derived from ``delta_minus`` by pseudo-inversion:
        ``eta_plus(dt) = max{k : delta_minus(k) < dt}`` for ``dt > 0``.
        Answered by :meth:`eta_plus_counter`'s function.
        """
        if dt == math.inf:
            return self._eta_plus_unbounded()
        return self.eta_plus_counter()(dt)

    def eta_plus_counter(self) -> Callable[[float], int]:
        """The function :meth:`eta_plus` dispatches to: the compiled
        :meth:`StaircaseKernel.eta_plus` when the model has a kernel, the
        generic search (:meth:`_eta_plus_search`) otherwise.

        It answers every finite window exactly as :meth:`eta_plus` does
        and raises ``OverflowError`` for an unbounded one, so a caller
        that counts many windows of one model fetches it once.
        """
        kernel = self.staircase_kernel()
        if kernel is not None:
            return kernel.eta_plus
        return self._eta_plus_search

    def delta_minus_many(self, ks: Sequence[int]) -> Sequence[float]:
        """Batched :meth:`delta_minus` over a vector of event counts, as
        a ``float64`` ndarray (the simulator's activation streams).

        Models with a compiled staircase answer from it with one gather
        (:meth:`StaircaseKernel.delta_many`); the others loop
        :meth:`delta_minus`.
        """
        kernel = self.staircase_kernel()
        if kernel is not None:
            return kernel.delta_many(ks)
        return np.asarray([self.delta_minus(int(k)) for k in ks], dtype=np.float64)

    def delta_plus_many(self, ks: Sequence[int]) -> Sequence[float]:
        """Batched :meth:`delta_plus` as a ``float64`` ndarray (a scalar
        loop by default; models with a closed form override it with
        vectorized arithmetic).  ``math.inf`` entries are preserved."""
        return np.asarray([self.delta_plus(int(k)) for k in ks], dtype=np.float64)

    def _eta_plus_search(self, dt: float) -> int:
        """The generic pseudo-inverse: exponential galloping followed by
        binary search over ``delta_minus`` — logarithmic in the answer,
        which matters for long windows (0 for ``dt <= 0``).  Fallback
        for models without a staircase kernel and the differential
        reference of the staircase parity tests."""
        if dt <= 0:
            return 0
        lo, hi = 1, 2
        while self.delta_minus(hi) < dt:
            lo = hi
            hi *= 2
            if hi > self.MAX_EVENTS:
                raise OverflowError(
                    f"eta_plus({dt!r}) exceeds {self.MAX_EVENTS} events; "
                    "the event model is too dense for this window"
                )
        # Invariant: delta_minus(lo) < dt <= delta_minus(hi).
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self.delta_minus(mid) < dt:
                lo = mid
            else:
                hi = mid
        return lo

    def eta_minus(self, dt: float) -> int:
        """Minimum number of events in any window of length ``dt``.

        Derived from ``delta_plus``:
        ``eta_minus(dt) = min{k >= 0 : delta_plus(k + 2) > dt} + ...`` —
        equivalently the largest ``k`` such that ``k + 1`` events *must*
        have started, i.e. ``max{k : delta_plus(k + 1) <= dt}`` with the
        convention that the result is 0 when even two events may be
        farther apart than ``dt``.
        """
        if dt < 0:
            return 0
        if math.isinf(self.delta_plus(2)):
            return 0
        k = 0
        while self.delta_plus(k + 2) <= dt:
            k += 1
            if k > self.MAX_EVENTS:
                raise OverflowError("eta_minus diverged")
        return k

    def _eta_plus_unbounded(self) -> int:
        """``eta_plus`` of an unbounded window (``math.inf`` events unless
        the model is finite)."""
        raise OverflowError("eta_plus(inf) is unbounded for this model")

    # ------------------------------------------------------------------
    # Long-run rate (used for utilization / divergence checks)
    # ------------------------------------------------------------------
    def rate(self) -> float:
        """Long-run maximum activation rate (events per time unit).

        Estimated as ``k / delta_minus(k + 1)`` for a large ``k``; exact
        for periodic/sporadic models which override it.
        """
        k = 4096
        span = self.delta_minus(k + 1)
        if span <= 0:
            return math.inf
        return k / span

    # ------------------------------------------------------------------
    # Sanity checking
    # ------------------------------------------------------------------
    def validate(self, up_to: int = 64) -> None:
        """Check basic curve well-formedness up to ``up_to`` events.

        Raises ``ValueError`` on: negative distances, non-monotone
        ``delta`` curves, or ``delta_minus > delta_plus``.
        """
        prev_minus = 0.0
        prev_plus = 0.0
        for k in (0, 1):
            if self.delta_minus(k) != 0:
                raise ValueError(f"delta_minus({k}) must be 0")
            if self.delta_plus(k) != 0:
                raise ValueError(f"delta_plus({k}) must be 0")
        for k in range(2, up_to + 1):
            dmin = self.delta_minus(k)
            dplus = self.delta_plus(k)
            if dmin < 0:
                raise ValueError(f"delta_minus({k}) is negative: {dmin}")
            if dmin < prev_minus:
                raise ValueError(f"delta_minus not monotone at k={k}")
            if dplus < prev_plus:
                raise ValueError(f"delta_plus not monotone at k={k}")
            if dmin > dplus:
                raise ValueError(
                    f"delta_minus({k})={dmin} exceeds delta_plus({k})={dplus}"
                )
            prev_minus = dmin
            prev_plus = dplus

    def __repr__(self) -> str:  # pragma: no cover - cosmetic default
        return f"{type(self).__name__}()"
