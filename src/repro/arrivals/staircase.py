"""Compiled staircase form of ``delta_minus`` curves.

Every event model of the library (and of CPA practice) has an
*eventually periodic* minimum-distance staircase: an explicit breakpoint
prefix ``delta_minus(0..L-1)`` followed by a repeating tail that adds
``tail_span`` time units every ``tail_events`` events::

    delta_minus(k) = breaks[k - c * e] + c * s        for k >= L,
    c = ceil((k - L + 1) / e),  e = tail_events,  s = tail_span

:class:`StaircaseKernel` stores exactly that pair of arrays and answers
``eta_plus`` — the pseudo-inverse ``max {k : delta_minus(k) < dt}`` —
per window (:meth:`eta_plus`, a ``bisect`` over the prefix plus tail
arithmetic with an exact fix-up against :meth:`delta`).  There is no
per-window memo: evaluating a window reads the kernel and writes
nothing.
:meth:`delta_many` materializes the staircase over a whole vector of
event counts with numpy, for the simulator's activation streams.

The kernel is closed under the curve algebra: :meth:`scaled` stretches
time, :func:`merge_tightest` builds the compiled form of the pointwise
``max`` of two staircases (the ``delta_minus`` of
:func:`repro.arrivals.algebra.tightest`).
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence

import numpy as np

#: Breakpoint budget of algebra closures (:func:`merge_tightest`) and
#: long jitter prefixes; beyond it compilation returns ``None`` and the
#: owning model falls back to the generic galloping search.
COMPILE_LIMIT = 65_536


class StaircaseKernel:
    """Breakpoint/value arrays of one eventually periodic staircase.

    Parameters
    ----------
    breaks:
        ``breaks[k] == delta_minus(k)`` for ``k in [0, L)``; the first
        two entries must be 0 and the sequence non-decreasing.
    tail_events, tail_span:
        The periodic tail: beyond the prefix, every ``tail_events``
        further events cost ``tail_span`` further time units.
        ``tail_span == 0`` marks a curve with no usable tail (any window
        past the prefix overflows as "too dense").
    max_events:
        Safety bound on any ``eta_plus`` answer, mirroring
        :attr:`repro.arrivals.base.EventModel.MAX_EVENTS`.
    """

    __slots__ = (
        "breaks",
        "tail_events",
        "tail_span",
        "max_events",
        "_np_breaks",
    )

    def __init__(
        self,
        breaks: Sequence[float],
        tail_events: int = 1,
        tail_span: float = 0.0,
        *,
        max_events: int = 10**7,
    ):
        points = list(breaks)
        if len(points) < 2:
            raise ValueError("need at least delta_minus(0) and delta_minus(1)")
        if points[0] != 0 or points[1] != 0:
            raise ValueError("delta_minus(0) and delta_minus(1) must be 0")
        for i in range(1, len(points)):
            if points[i] < points[i - 1]:
                raise ValueError(f"breaks must be non-decreasing (index {i})")
        if not 1 <= tail_events <= len(points) - 1:
            raise ValueError(
                f"tail_events must lie in [1, {len(points) - 1}], "
                f"got {tail_events}"
            )
        if tail_span < 0:
            raise ValueError("tail_span must be non-negative")
        self.breaks = points
        self.tail_events = int(tail_events)
        self.tail_span = tail_span
        self.max_events = max_events
        self._np_breaks = None

    # ------------------------------------------------------------------
    # The staircase itself
    # ------------------------------------------------------------------
    def delta(self, k: int) -> float:
        """``delta_minus(k)`` as defined by the compiled arrays."""
        breaks = self.breaks
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        if k < len(breaks):
            return breaks[k]
        e = self.tail_events
        cycles = -(-(k - len(breaks) + 1) // e)
        return breaks[k - cycles * e] + cycles * self.tail_span

    def delta_many(self, ks: Sequence[int]) -> Sequence[float]:
        """``delta`` over a whole vector of event counts.

        One gather over the breakpoint array plus vectorized tail
        arithmetic — the identical float64 operations as :meth:`delta`,
        so batched activation streams are bit-identical to generating
        them one event at a time.  Returns a ``float64`` ndarray.
        """
        arr = np.asarray(ks, dtype=np.int64)
        if arr.size and int(arr.min()) < 0:
            raise ValueError("k must be non-negative")
        if self._np_breaks is None:
            self._np_breaks = np.asarray(self.breaks, dtype=np.float64)
        breaks = self._np_breaks
        length = len(self.breaks)
        out = np.empty(arr.shape, dtype=np.float64)
        prefix = arr < length
        if prefix.any():
            out[prefix] = breaks[arr[prefix]]
        beyond = ~prefix
        if beyond.any():
            e = self.tail_events
            k = arr[beyond]
            cycles = -(-(k - length + 1) // e)
            out[beyond] = breaks[k - cycles * e] + cycles * self.tail_span
        return out

    def rate(self) -> float:
        """Long-run event rate of the tail (events per time unit)."""
        if self.tail_span <= 0:
            return math.inf
        return self.tail_events / self.tail_span

    # ------------------------------------------------------------------
    # eta_plus
    # ------------------------------------------------------------------
    def eta_plus(self, dt: float) -> int:
        """``max {k : delta_minus(k) < dt}`` for one window ``dt``."""
        if dt <= 0:
            return 0
        if math.isinf(dt):
            raise OverflowError("eta_plus(inf) is unbounded for this staircase")
        breaks = self.breaks
        last = breaks[-1]
        if dt <= last:
            # Largest k with breaks[k] < dt; tail values are at or above
            # breaks[-1] >= dt, so the prefix answer is final.
            return bisect.bisect_left(breaks, dt) - 1
        s = self.tail_span
        if s <= 0:
            raise OverflowError(self._too_dense(dt))
        e = self.tail_events
        length = len(breaks)
        # Cycle c whose value window (last + (c-1)s, last + cs] holds dt,
        # with a float-robust fix-up of the division estimate.
        cycles = math.ceil((dt - last) / s)
        while cycles > 1 and last + (cycles - 1) * s >= dt:
            cycles -= 1
        while last + cycles * s < dt:
            cycles += 1
        k = (length - 1) + (cycles - 1) * e
        # Count the events of cycle c that still fit strictly below dt.
        for j in range(length - e, length):
            if breaks[j] + cycles * s < dt:
                k += 1
            else:
                break
        if k > self.max_events:
            raise OverflowError(self._too_dense(dt))
        return k

    def _too_dense(self, dt: float) -> str:
        return (
            f"eta_plus({dt!r}) exceeds {self.max_events} events; "
            "the event model is too dense for this window"
        )

    # ------------------------------------------------------------------
    # Algebra closure
    # ------------------------------------------------------------------
    def scaled(self, factor: float) -> "StaircaseKernel":
        """The kernel of the time-stretched curve (``factor > 0``)."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return StaircaseKernel(
            [value * factor for value in self.breaks],
            self.tail_events,
            self.tail_span * factor,
            max_events=self.max_events,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StaircaseKernel({len(self.breaks)} breaks, "
            f"tail={self.tail_events}ev/{self.tail_span!r})"
        )


def integral_kernel(kernel: Optional[StaircaseKernel]) -> bool:
    """True when every breakpoint and the tail span are exactly
    representable integers small enough that all tail arithmetic
    (``breaks[j] + c * s`` for any event count up to ``max_events``)
    stays exact in float64.

    This is the soundness condition of the algebra closures: a composed
    kernel built from integral inputs evaluates the *identical* numbers
    as the composed model's own ``delta_minus``, associativity aside —
    non-integral inputs can differ by an ulp at staircase boundaries,
    which would break the pseudo-inverse contract, so composition is
    refused there and the generic search (which consults the model's
    authoritative ``delta_minus`` directly) applies instead.
    """
    if kernel is None:
        return False
    bound = 2.0**52
    span = float(kernel.tail_span)
    if not span.is_integer() or abs(span) >= bound:
        return False
    return all(
        float(value).is_integer() and abs(value) < bound
        for value in kernel.breaks
    )


def merge_tightest(
    a: Optional[StaircaseKernel],
    b: Optional[StaircaseKernel],
    *,
    limit: int = COMPILE_LIMIT,
) -> Optional[StaircaseKernel]:
    """The compiled form of the pointwise maximum of two staircases.

    Both tails are eventually periodic, so their maximum is too: over
    the least common multiple of the event periods, either both grow at
    the same rate (the maximum stays periodic immediately) or the
    faster one dominates from some breakpoint onwards.  Returns ``None``
    when either input is missing or non-integral (see
    :func:`integral_kernel`), or when domination is not reached within
    ``limit`` breakpoints — callers then fall back to the generic
    search.
    """
    if not integral_kernel(a) or not integral_kernel(b):
        return None
    events = math.lcm(a.tail_events, b.tail_events)
    span_a = a.tail_span * (events // a.tail_events)
    span_b = b.tail_span * (events // b.tail_events)
    max_events = min(a.max_events, b.max_events)
    start = max(len(a.breaks), len(b.breaks))
    if span_a == span_b:
        length = start + events
        if length > limit:
            return None
        breaks = [max(a.delta(k), b.delta(k)) for k in range(length)]
        return StaircaseKernel(breaks, events, span_a, max_events=max_events)
    high, low = (a, b) if span_a > span_b else (b, a)
    anchor = start
    while anchor + events <= limit:
        if all(
            high.delta(k) >= low.delta(k) for k in range(anchor, anchor + events)
        ):
            # Beyond one dominated period the gap only grows (the high
            # tail adds more per period), so the maximum follows the
            # high tail forever.
            breaks = [max(a.delta(k), b.delta(k)) for k in range(anchor + events)]
            return StaircaseKernel(
                breaks, events, max(span_a, span_b), max_events=max_events
            )
        anchor += events
    return None


def prefix_points(model, count: int) -> List[float]:
    """``delta_minus(0..count-1)`` of ``model`` as a list (compile-time
    helper for model-specific kernels)."""
    return [model.delta_minus(k) for k in range(count)]
