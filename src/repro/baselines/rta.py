"""Classic busy-window response-time analysis for *independent* tasks.

The substrate the paper's references [8]/[10] build on: uniprocessor SPP,
independent tasks with arrival curves.  Needed here as the foundation of
the independent-task TWCA baseline and as a sanity oracle for single-task
chains (for a chain of one task, Theorem 1 degenerates to this).

The multi-event scan of :func:`analyze_response_time` runs one Kleene
iteration per ``q``, seeded from ``B_i(q - 1)``, and stops at the
busy-window closure; its busy times are bit-identical to
:func:`busy_time`'s, which starts every ``q`` from its own base demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arrivals import EventModel

#: Iteration / queue-depth guards (mirroring repro.analysis.busy_window).
MAX_WINDOW = 10.0**12
MAX_Q = 65_536


@dataclass(frozen=True)
class AnalyzedTask:
    """A self-contained independent task for the baseline analyses."""

    name: str
    priority: float
    wcet: float
    activation: EventModel
    deadline: float = math.inf


@dataclass(frozen=True)
class ResponseTimeResult:
    """Busy-window analysis output for one task."""

    task_name: str
    busy_times: Tuple[float, ...]
    response_times: Tuple[float, ...]
    max_queue: int
    wcrt: float

    def deadline_miss_count(self, deadline: float) -> int:
        """How many positions in the maximal busy window can miss."""
        return sum(1 for r in self.response_times if r > deadline)


def _higher_priority(
    tasks: Sequence[AnalyzedTask], target: AnalyzedTask
) -> List[AnalyzedTask]:
    return [
        t for t in tasks if t.name != target.name and t.priority > target.priority
    ]


def _demand(
    higher: Sequence[AnalyzedTask],
    target: AnalyzedTask,
    q: int,
    horizon: float,
    extra_load: float,
) -> float:
    return (
        q * target.wcet
        + extra_load
        + sum(t.activation.eta_plus(horizon) * t.wcet for t in higher)
    )


def _fixed_point(
    higher: Sequence[AnalyzedTask],
    target: AnalyzedTask,
    q: int,
    extra_load: float,
    horizon: float,
) -> float:
    """Kleene iteration of ``_demand`` from ``horizon``, a sound lower
    bound on the least fixed point."""
    for _ in range(100_000):
        value = _demand(higher, target, q, horizon, extra_load)
        if value <= horizon:
            return value
        if value > MAX_WINDOW:
            raise OverflowError(f"busy window of {target.name!r} diverges")
        horizon = value
    raise OverflowError(f"no fixed point for {target.name!r}")


def busy_time(
    tasks: Sequence[AnalyzedTask],
    target: AnalyzedTask,
    q: int,
    *,
    window: Optional[float] = None,
    extra_load: float = 0.0,
) -> float:
    """``B_i(q)``: fixed point of ``q C_i + sum_hp eta_j(B) C_j``.

    ``window`` evaluates at a fixed horizon instead (the L(q) analogue);
    ``extra_load`` injects a constant demand (combination cost).
    """
    higher = _higher_priority(tasks, target)
    if window is not None:
        return _demand(higher, target, q, window, extra_load)
    return _fixed_point(
        higher, target, q, extra_load, q * target.wcet + extra_load or math.ulp(0.0)
    )


def analyze_response_time(
    tasks: Sequence[AnalyzedTask], target: AnalyzedTask
) -> ResponseTimeResult:
    """Multi-event busy-window WCRT analysis (Lehoczky / CPA style).

    Bit-identical to iterating :func:`busy_time` per ``q`` (the least
    fixed point is unique); each ``q`` starts from ``B_i(q - 1)`` when
    that is larger than its base demand, and no ``q`` past the closure
    is evaluated.
    """
    higher = _higher_priority(tasks, target)
    busy: List[float] = []
    responses: List[float] = []
    q = 0
    while True:
        q += 1
        if q > MAX_Q:
            raise OverflowError(f"busy window of {target.name!r} never closes")
        start = q * target.wcet or math.ulp(0.0)
        if busy and busy[-1] > start:
            start = busy[-1]
        value = _fixed_point(higher, target, q, 0.0, start)
        busy.append(value)
        responses.append(value - target.activation.delta_minus(q))
        if value <= target.activation.delta_minus(q + 1):
            break
    wcrt = max(responses)
    return ResponseTimeResult(
        task_name=target.name,
        busy_times=tuple(busy),
        response_times=tuple(responses),
        max_queue=q,
        wcrt=wcrt,
    )


def response_times(tasks: Sequence[AnalyzedTask]) -> dict:
    """WCRT of every task in the set (name -> result)."""
    return {t.name: analyze_response_time(tasks, t) for t in tasks}
