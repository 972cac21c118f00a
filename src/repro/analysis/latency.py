"""Worst-case latency of a chain (Theorem 2) and per-window miss count
(Lemma 3).

``K_b`` is the largest number of activations a single sigma_b-busy-window
must accommodate; the worst-case latency maximizes ``B_b(q) -
delta_minus(q)`` over ``q in [1, K_b]`` — the classic multiple-event
busy-window argument of response-time analysis.

One :func:`analyze_latency` call builds one interference structure
(:class:`~repro.analysis.busy_window._InterferenceModel`), or takes the
caller's through ``model``, and scans ``q = 1, 2, ...`` against it one
fixed point at a time, each seeded from ``B_b(q - 1)``, stopping at the
busy-window closure ``K_b``: no ``q`` past it is evaluated.  The scan
carries busy times as plain numbers: :attr:`LatencyResult.busy_times`
holds ``B_b(q)`` itself, and the scalar
:func:`~repro.analysis.busy_window.busy_time` gives the per-component
breakdown of any ``q`` for an audit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..model import System, TaskChain
from .busy_window import _fixed_point, _InterferenceModel
from .exceptions import BusyWindowDivergence

#: Safety cap on the busy-window queue-depth search.
MAX_Q = 65_536


@dataclass(frozen=True)
class LatencyResult:
    """Result of the Theorem 2 analysis for one chain.

    Attributes
    ----------
    chain_name:
        The analyzed chain.
    busy_times:
        ``busy_times[q - 1]`` is the busy time ``B_b(q)`` of ``q``
        events, for ``q in [1, K_b]``.
    latencies:
        ``latencies[q - 1] == B_b(q) - delta_minus(q)``.
    max_queue:
        ``K_b``: maximum activations per busy window.
    wcl:
        ``WCL_b``: the worst-case end-to-end latency.
    critical_q:
        The ``q`` attaining the worst-case latency.
    include_overload:
        Whether overload chains were part of the interference (False for
        the *typical* analysis of Experiment 1's second run).
    """

    chain_name: str
    busy_times: Tuple[float, ...]
    latencies: Tuple[float, ...]
    max_queue: int
    wcl: float
    critical_q: int
    include_overload: bool = True

    def busy_time(self, q: int) -> float:
        """``B_b(q)`` for ``q in [1, K_b]``."""
        if not 1 <= q <= self.max_queue:
            raise IndexError(f"q={q} outside [1, {self.max_queue}]")
        return self.busy_times[q - 1]

    def deadline_miss_count(self, deadline: float) -> int:
        """``N_b`` (Lemma 3): how many of the ``K_b`` positions in a busy
        window can exceed ``deadline``."""
        return sum(1 for latency in self.latencies if latency > deadline)

    def meets(self, deadline: float) -> bool:
        """True iff the worst-case latency meets ``deadline``."""
        return self.wcl <= deadline


def analyze_latency(
    system: System,
    target: TaskChain,
    *,
    include_overload: bool = True,
    max_q: int = MAX_Q,
    model: Optional[_InterferenceModel] = None,
) -> LatencyResult:
    """Theorem 2: compute ``K_b`` and the worst-case latency of
    ``target`` within ``system``.

    ``K_b`` is the smallest ``q >= 1`` with
    ``B_b(q) <= delta_minus(q + 1)`` — once the busy time for ``q``
    events finishes before the earliest possible (q+1)-th arrival, the
    busy window closes.

    ``include_overload=False`` abstracts all overload chains away,
    producing the *typical* worst-case latency (the second analysis of
    Experiment 1).  ``model`` is the interference structure of that
    ``include_overload`` when the caller has built it already.

    Raises
    ------
    BusyWindowDivergence
        If the busy window never closes (overload at or above capacity).
    """
    if model is None:
        model = _InterferenceModel(system, target, include_overload)
    delta_minus = target.activation.delta_minus
    busy: List[float] = []
    latencies: List[float] = []
    q = 0
    while True:
        q += 1
        if q > max_q:
            raise BusyWindowDivergence(
                target.name, q, f"no busy-window closure within {max_q} activations"
            )
        # B(q-1) lower-bounds B(q) (the Theorem 1 sum is pointwise
        # monotone in q), so the warm start changes only the step count.
        total = _fixed_point(model, q, busy[-1] if busy else None)
        busy.append(total)
        latencies.append(total - delta_minus(q))
        if total <= delta_minus(q + 1):
            break

    wcl = max(latencies)
    critical_q = latencies.index(wcl) + 1
    return LatencyResult(
        chain_name=target.name,
        busy_times=tuple(busy),
        latencies=tuple(latencies),
        max_queue=q,
        wcl=wcl,
        critical_q=critical_q,
        include_overload=include_overload,
    )
