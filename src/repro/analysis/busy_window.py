"""The q-event busy time of a chain (Theorem 1 / Eq. 1, 3 and 4).

``B_b(q)`` bounds the time needed to process ``q`` activations of chain
sigma_b inside one sigma_b-busy-window.  Theorem 1 expresses it as a fixed
point over five interference components; Eq. (3) and Eq. (4) of the paper
are variants of the same sum — Eq. (3) singles out the contribution of a
*combination* of overload active segments, Eq. (4) (``L_b(q)``) evaluates
the arrival curves over the fixed window ``delta_minus(q) + D_b`` instead
of the fixed point, yielding the linear schedulability criterion Eq. (5).

This module implements all three through one parameterized evaluator
(:class:`_InterferenceModel`).  The q-independent interference
structures (interferer lists, deferred-segment decompositions, static
costs, each term's event counter) are computed once per model, which is
what makes the batched :func:`criterion_loads` cheap: one structure
scan serves the whole ``q`` range of Eq. (5).

The analysis path (the Theorem 2 scan, the Eq. (4)/(5) loads and the
Def. 10 re-check) carries plain busy-time totals
(:meth:`_InterferenceModel.total`), and finds each Theorem 1 fixed
point with one scalar Kleene iteration per ``q``
(:func:`_fixed_point`); only the public scalar :func:`busy_time` and
:func:`busy_times` build the per-component :class:`BusyTimeBreakdown`,
for audits.

One TWCA job builds one model from scratch, the overload-inclusive one
of its full latency scan, and derives the typical one from it
(:meth:`_InterferenceModel.without_overload`) for the typical scan, the
Eq. (5) loads and the Def. 10 fixed points; both reach the callees as
their ``model`` keyword, and neither outlives the job.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..model import System, TaskChain
from .exceptions import BusyWindowDivergence
from .interference import is_deferred
from .segments import critical_segment, header_segment, segments

#: Hard ceiling on any busy-window length; exceeding it is treated as
#: divergence (utilization at or above 1 within the relevant scope).
MAX_WINDOW = 10.0**12

#: Hard ceiling on fixed-point iterations.
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class BusyTimeBreakdown:
    """The five components of Theorem 1 for one value of ``q``.

    ``arbitrary``, ``deferred_async`` and ``deferred_sync`` map interferer
    chain names to their contribution; ``combination`` is the summed WCET
    of overload active segments injected by Eq. (3)/(5).
    """

    q: int
    base: float
    self_interference: float
    arbitrary: Dict[str, float] = field(default_factory=dict)
    deferred_async: Dict[str, float] = field(default_factory=dict)
    deferred_sync: Dict[str, float] = field(default_factory=dict)
    combination: float = 0.0
    total: float = 0.0
    iterations: int = 0

    def interference_total(self) -> float:
        """Everything except the base demand ``q * C_b``."""
        return self.total - self.base


class _InterferenceModel:
    """The q-independent structures of the Theorem 1 sum for one
    (system, target, include_overload) configuration.

    Building the model checks that ``target`` belongs to ``system`` and
    performs the interferer classification and the deferred-segment
    scans; :meth:`total` (and :meth:`evaluate`, its audit form) then
    applies the sum for any ``(q, horizon)`` without repeating them.
    One model instance serves a whole fixed-point iteration — and,
    through :func:`criterion_loads`, a whole Eq. (5) ``q`` range.
    """

    def __init__(self, system: System, target: TaskChain, include_overload: bool):
        if target.name not in system or system[target.name] != target:
            raise ValueError(f"chain {target.name!r} not in system")
        self.target = target
        interferers = [
            chain
            for chain in system.others(target)
            if include_overload or not chain.overload
        ]
        self.deferred = {c.name: is_deferred(c, target) for c in interferers}
        self.header_cost = sum(t.wcet for t in target.header_prefix())
        self.deferred_static: Dict[str, float] = {}
        self.deferred_async_headers: Dict[str, float] = {}
        for chain in interferers:
            if not self.deferred[chain.name]:
                continue
            if chain.is_asynchronous:
                self.deferred_async_headers[chain.name] = header_segment(
                    chain, target
                ).wcet
                self.deferred_static[chain.name] = sum(
                    seg.wcet for seg in segments(chain, target)
                )
            else:
                crit = critical_segment(chain, target)
                self.deferred_static[chain.name] = crit.wcet if crit else 0.0
        self.base_wcet = target.total_wcet
        self.self_header = target.is_asynchronous and self.header_cost > 0
        self.self_count = (
            target.activation.eta_plus_counter() if self.self_header else None
        )
        self._assemble(interferers)

    def _assemble(self, interferers: List[TaskChain]) -> None:
        """Flat per-component terms of ``interferers``, in interferer
        order, for :meth:`total`; each term holds its chain's event
        counter (:meth:`repro.arrivals.base.EventModel.eta_plus_counter`)."""
        self.interferers = interferers
        self.arbitrary_terms = []
        self.async_terms = []
        sync_costs = []
        for chain in interferers:
            if not self.deferred[chain.name]:
                self.arbitrary_terms.append(
                    (chain.activation.eta_plus_counter(), chain.total_wcet)
                )
            elif chain.is_asynchronous:
                self.async_terms.append(
                    (
                        chain.activation.eta_plus_counter(),
                        self.deferred_async_headers[chain.name],
                        self.deferred_static[chain.name],
                    )
                )
            else:
                sync_costs.append(self.deferred_static[chain.name])
        self.sync_total = sum(sync_costs)

    def without_overload(self) -> "_InterferenceModel":
        """The ``include_overload=False`` model, term for term: each
        (interferer, target) classification and segment cost depends on
        that pair only, so dropping the overload interferers suffices."""
        typical = copy.copy(self)
        typical._assemble([c for c in self.interferers if not c.overload])
        return typical

    def evaluate(
        self,
        q: int,
        horizon: float,
        combination_cost: float = 0.0,
        base_demand: Optional[float] = None,
    ) -> BusyTimeBreakdown:
        """One application of the Theorem 1 sum at window ``horizon``,
        with its per-component breakdown (the audit form of
        :meth:`total`)."""
        target = self.target
        base = q * target.total_wcet if base_demand is None else base_demand
        arbitrary: Dict[str, float] = {}
        deferred_async: Dict[str, float] = {}
        deferred_sync: Dict[str, float] = {}
        self_interference = 0.0
        if target.is_asynchronous and self.header_cost > 0:
            backlog = max(0, target.activation.eta_plus(horizon) - q)
            self_interference = backlog * self.header_cost
        for chain in self.interferers:
            if not self.deferred[chain.name]:
                arbitrary[chain.name] = (
                    chain.activation.eta_plus(horizon) * chain.total_wcet
                )
            elif chain.is_asynchronous:
                deferred_async[chain.name] = (
                    chain.activation.eta_plus(horizon)
                    * self.deferred_async_headers[chain.name]
                    + self.deferred_static[chain.name]
                )
            else:
                deferred_sync[chain.name] = self.deferred_static[chain.name]
        total = (
            base
            + self_interference
            + sum(arbitrary.values())
            + sum(deferred_async.values())
            + sum(deferred_sync.values())
            + combination_cost
        )
        return BusyTimeBreakdown(
            q=q,
            base=base,
            self_interference=self_interference,
            arbitrary=arbitrary,
            deferred_async=deferred_async,
            deferred_sync=deferred_sync,
            combination=combination_cost,
            total=total,
        )

    def total(self, q: int, horizon: float, combination_cost: float = 0.0) -> float:
        """``evaluate(q, horizon, combination_cost).total`` without the
        per-chain breakdown: the same float operations in the same
        order, and each counter answers as its model's ``eta_plus``, so
        the value is bit-identical.  The analysis path's one evaluator."""
        self_interference = 0.0
        if self.self_header:
            backlog = max(0, self.self_count(horizon) - q)
            self_interference = backlog * self.header_cost
        return (
            q * self.base_wcet
            + self_interference
            + sum([count(horizon) * wcet for count, wcet in self.arbitrary_terms])
            + sum([count(horizon) * h + s for count, h, s in self.async_terms])
            + self.sync_total
            + combination_cost
        )


def busy_time(
    system: System,
    target: TaskChain,
    q: int,
    *,
    include_overload: bool = True,
    combination_cost: float = 0.0,
    window: Optional[float] = None,
    base_demand: Optional[float] = None,
    seed: Optional[float] = None,
) -> BusyTimeBreakdown:
    """Evaluate the Theorem 1 sum for ``q`` activations of ``target``.

    Parameters
    ----------
    system, target:
        The uniprocessor system and the analyzed chain (must belong to
        ``system``).
    q:
        Number of chain activations processed in the busy window
        (``q >= 1``).
    include_overload:
        When False, overload chains are removed from every interference
        term — this is the *typical* busy time of Eq. (3)/(4), to which a
        combination's cost can be added via ``combination_cost``.
    combination_cost:
        Summed WCET of the overload active segments of a combination
        (the last line of Eq. (3)); only sensible with
        ``include_overload=False``.
    window:
        ``None`` computes the fixed point of Theorem 1.  A number
        evaluates the sum with every arrival curve applied to that fixed
        window instead — Eq. (4) uses ``delta_minus(q) + D_b``.
    base_demand:
        Override for the ``q * C_b`` base term; used by the per-stage
        latency analysis (``(q-1) * C_b + C_prefix``).
    seed:
        Warm start for the Kleene iteration, which otherwise starts at
        the base demand (``math.ulp(0.0)`` for a zero base, the least
        window in which every interferer counts its first event).
        Must be a *sound* lower bound on the least fixed point — e.g.
        the fixed point of the same configuration at ``q - 1`` (the sum
        is pointwise monotone in ``q``) or the overload-free fixed point
        of the same ``q``.
        Any seed at or below the least fixed point yields the
        bit-identical breakdown (every component of the Theorem 1 sum is
        monotone in the horizon, so the converged evaluation is unique);
        only the ``iterations`` diagnostic shrinks.  Ignored in window
        mode.

    Returns
    -------
    BusyTimeBreakdown
        With ``total`` the busy time bound and the per-chain components.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    model = _InterferenceModel(system, target, include_overload)

    if window is not None:
        return model.evaluate(q, window, combination_cost, base_demand)

    # Kleene iteration from the minimal demand, warm-started when a
    # sound better lower bound is at hand.  The sum is monotone in the
    # horizon, so from any start at or below the least fixed point the
    # iteration converges to exactly that fixed point — seeds change
    # the step count, never the result.
    base = q * target.total_wcet if base_demand is None else base_demand
    horizon = base if base > 0 else math.ulp(0.0)
    if seed is not None and seed > horizon:
        horizon = seed
    iterations = 0
    while True:
        try:
            current = model.evaluate(q, horizon, combination_cost, base_demand)
        except OverflowError as exc:
            # An arrival curve refused a huge window: the fixed point is
            # running away, which is a divergence, not a curve bug.
            raise BusyWindowDivergence(target.name, q, str(exc)) from exc
        iterations += 1
        if current.total <= horizon:
            break
        if current.total > MAX_WINDOW:
            raise BusyWindowDivergence(
                target.name, q, f"busy time exceeded {MAX_WINDOW:g} time units"
            )
        if iterations > MAX_ITERATIONS:
            raise BusyWindowDivergence(
                target.name, q, f"no fixed point after {iterations} steps"
            )
        horizon = current.total
    return BusyTimeBreakdown(
        q=current.q,
        base=current.base,
        self_interference=current.self_interference,
        arbitrary=current.arbitrary,
        deferred_async=current.deferred_async,
        deferred_sync=current.deferred_sync,
        combination=current.combination,
        total=current.total,
        iterations=iterations,
    )


def _fixed_point(
    model: _InterferenceModel,
    q: int,
    seed: Optional[float] = None,
    combination_cost: float = 0.0,
) -> float:
    """The Theorem 1 fixed point ``B(q)`` of ``model``'s target, as a
    plain total: exactly the scalar :func:`busy_time`'s ``total``, since
    the least fixed point is unique and :meth:`_InterferenceModel.total`
    repeats the float operations of :meth:`_InterferenceModel.evaluate`.

    The Kleene iteration starts from ``q * C_b`` (``math.ulp(0.0)`` for
    a zero base, never a floor above it), or from ``seed`` when that is
    larger; ``seed`` must be a sound lower bound on the least fixed
    point, such as ``B(q - 1)`` (the sum is pointwise monotone in
    ``q``), so it changes the step count only.

    Raises
    ------
    BusyWindowDivergence
        When the iteration passes :data:`MAX_WINDOW`, runs more than
        :data:`MAX_ITERATIONS` steps, or an arrival curve refuses a
        window (``OverflowError``).
    """
    base = q * model.base_wcet
    horizon = base if base > 0 else math.ulp(0.0)
    if seed is not None and seed > horizon:
        horizon = seed
    iterations = 0
    while True:
        try:
            total = model.total(q, horizon, combination_cost)
        except OverflowError as exc:
            # A curve refused a huge window: the fixed point is running
            # away, which is a divergence, not a curve bug.
            raise BusyWindowDivergence(model.target.name, q, str(exc)) from exc
        iterations += 1
        if total <= horizon:
            return total
        if total > MAX_WINDOW:
            raise BusyWindowDivergence(
                model.target.name, q, f"busy time exceeded {MAX_WINDOW:g} time units"
            )
        if iterations > MAX_ITERATIONS:
            raise BusyWindowDivergence(
                model.target.name, q, f"no fixed point after {iterations} steps"
            )
        horizon = total


#: Per-q outcome of :func:`_busy_times_block`: the busy time, or the
#: divergence the equivalent scalar call would have raised.
BusyOutcome = Union[float, BusyWindowDivergence]


def _busy_times_block(
    model: _InterferenceModel,
    qs: Sequence[int],
    *,
    combination_cost: float = 0.0,
    seeds: Optional[Mapping[int, float]] = None,
) -> Dict[int, BusyOutcome]:
    """Theorem 1 fixed points of many ``q`` of ``model``'s target, with
    per-``q`` failure capture: ``{q: busy time | BusyWindowDivergence}``.

    Behind :func:`busy_times`: one :class:`_InterferenceModel` serves
    every ``q``, each ``q`` runs :func:`_fixed_point` seeded from the
    larger of ``seeds[q]`` and the fixed point of ``q - 1`` when the
    block has it, and a diverging ``q`` becomes a recorded
    :class:`BusyWindowDivergence` instead of ending the block.
    """
    order = []
    seen = set()
    for q in qs:
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        if q not in seen:
            seen.add(q)
            order.append(q)
    outcomes: Dict[int, BusyOutcome] = {}
    for q in order:
        seed = None if seeds is None else seeds.get(q)
        below = outcomes.get(q - 1)
        if below is not None and not isinstance(below, BusyWindowDivergence):
            if seed is None or below > seed:
                seed = below
        try:
            outcomes[q] = _fixed_point(model, q, seed, combination_cost)
        except BusyWindowDivergence as exc:
            outcomes[q] = exc
    return outcomes


def busy_times(
    system: System,
    target: TaskChain,
    qs: Sequence[int],
    *,
    include_overload: bool = True,
    combination_cost: float = 0.0,
    seeds: Optional[Mapping[int, float]] = None,
) -> Dict[int, BusyTimeBreakdown]:
    """Batched :func:`busy_time` over a whole ``q`` range.

    Bit-identical to calling :func:`busy_time` per ``q`` — same
    converged breakdowns (``iterations`` is the one diagnostic allowed
    to differ; it is 0 here) — but the whole range shares a single
    interference structure.  The fixed points are found on totals
    alone; each breakdown is evaluated once, at its fixed point.
    Raises :class:`BusyWindowDivergence` for the smallest diverging
    ``q``, matching an ascending scalar loop.
    """
    model = _InterferenceModel(system, target, include_overload)
    outcomes = _busy_times_block(
        model, qs, combination_cost=combination_cost, seeds=seeds
    )
    for q in sorted(outcomes):
        if isinstance(outcomes[q], BusyWindowDivergence):
            raise outcomes[q]
    return {q: model.evaluate(q, outcomes[q], combination_cost) for q in qs}


def typical_busy_time(
    system: System, target: TaskChain, q: int, combination_cost: float = 0.0
) -> BusyTimeBreakdown:
    """Eq. (3): the busy time with overload chains replaced by an
    explicit combination cost (fixed-point form)."""
    return busy_time(
        system, target, q, include_overload=False, combination_cost=combination_cost
    )


def criterion_loads(
    system: System,
    target: TaskChain,
    qs: Iterable[int],
    *,
    model: Optional[_InterferenceModel] = None,
) -> Dict[int, float]:
    """Batched ``L_b(q)`` of Eq. (4) over a whole ``q`` range.

    Byte-identical to calling :func:`criterion_load` per ``q`` — same
    arithmetic — but the interferer classification and deferred-segment
    scans are performed once for the entire range instead of once per
    ``q``.  ``model``: the caller's ``include_overload=False`` model.
    """
    if not target.has_deadline:
        raise ValueError(f"L_b(q) needs a finite deadline for chain {target.name!r}")
    order = tuple(qs)
    loads: Dict[int, float] = {}
    if model is None:
        model = _InterferenceModel(system, target, include_overload=False)
    for q in order:
        if q in loads:
            continue
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        horizon = target.activation.delta_minus(q) + target.deadline
        loads[q] = model.total(q, horizon)
    return {q: loads[q] for q in order}


def criterion_load(system: System, target: TaskChain, q: int) -> float:
    """``L_b(q)`` of Eq. (4): the typical interference evaluated over the
    fixed window ``delta_minus_b(q) + D_b``."""
    return criterion_loads(system, target, (q,))[q]
