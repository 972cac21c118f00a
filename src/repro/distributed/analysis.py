"""Global analysis of distributed chain systems.

The classic CPA outer loop around the paper's uniprocessor analyses:

1. decompose every distributed chain into per-resource *legs*;
2. analyze each leg locally (Theorem 1/2) under the current input
   event models;
3. derive each leg's output event model (jitter propagation,
   :mod:`repro.distributed.propagation`) and feed it to the next leg;
4. repeat until the event models — and hence the leg latencies —
   converge (the loop is monotone: jitters only grow).

End-to-end results compose the converged legs:

* worst-case end-to-end latency = sum of leg WCLs (the standard
  compositional bound);
* end-to-end deadline miss model = sum of per-leg DMMs under a split
  of the deadline into per-leg budgets (a union bound: if the chain
  misses, at least one leg overran its budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.exceptions import (
    AnalysisError,
    BusyWindowDivergence,
    NotAnalyzable,
)
from ..analysis.latency import LatencyResult, analyze_latency
from ..analysis.twca import analyze_twca
from ..arrivals import EventModel
from ..model import System, TaskChain
from .model import DistributedSystem
from .propagation import propagate

#: Cap on the global convergence loop.
MAX_GLOBAL_ITERATIONS = 64


@dataclass
class LegResult:
    """One converged leg of a distributed chain."""

    chain_name: str
    index: int
    resource: str
    local_chain: TaskChain
    input_model: EventModel
    latency: LatencyResult

    @property
    def wcl(self) -> float:
        return self.latency.wcl

    @property
    def bcl(self) -> float:
        """Best-case leg latency: uninterrupted best-case execution."""
        return sum(t.bcet for t in self.local_chain.tasks)


@dataclass
class ChainEndToEndResult:
    """End-to-end view of one distributed chain after convergence."""

    chain_name: str
    deadline: float
    legs: List[LegResult]

    @property
    def wcl(self) -> float:
        """End-to-end worst-case latency (sum of converged leg WCLs)."""
        return sum(leg.wcl for leg in self.legs)

    @property
    def meets_deadline(self) -> bool:
        return self.wcl <= self.deadline

    def leg_budgets(self) -> List[float]:
        """Per-leg deadline budgets: each leg's typical demand plus a
        proportional share of the end-to-end slack.

        Budgets sum to the deadline.  Raises ``NotAnalyzable`` for
        chains without a finite deadline.
        """
        if math.isinf(self.deadline):
            raise NotAnalyzable(f"chain {self.chain_name!r} has no finite deadline")
        costs = [max(leg.bcl, 1e-12) for leg in self.legs]
        total = sum(costs)
        slack = self.deadline - total
        if slack < 0:
            # Budgets below the best case are useless; scale down
            # proportionally anyway (every leg will look missed, which
            # is the honest verdict).
            return [self.deadline * c / total for c in costs]
        return [c + slack * c / total for c in costs]


@dataclass
class DistributedAnalysisResult:
    """Output of :func:`analyze_distributed`."""

    system: DistributedSystem
    chains: Dict[str, ChainEndToEndResult]
    resource_systems: Dict[str, System]
    iterations: int

    def __getitem__(self, chain_name: str) -> ChainEndToEndResult:
        return self.chains[chain_name]


def _leg_chain_name(chain_name: str, index: int) -> str:
    return f"{chain_name}#leg{index}"


def _build_resource_systems(
    dsystem: DistributedSystem,
    models: Dict[Tuple[str, int], EventModel],
    budgets: Optional[Dict[Tuple[str, int], float]] = None,
) -> Dict[str, System]:
    """Local uniprocessor systems, one per resource, with the given
    per-leg activation models (and optional per-leg deadlines)."""
    per_resource: Dict[str, List[TaskChain]] = {
        resource: [] for resource in dsystem.resources
    }
    for chain in dsystem.chains:
        for index, (resource, tasks) in enumerate(chain.legs()):
            key = (chain.name, index)
            deadline = math.inf
            if budgets is not None and key in budgets:
                deadline = budgets[key]
            per_resource[resource].append(
                TaskChain(
                    _leg_chain_name(chain.name, index),
                    tasks,
                    models[key],
                    deadline,
                    chain.kind,
                    chain.overload,
                )
            )
    return {
        resource: System(
            chains,
            name=f"{dsystem.name}@{resource}",
            allow_shared_priorities=True,
        )
        for resource, chains in per_resource.items()
        if chains
    }


def analyze_distributed(
    dsystem: DistributedSystem, *, max_iterations: int = MAX_GLOBAL_ITERATIONS
) -> DistributedAnalysisResult:
    """Run the global fixed-point analysis over all resources.

    Raises
    ------
    BusyWindowDivergence
        If a resource is overloaded or the global loop does not
        converge within ``max_iterations``.
    """
    # Initial models: every leg sees its chain's source model
    # (zero-distortion optimistic start; the loop only inflates).
    models: Dict[Tuple[str, int], EventModel] = {}
    for chain in dsystem.chains:
        for index, _ in enumerate(chain.legs()):
            models[(chain.name, index)] = chain.activation

    previous_wcls: Optional[Dict[Tuple[str, int], float]] = None
    for iteration in range(1, max_iterations + 1):
        systems = _build_resource_systems(dsystem, models)
        wcls: Dict[Tuple[str, int], float] = {}
        latencies: Dict[Tuple[str, int], LatencyResult] = {}
        # Local analyses under current models.
        for resource, system in systems.items():
            for local in system.chains:
                base_name, leg_tag = local.name.rsplit("#leg", 1)
                key = (base_name, int(leg_tag))
                result = analyze_latency(system, local)
                wcls[key] = result.wcl
                latencies[key] = result
        # Re-derive downstream models.
        new_models = dict(models)
        for chain in dsystem.chains:
            legs = chain.legs()
            model = chain.activation
            for index, (resource, tasks) in enumerate(legs):
                key = (chain.name, index)
                new_models[key] = model
                bcl = sum(t.bcet for t in tasks)
                model = propagate(
                    model, wcls[key], bcl, last_task_bcet=tasks[-1].bcet
                )
        if previous_wcls == wcls and all(
            new_models[k] == models[k] for k in models
        ):
            break
        models = new_models
        previous_wcls = wcls
    else:
        raise BusyWindowDivergence(
            dsystem.name,
            max_iterations,
            "global event-model iteration did not converge",
        )

    chains: Dict[str, ChainEndToEndResult] = {}
    for chain in dsystem.chains:
        legs = []
        for index, (resource, tasks) in enumerate(chain.legs()):
            key = (chain.name, index)
            system = systems[resource]
            legs.append(
                LegResult(
                    chain_name=chain.name,
                    index=index,
                    resource=resource,
                    local_chain=system[_leg_chain_name(chain.name, index)],
                    input_model=models[key],
                    latency=latencies[key],
                )
            )
        chains[chain.name] = ChainEndToEndResult(
            chain_name=chain.name, deadline=chain.deadline, legs=legs
        )
    return DistributedAnalysisResult(
        system=dsystem, chains=chains, resource_systems=systems, iterations=iteration
    )


def distributed_dmm(
    dsystem: DistributedSystem,
    chain_name: str,
    k: int,
    *,
    analysis: Optional[DistributedAnalysisResult] = None,
) -> int:
    """End-to-end deadline miss bound for a distributed chain.

    Splits the end-to-end deadline into per-leg budgets, runs the
    paper's TWCA per leg against its budget, and sums the per-leg
    bounds (union bound), clamped to ``k``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if analysis is None:
        analysis = analyze_distributed(dsystem)
    e2e = analysis[chain_name]
    if e2e.meets_deadline:
        return 0
    budgets = e2e.leg_budgets()
    # Rebuild the resource systems with the budget deadlines attached.
    models = {
        (c.name, i): (
            analysis[c.name].legs[i].input_model
            if c.name in analysis.chains
            else c.activation
        )
        for c in dsystem.chains
        for i, _ in enumerate(c.legs())
    }
    budget_map = {(chain_name, i): budget for i, budget in enumerate(budgets)}
    systems = _build_resource_systems(dsystem, models, budget_map)
    total = 0
    for index, leg in enumerate(e2e.legs):
        system = systems[leg.resource]
        local = system[_leg_chain_name(chain_name, index)]
        try:
            result = analyze_twca(system, local)
        except AnalysisError:
            return k
        total += result.dmm(k)
        if total >= k:
            return k
    return min(total, k)
