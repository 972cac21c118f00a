"""Paths: end-to-end analysis across sequences of chains (footnote 1).

The paper's system model requires disjoint chains and notes (footnote 1)
that fork/join systems "can additionally define paths, i.e. sequences of
distinct task chains" — declared out of scope there.  This module
implements that extension on a single processor:

* a **path** is an ordered sequence of distinct chains of one system,
  where completing an instance of chain *i* triggers chain *i+1*;
* the activation model of each downstream chain is the *output* model
  of its predecessor (jitter propagation, shared with the distributed
  layer), iterated to a global fixed point;
* the path latency is the sum of the converged chain WCLs, and the
  path deadline miss model is the union bound over per-chain budget
  splits — both exactly as in :mod:`repro.distributed`.

Forks are supported implicitly: two paths may share a prefix chain
(each path is analyzed separately); joins require the joined chain to
appear in both paths.  Cycles are rejected by the distinctness check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..arrivals import EventModel
from ..distributed.propagation import propagate
from ..model import System, TaskChain
from .exceptions import AnalysisError, BusyWindowDivergence, NotAnalyzable
from .latency import LatencyResult, analyze_latency
from .twca import analyze_twca

#: Cap on the path fixed-point iteration.
MAX_PATH_ITERATIONS = 64


@dataclass(frozen=True)
class Path:
    """An ordered sequence of distinct chain names plus an end-to-end
    relative deadline."""

    name: str
    chain_names: Tuple[str, ...]
    deadline: float

    def __init__(self, name: str, chain_names: Sequence[str], deadline: float):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "chain_names", tuple(chain_names))
        object.__setattr__(self, "deadline", deadline)
        if not self.chain_names:
            raise ValueError(f"path {name}: needs at least one chain")
        if len(set(self.chain_names)) != len(self.chain_names):
            raise ValueError(f"path {name}: chains must be distinct (no cycles)")
        if deadline <= 0:
            raise ValueError(f"path {name}: deadline must be positive")


@dataclass
class PathStage:
    """One chain of the path after convergence."""

    chain_name: str
    input_model: EventModel
    latency: LatencyResult
    best_case: float

    @property
    def wcl(self) -> float:
        return self.latency.wcl


@dataclass
class PathResult:
    """Converged end-to-end view of a path."""

    path: Path
    stages: List[PathStage]
    system: System  # the system with converged activation models
    iterations: int

    @property
    def wcl(self) -> float:
        """End-to-end worst-case latency of the path."""
        return sum(stage.wcl for stage in self.stages)

    @property
    def meets_deadline(self) -> bool:
        return self.wcl <= self.path.deadline

    def stage_budgets(self) -> List[float]:
        """Per-chain deadline budgets summing to the path deadline,
        proportional to each stage's best-case demand."""
        costs = [max(stage.best_case, 1e-12) for stage in self.stages]
        total = sum(costs)
        slack = self.path.deadline - total
        if slack < 0:
            return [self.path.deadline * c / total for c in costs]
        return [c + slack * c / total for c in costs]


def _rebuild(system: System, activations: Dict[str, EventModel]) -> System:
    chains = []
    for chain in system.chains:
        if chain.name in activations:
            chains.append(chain.with_activation(activations[chain.name]))
        else:
            chains.append(chain)
    return System(chains, name=system.name, allow_shared_priorities=True)


def analyze_path(
    system: System, path: Path, *, max_iterations: int = MAX_PATH_ITERATIONS
) -> PathResult:
    """Fixed-point analysis of a path within ``system``.

    The chains named by the path must exist; downstream chains receive
    the propagated output models of their predecessors (their original
    activation models are treated as placeholders, as is usual in
    fork/join specifications).

    Raises
    ------
    BusyWindowDivergence
        If any busy window diverges or the loop does not converge.
    """
    for name in path.chain_names:
        if name not in system:
            raise NotAnalyzable(f"path {path.name}: no chain {name!r}")
        if system[name].overload:
            raise NotAnalyzable(
                f"path {path.name}: chain {name!r} is an overload chain"
            )

    activations: Dict[str, EventModel] = {}
    source = system[path.chain_names[0]].activation
    for name in path.chain_names:
        activations[name] = source  # optimistic start: undistorted

    current = _rebuild(system, activations)
    previous_wcls: Optional[List[float]] = None
    for iteration in range(1, max_iterations + 1):
        wcls: List[float] = []
        latencies: List[LatencyResult] = []
        for name in path.chain_names:
            result = analyze_latency(current, current[name])
            wcls.append(result.wcl)
            latencies.append(result)
        # Propagate downstream.
        model = source
        new_activations: Dict[str, EventModel] = {}
        for index, name in enumerate(path.chain_names):
            new_activations[name] = model
            chain = current[name]
            bcl = sum(t.bcet for t in chain.tasks)
            model = propagate(
                model, wcls[index], bcl, last_task_bcet=chain.tail.bcet
            )
        if previous_wcls == wcls and all(
            new_activations[n] == activations[n] for n in path.chain_names
        ):
            break
        activations = new_activations
        current = _rebuild(system, activations)
        previous_wcls = wcls
    else:
        raise BusyWindowDivergence(
            path.name, max_iterations, "path event-model iteration did not converge"
        )

    stages = []
    for index, name in enumerate(path.chain_names):
        chain = current[name]
        stages.append(
            PathStage(
                chain_name=name,
                input_model=activations[name],
                latency=latencies[index],
                best_case=sum(t.bcet for t in chain.tasks),
            )
        )
    return PathResult(path=path, stages=stages, system=current, iterations=iteration)


def path_dmm(
    system: System,
    path: Path,
    k: int,
    *,
    analysis: Optional[PathResult] = None,
) -> int:
    """End-to-end deadline miss bound for a path (union bound over the
    per-chain budget split), clamped to ``k``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if analysis is None:
        analysis = analyze_path(system, path)
    if analysis.meets_deadline:
        return 0
    budgets = analysis.stage_budgets()
    total = 0
    for stage, budget in zip(analysis.stages, budgets):
        base = analysis.system
        chains = []
        for chain in base.chains:
            if chain.name == stage.chain_name:
                chains.append(
                    TaskChain(
                        chain.name,
                        chain.tasks,
                        chain.activation,
                        budget,
                        chain.kind,
                        chain.overload,
                    )
                )
            else:
                chains.append(chain)
        budgeted = System(chains, name=base.name, allow_shared_priorities=True)
        try:
            result = analyze_twca(budgeted, budgeted[stage.chain_name])
        except AnalysisError:
            return k
        total += result.dmm(k)
        if total >= k:
            return k
    return min(total, k)
