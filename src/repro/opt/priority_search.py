"""Priority-assignment search on top of the TWCA.

Experiment 2 demonstrates that the priority assignment decides whether a
chain is schedulable, weakly-hard-guaranteeable, or hopeless.  This
module turns that observation into tooling: search the permutation space
for assignments minimizing the deadline miss bound of selected chains.

Two strategies are provided:

* :func:`random_search` — sample random permutations (the Experiment 2
  setup) and keep the best;
* :func:`hill_climb` — local search by pairwise priority swaps, seeded
  by a random or current assignment.

Both route their candidate evaluations through a
:class:`repro.runner.BatchRunner` when one is passed: random search
fans the independent candidate evaluations out over the runner's worker
processes (results are identical to the serial path), while hill
climbing — inherently sequential — evaluates in-process through
:meth:`~repro.runner.BatchRunner.analyze`.  Either way each evaluation
is a batch job behind the runner's result cache, so a candidate hill
climbing revisits is served its whole stored result instead of being
analyzed again.

A runner built with ``cache_dir`` backs those results with the
persistent cross-process cache: candidates revisited by a *rerun* of
the whole search, e.g. with a larger sample budget, are served from
disk, regardless of which worker process they land on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.exceptions import AnalysisError
from ..analysis.twca import analyze_twca
from ..model import System
from ..synth.priorities import random_assignment


@dataclass
class SearchResult:
    """Best assignment found and its score trace."""

    assignment: Dict[str, float]
    score: float
    evaluations: int
    history: List[float]

    def apply(self, system: System) -> System:
        """The system under the found assignment."""
        return system.with_priorities(self.assignment)


@dataclass(frozen=True)
class DmmObjective:
    """Summed ``dmm(k)`` over ``chain_names``; schedulable chains
    contribute 0, no-guarantee chains and analysis errors contribute
    ``k`` (the vacuous bound).  Lower is better.

    A plain callable (drop-in for the old closure form of
    :func:`dmm_objective`), but introspectable — which is what lets the
    searches decompose it into independent per-chain batch jobs.
    """

    chain_names: Tuple[str, ...]
    k: int = 10

    def __call__(self, system: System) -> float:
        total = 0.0
        for name in self.chain_names:
            try:
                result = analyze_twca(system, system[name])
            except AnalysisError:
                total += self.k
                continue
            total += result.dmm(self.k)
        return total


def dmm_objective(chain_names: Sequence[str], k: int = 10) -> DmmObjective:
    """Objective: summed ``dmm(k)`` over ``chain_names``; schedulable
    chains contribute 0, no-guarantee chains contribute ``k`` (their
    vacuous bound).  Lower is better."""
    return DmmObjective(tuple(chain_names), k)


def _require_dmm_objective(objective: Callable[[System], float]) -> DmmObjective:
    """Checked downcast: runner-backed searches need the decomposable
    objective form, not a generic callable."""
    if not isinstance(objective, DmmObjective):
        raise TypeError(
            "runner-backed search needs a DmmObjective (from "
            "dmm_objective()); got a generic callable"
        )
    return objective


def _runner_evaluator(
    objective: Callable[[System], float], runner
) -> Callable[[System], float]:
    """The objective routed through a runner's cached in-process
    evaluation (requires a decomposable :class:`DmmObjective`)."""
    objective = _require_dmm_objective(objective)
    return lambda system: runner.evaluate_dmm(
        system, objective.chain_names, objective.k
    )


def _batch_scores(
    objective: DmmObjective, runner, systems: List[System]
) -> List[float]:
    """Score many candidate systems in one parallel batch.

    Per-job scoring delegates to ``JobResult.score`` so the vacuous
    error bound stays identical to ``BatchRunner.evaluate_dmm``."""
    chains = list(objective.chain_names)
    batch = runner.run_systems(systems, chains, ks=(objective.k,))
    scores: List[float] = []
    width = len(chains)
    for index in range(len(systems)):
        jobs = batch.jobs[index * width : (index + 1) * width]
        scores.append(sum(job.score(objective.k) for job in jobs))
    return scores


def current_assignment(system: System) -> Dict[str, float]:
    """The system's priority map (task name -> priority)."""
    return {task.name: task.priority for task in system.tasks}


def random_search(
    system: System,
    objective: Callable[[System], float],
    samples: int,
    rng: random.Random,
    *,
    runner=None,
) -> SearchResult:
    """Evaluate ``samples`` random permutations; keep the best.

    With a :class:`repro.runner.BatchRunner`, the candidate evaluations
    — independent by construction — are fanned out over its worker
    processes in one batch; the candidates, scores and returned result
    are identical to the serial path (same RNG consumption, same
    fold order).  Requires a :class:`DmmObjective`.
    """
    if runner is not None:
        objective = _require_dmm_objective(objective)
        candidates = [random_assignment(system, rng) for _ in range(samples)]
        systems = [system] + [
            system.with_priorities(candidate) for candidate in candidates
        ]
        scores = _batch_scores(objective, runner, systems)
        best_assignment = current_assignment(system)
        best_score = scores[0]
        history = [best_score]
        for candidate, score in zip(candidates, scores[1:]):
            if score < best_score:
                best_score = score
                best_assignment = candidate
            history.append(best_score)
        return SearchResult(best_assignment, best_score, samples + 1, history)

    best_assignment = current_assignment(system)
    best_score = objective(system)
    history = [best_score]
    for _ in range(samples):
        candidate = random_assignment(system, rng)
        score = objective(system.with_priorities(candidate))
        if score < best_score:
            best_score = score
            best_assignment = candidate
        history.append(best_score)
    return SearchResult(best_assignment, best_score, samples + 1, history)


def hill_climb(
    system: System,
    objective: Callable[[System], float],
    rng: random.Random,
    *,
    max_rounds: int = 50,
    seed_assignment: Optional[Dict[str, float]] = None,
    runner=None,
) -> SearchResult:
    """Pairwise-swap local search.

    Starting from ``seed_assignment`` (default: the system's own), try
    swapping the priorities of random task pairs; accept improvements,
    stop after a full round without one (or ``max_rounds``).

    A :class:`repro.runner.BatchRunner` routes every evaluation through
    the runner's result cache, so a revisited candidate is not analyzed
    again (the search itself stays sequential — each acceptance changes
    the next candidate — so the trajectory is identical to the plain
    path).
    """
    if runner is not None:
        objective = _runner_evaluator(objective, runner)
    assignment = dict(seed_assignment or current_assignment(system))
    task_names = [task.name for task in system.tasks]
    best_score = objective(system.with_priorities(assignment))
    history = [best_score]
    evaluations = 1

    for _ in range(max_rounds):
        improved = False
        pairs = [
            (i, j)
            for i in range(len(task_names))
            for j in range(i + 1, len(task_names))
        ]
        rng.shuffle(pairs)
        for i, j in pairs:
            a, b = task_names[i], task_names[j]
            assignment[a], assignment[b] = assignment[b], assignment[a]
            score = objective(system.with_priorities(assignment))
            evaluations += 1
            if score < best_score:
                best_score = score
                history.append(score)
                improved = True
            else:
                assignment[a], assignment[b] = assignment[b], assignment[a]
        if not improved:
            break
        if best_score == 0:
            break
    return SearchResult(assignment, best_score, evaluations, history)
