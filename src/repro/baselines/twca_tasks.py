"""Independent-task TWCA (the state of the art the paper extends).

Reimplements the deadline-miss-model computation of Xu et al.,
ECRTS 2015 [10] for systems of *independent* tasks: combinations are
subsets of overload tasks, one overload activation hits one busy window,
and the DMM is the same packing ILP as Theorem 3 with tasks in place of
active segments.

Internally each task is wrapped into a single-task chain and fed to the
chain analysis — for chains of length one the two theories coincide, so
this adapter is simultaneously the baseline implementation and a
consistency check of the generalization.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from ..analysis.twca import ChainTwcaResult, analyze_twca
from ..model import ChainKind, System, Task, TaskChain
from .rta import AnalyzedTask


def tasks_to_system(
    tasks: Sequence[AnalyzedTask],
    overload_names: Sequence[str],
    name: str = "independent-tasks",
) -> System:
    """Wrap independent tasks into a system of single-task chains."""
    overload = set(overload_names)
    unknown = overload.difference(t.name for t in tasks)
    if unknown:
        raise ValueError(f"unknown overload tasks: {sorted(unknown)}")
    chains = []
    for task in tasks:
        chains.append(
            TaskChain(
                name=f"chain[{task.name}]",
                tasks=[Task(task.name, task.priority, task.wcet)],
                activation=task.activation,
                deadline=task.deadline,
                kind=ChainKind.SYNCHRONOUS,
                overload=task.name in overload,
            )
        )
    return System(chains, name=name)


def analyze_task_twca(
    tasks: Sequence[AnalyzedTask],
    target_name: str,
    overload_names: Sequence[str],
) -> ChainTwcaResult:
    """Independent-task TWCA for ``target_name`` (Xu et al. [10]).

    Returns the same result object as the chain analysis; ``dmm(k)`` is
    the deadline miss model.
    """
    system = tasks_to_system(tasks, overload_names)
    return analyze_twca(system, system[f"chain[{target_name}]"])


def analyze_all_task_twca(
    tasks: Sequence[AnalyzedTask],
    overload_names: Sequence[str],
) -> Dict[str, ChainTwcaResult]:
    """DMMs for every non-overload task with a finite deadline."""
    overload = set(overload_names)
    results: Dict[str, ChainTwcaResult] = {}
    for task in tasks:
        if task.name in overload or math.isinf(task.deadline):
            continue
        results[task.name] = analyze_task_twca(tasks, task.name, overload_names)
    return results
