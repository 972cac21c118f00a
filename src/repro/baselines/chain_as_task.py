"""Naive baseline: collapse chains to single tasks.

Before the paper, the only way to get weakly-hard guarantees for a chain
was to ignore the dependency structure and fall back to independent-task
TWCA.  The *sound* collapse is direction-dependent: when analyzing chain
X, X itself must be modelled at its **minimum** priority (any of its
tasks can be stalled at that level) while every other chain must be
modelled at its **maximum** priority (any of its tasks might preempt X).
Anything less pessimistic can miss real interference.

This throws away exactly the structure Sec. IV exploits (segments
confining deferred interference), so its latencies and DMMs are never
tighter than the chain-aware analysis — the gap is quantified in
``benchmarks/bench_ablation_segments.py``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..analysis.twca import ChainTwcaResult
from ..model import System
from .rta import AnalyzedTask
from .twca_tasks import analyze_task_twca


def collapse_system(system: System, target_name: str = None) -> List[AnalyzedTask]:
    """One :class:`AnalyzedTask` per chain: summed WCET; the target
    chain (if given) at its minimum priority, all others at their
    maximum priority — the sound pessimistic collapse for analyzing
    ``target_name``."""
    tasks = []
    for chain in system.chains:
        if target_name is not None and chain.name == target_name:
            priority = chain.min_priority
        else:
            priority = chain.max_priority
        tasks.append(
            AnalyzedTask(
                name=chain.name,
                priority=priority,
                wcet=chain.total_wcet,
                activation=chain.activation,
                deadline=chain.deadline,
            )
        )
    return tasks


def analyze_collapsed_twca(system: System, chain_name: str) -> ChainTwcaResult:
    """TWCA of ``chain_name`` in its collapsed (chain-as-task) view."""
    tasks = collapse_system(system, target_name=chain_name)
    overload = [c.name for c in system.overload_chains]
    return analyze_task_twca(tasks, chain_name, overload)


def collapsed_dmm_table(
    system: System, chain_name: str, ks: Sequence[int]
) -> Dict[int, int]:
    """Convenience: the collapsed baseline's DMM over several windows."""
    result = analyze_collapsed_twca(system, chain_name)
    return {k: result.dmm(k) for k in ks}
