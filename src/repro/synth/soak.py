"""Deterministic soak-scale simulation workloads.

The simulator's numpy calendar backend retires *isolated* activations
(idle processor before and after) in batch array operations; realistic
long-horizon traces are exactly that — moderate utilization with
occasional contention bursts.  This module builds such a workload
deterministically: co-prime-ish integer periods (so release collisions
are rare and the activation pattern never locks into a short cycle),
golden-ratio staggered stream offsets, and a utilization low enough
that most instances run alone while preemption clusters still occur
whenever the staggered streams drift into alignment.

Used by the ``sim_soak`` section of ``bench_twca_hotpath`` and the
calendar parity tests; everything is a pure function of the arguments,
so two runs produce byte-identical systems and streams.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..model import ChainKind, System, Task, TaskChain

#: Pairwise co-prime periods (primes), ascending — rate-monotonic
#: priorities fall out of the pool order.
_PERIOD_POOL = (
    97,
    131,
    173,
    211,
    257,
    313,
    367,
    419,
    479,
    541,
    601,
    659,
    733,
    809,
    863,
    941,
)

#: Fractional part of the golden ratio; multiples mod 1 spread stream
#: offsets as evenly as possible (three-distance theorem).
_GOLDEN = 0.6180339887498949


def soak_system(
    chains: int = 12,
    tasks_per_chain: int = 3,
    utilization: float = 0.08,
    name: str = "soak",
) -> System:
    """A deterministic system tuned for soak simulation.

    ``chains`` periodic chains with pairwise co-prime periods drawn
    from a fixed prime pool, rate-monotonic priorities, alternating
    synchronous/asynchronous semantics, and total utilization
    ``utilization`` split evenly across chains (tasks within a chain
    get linearly growing shares).  Deadlines sit at twice the chain's
    demand, so isolated instances always meet them and only contention
    clusters produce misses — giving the miss metrics something to
    count.
    """
    from ..arrivals import PeriodicModel

    if not 1 <= chains <= len(_PERIOD_POOL):
        raise ValueError(f"chains must lie in [1, {len(_PERIOD_POOL)}], got {chains}")
    if tasks_per_chain < 1:
        raise ValueError("tasks_per_chain must be positive")
    if not 0 < utilization < 1:
        raise ValueError("utilization must lie in (0, 1)")
    built: List[TaskChain] = []
    top_priority = chains * tasks_per_chain
    weight_total = tasks_per_chain * (tasks_per_chain + 1) // 2
    for index in range(chains):
        period = _PERIOD_POOL[index]
        budget = utilization / chains * period
        tasks = []
        for k in range(tasks_per_chain):
            tasks.append(
                Task(
                    name=f"c{index}.t{k}",
                    priority=top_priority - (index * tasks_per_chain + k),
                    wcet=budget * (k + 1) / weight_total,
                )
            )
        built.append(
            TaskChain(
                name=f"c{index}",
                tasks=tasks,
                activation=PeriodicModel(period=period),
                deadline=2.0 * budget,
                kind=ChainKind.SYNCHRONOUS if index % 2 else ChainKind.ASYNCHRONOUS,
            )
        )
    return System(built, name=name)


def soak_activations(
    system: System, events: int
) -> Tuple[Dict[str, List[float]], float]:
    """Worst-case streams with golden-ratio staggered offsets totalling
    at least ``events`` activations.

    Returns ``(activations, horizon)`` ready for ``Simulator.run``.
    The horizon is sized from the chains' aggregate activation rate
    with enough headroom that the staggered offsets cannot drop the
    total below ``events``.
    """
    from ..sim.activations import worst_case_stream

    if events < 1:
        raise ValueError("events must be positive")
    rate = sum(chain.activation.rate() for chain in system.chains)
    if rate <= 0:
        raise ValueError("system has no activation rate")
    horizon = (events + 2 * len(system.chains)) / rate
    activations: Dict[str, List[float]] = {}
    for index, chain in enumerate(system.chains):
        period = chain.activation.delta_minus(2)
        offset = (index + 1) * _GOLDEN % 1.0 * period
        activations[chain.name] = worst_case_stream(
            chain.activation, horizon, offset
        )
    return activations, horizon


def soak_workload(
    events: int = 1_000_000,
    chains: int = 12,
    tasks_per_chain: int = 3,
    utilization: float = 0.08,
) -> Tuple[System, Dict[str, List[float]], float]:
    """System plus activation streams for one soak run — the workload
    of the ``sim_soak`` benchmark section."""
    system = soak_system(
        chains=chains, tasks_per_chain=tasks_per_chain, utilization=utilization
    )
    activations, horizon = soak_activations(system, events)
    return system, activations, horizon
