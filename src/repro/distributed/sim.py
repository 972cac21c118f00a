"""Discrete-event simulation of distributed chain systems.

Generalizes the uniprocessor engine to multiple SPP resources running
in parallel: each resource independently executes the highest-priority
ready job mapped to it, and a chain instance migrates across resources
as its tasks complete.  Semantics mirror :mod:`repro.sim.engine`:

* synchronous chains serialize instances end-to-end;
* per-task FIFO ordering across instances;
* deadline-agnostic execution;
* completions at an instant precede arrivals at that instant
  (the half-open window convention of the analyses).

Used to validate the distributed analysis empirically — leg and
end-to-end latencies must stay below the converged bounds.

:meth:`DistributedSimulator.run` returns the single-CPU simulator's
:class:`~repro.sim.engine.SimulationResult`, with the same queries and
exports.  It records task finishes and finishes only: every record's
``start`` is ``None``, and there are no execution slices.

Every run is fast-forwarded with the same numpy event-calendar
classification as :mod:`repro.sim.calendar`: the
serialized busy-finish prefix scan remains a sound bound here because
the multi-resource loop is globally work-conserving (whenever work is
pending, the earliest unfinished instance of some chain has a ready
job, so at least one resource is busy and total work drains at rate
>= 1).  Instances isolated behind the conservative margin execute
alone across all resources, so their task finishes are the plain
sequential float sums the scalar loop would compute; contended
stretches replay through the identical scalar loop seeded with the
per-task FIFO counters.  Results are bit-identical to running the
scalar loop (:meth:`DistributedSimulator._event_loop`) over the whole
horizon, which is the oracle of the calendar tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sim.calendar import isolation_mask
from ..sim.engine import SimulationResult, release_times
from ..sim.metrics import worst_case_activations
from .model import DistributedChain, DistributedSystem


@dataclass
class _Job:
    chain: DistributedChain
    task_index: int
    instance: int
    remaining: float

    @property
    def mapped(self):
        return self.chain.tasks[self.task_index]

    @property
    def priority(self) -> float:
        return self.mapped.task.priority

    @property
    def task_name(self) -> str:
        return self.mapped.name

    @property
    def resource(self) -> str:
        return self.mapped.resource


class DistributedSimulator:
    """Event-driven simulation over all resources of a system."""

    def __init__(self, system: DistributedSystem):
        self.system = system

    def run(
        self, activations: Dict[str, Sequence[float]], horizon: float
    ) -> SimulationResult:
        streams = release_times(self.system, activations, horizon)
        result = SimulationResult(self.system, horizon, streams)
        releases: List[Tuple[float, DistributedChain, int]] = []
        for chain in self.system.chains:
            times = streams[chain.name].tolist()
            releases.extend((t, chain, i) for i, t in enumerate(times))
        releases.sort(key=lambda item: item[0])

        if releases:
            self._run_calendar(result, releases)
        return result

    def _run_calendar(
        self,
        result: SimulationResult,
        releases: List[Tuple[float, DistributedChain, int]],
    ) -> None:
        """Fast-forward isolated instances; scalar-replay the rest.

        Mirrors :func:`repro.sim.calendar.run_calendar` and shares its
        classifier, :func:`~repro.sim.calendar.isolation_mask`;
        misclassification only routes releases to the exact scalar loop.
        """
        chains = self.system.chains
        chain_index = {chain.name: c for c, chain in enumerate(chains)}
        t = np.asarray([item[0] for item in releases])
        cid = np.asarray([chain_index[item[1].name] for item in releases])
        inst = np.asarray([item[2] for item in releases])

        exec_times = [
            [float(mapped.task.wcet) for mapped in chain.tasks] for chain in chains
        ]
        chain_work = np.asarray([sum(w) for w in exec_times])
        fast = isolation_mask(t, chain_work[cid])

        fast_idx = np.flatnonzero(fast)
        if fast_idx.size:
            fast_cid = cid[fast_idx]
            for c, chain in enumerate(chains):
                sel = fast_idx[fast_cid == c]
                if not sel.size:
                    continue
                instances = inst[sel]
                clock = t[sel]
                task_fin = result.task_fin[chain.name]
                for k, wcet in enumerate(exec_times[c]):
                    # The loop runs a released header one step, but
                    # cascades a successor of budget <= 1e-12 at its
                    # predecessor's finish.
                    if k == 0 or wcet > 1e-12:
                        clock = clock + wcet
                    task_fin[k, instances] = clock
                result.finish[chain.name][instances] = clock

        slow_idx = np.flatnonzero(~fast)
        if slow_idx.size:
            slow = [releases[i] for i in slow_idx.tolist()]
            cuts = np.flatnonzero(np.diff(slow_idx) > 1) + 1
            bounds = [0, *cuts.tolist(), len(slow)]
            for lo, hi in zip(bounds, bounds[1:]):
                pending = slow[lo:hi]
                task_turn: Dict[str, int] = {}
                for _, chain, instance in pending:
                    if chain.tasks[0].name not in task_turn:
                        for mapped in chain.tasks:
                            task_turn[mapped.name] = instance
                self._event_loop(pending, result, task_turn)

    def _event_loop(
        self,
        releases: List[Tuple[float, DistributedChain, int]],
        result: SimulationResult,
        task_turn: Dict[str, int],
    ) -> None:
        ready: Dict[str, List[_Job]] = {r: [] for r in self.system.resources}
        sync_busy: Dict[str, bool] = {c.name: False for c in self.system.chains}
        sync_backlog: Dict[str, List[_Job]] = {
            c.name: [] for c in self.system.chains
        }
        fifo_backlog: Dict[str, List[_Job]] = {}
        release_index = 0
        time = 0.0

        def admit(job: _Job) -> None:
            turn = task_turn.setdefault(job.task_name, 0)
            if job.instance == turn:
                ready[job.resource].append(job)
            else:
                fifo_backlog.setdefault(job.task_name, []).append(job)

        def release_header(chain: DistributedChain, instance: int) -> None:
            job = _Job(chain, 0, instance, float(chain.tasks[0].task.wcet))
            if chain.kind.value == "synchronous":
                if sync_busy[chain.name]:
                    sync_backlog[chain.name].append(job)
                    return
                sync_busy[chain.name] = True
            admit(job)

        def finish_job(job: _Job, at: float) -> None:
            chain_name = job.chain.name
            result.task_fin[chain_name][job.task_index, job.instance] = at
            task_turn[job.task_name] = job.instance + 1
            queued = fifo_backlog.get(job.task_name, [])
            for i, blocked in enumerate(queued):
                if blocked.instance == job.instance + 1:
                    ready[blocked.resource].append(queued.pop(i))
                    break
            if job.task_index + 1 < len(job.chain.tasks):
                nxt = job.chain.tasks[job.task_index + 1]
                admit(
                    _Job(
                        job.chain,
                        job.task_index + 1,
                        job.instance,
                        float(nxt.task.wcet),
                    )
                )
                return
            result.finish[chain_name][job.instance] = at
            if job.chain.kind.value == "synchronous":
                backlog = sync_backlog[chain_name]
                if backlog:
                    admit(backlog.pop(0))
                else:
                    sync_busy[chain_name] = False

        def top_of(resource: str) -> Optional[_Job]:
            jobs = ready[resource]
            if not jobs:
                return None
            return max(jobs, key=lambda j: (j.priority, -j.instance))

        iterations = 0
        while True:
            iterations += 1
            if iterations > 10_000_000:
                raise RuntimeError("distributed simulation stalled")
            # Completions at `time` precede arrivals at `time`.
            progressed = True
            while progressed:
                progressed = False
                for resource in self.system.resources:
                    top = top_of(resource)
                    if top is not None and top.remaining <= 1e-12:
                        ready[resource].remove(top)
                        finish_job(top, time)
                        progressed = True

            while release_index < len(releases) and releases[release_index][0] <= time:
                _, chain, instance = releases[release_index]
                release_header(chain, instance)
                release_index += 1

            running = [top_of(r) for r in self.system.resources]
            running = [job for job in running if job is not None]
            if not running:
                if release_index >= len(releases):
                    break
                time = releases[release_index][0]
                continue

            next_arrival = (
                releases[release_index][0]
                if release_index < len(releases)
                else math.inf
            )
            if next_arrival - time <= 1e-9:
                time = next_arrival
                continue
            step = min(min(job.remaining for job in running), next_arrival - time)
            if step <= 0:
                # Zero-remaining jobs were drained above; this is a
                # float-residue case — close the smallest job out.
                smallest = min(running, key=lambda j: j.remaining)
                ready[smallest.resource].remove(smallest)
                finish_job(smallest, time)
                continue
            for job in running:
                job.remaining -= step
            time += step
            for job in running:
                if job.remaining <= 1e-12:
                    ready[job.resource].remove(job)
                    finish_job(job, time)


#: Critical-instant streams for every chain of a distributed system:
#: the single-CPU helper, which reads only each chain's activation model.
worst_case_distributed_activations = worst_case_activations
