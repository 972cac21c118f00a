"""The SPP event loop over a plain list: one ``max`` scan per pick.

Oracle of the production loop, :func:`repro.sim.engine.run_event_loop`,
which keeps the ready set in a binary heap.  Here every scheduling
decision scans the whole ready list for the job with the largest
``(priority, -release, -instance)``; ``max`` returns the *first*
maximal job in list order, and list order is the order of each job's
latest append (a preempted job is re-appended at the end), which is
the tie-break among jobs of equal priority, release and instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.model import TaskChain
from repro.sim.engine import (
    ExecutionSlice,
    InstanceRecord,
    SimulationResult,
    _ObjectStore,
)


@dataclass
class _Job:
    """One task of one chain instance, as seen by the scheduler."""

    chain: TaskChain
    task_index: int
    instance: int
    release: float
    remaining: float

    @property
    def priority(self) -> float:
        return self.chain.tasks[self.task_index].priority

    @property
    def task_name(self) -> str:
        return self.chain.tasks[self.task_index].name


def run_event_loop(
    pending_releases: List[Tuple[float, TaskChain, int]],
    execution_time: Callable[[TaskChain, int], float],
    store,
    slices: List[ExecutionSlice],
    task_turn: Dict[str, int],
) -> None:
    """The SPP event loop as a list of ready jobs and a ``max`` scan.

    ``pending_releases`` must be sorted by time; ``store`` receives the
    record lifecycle callbacks (``mark_start`` / ``task_finish`` /
    ``finish``); ``slices`` collects execution slices in chronological
    order; ``task_turn`` carries the per-task FIFO counters
    (:func:`simulate` starts it empty, so every turn starts at 0).
    """
    next_release_index = 0
    ready: List[_Job] = []
    chain_names = {chain.name for _, chain, _ in pending_releases}
    #: Instances of synchronous chains waiting for their predecessor.
    sync_backlog: Dict[str, List[_Job]] = {name: [] for name in chain_names}
    #: Whether an instance of a sync chain is currently in flight.
    sync_busy: Dict[str, bool] = {name: False for name in chain_names}
    #: Jobs blocked by the per-task FIFO order.
    fifo_backlog: Dict[str, List[_Job]] = {}

    time = 0.0

    def admit(job: _Job) -> None:
        """Place a job into the ready set, honouring per-task FIFO."""
        turn = task_turn.setdefault(job.task_name, 0)
        if job.instance == turn:
            ready.append(job)
        else:
            fifo_backlog.setdefault(job.task_name, []).append(job)

    def release_header(chain: TaskChain, instance: int, at: float) -> None:
        job = _Job(chain, 0, instance, at, execution_time(chain, 0))
        if chain.is_synchronous:
            if sync_busy[chain.name]:
                sync_backlog[chain.name].append(job)
                return
            sync_busy[chain.name] = True
        store.mark_start(chain.name, instance, at)
        admit(job)

    def finish_job(job: _Job, at: float) -> None:
        store.task_finish(
            job.chain.name, job.instance, job.task_index, job.task_name, at
        )
        task_turn[job.task_name] = job.instance + 1
        # Unblock the FIFO successor of this task, if queued.
        queued = fifo_backlog.get(job.task_name, [])
        for i, blocked in enumerate(queued):
            if blocked.instance == job.instance + 1:
                ready.append(queued.pop(i))
                break
        if job.task_index + 1 < len(job.chain.tasks):
            successor = _Job(
                job.chain,
                job.task_index + 1,
                job.instance,
                at,
                execution_time(job.chain, job.task_index + 1),
            )
            admit(successor)
            return
        # Chain instance complete.
        store.finish(job.chain.name, job.instance, at)
        if job.chain.is_synchronous:
            backlog = sync_backlog[job.chain.name]
            if backlog:
                nxt = backlog.pop(0)
                store.mark_start(job.chain.name, nxt.instance, at)
                admit(nxt)
            else:
                sync_busy[job.chain.name] = False

    max_iterations = 10_000_000
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            preview = [(j.task_name, j.instance, j.remaining) for j in ready[:5]]
            raise RuntimeError(
                "simulation did not terminate: "
                f"time={time!r}, ready={len(ready)}, "
                f"released {next_release_index}/{len(pending_releases)}, "
                f"ready_jobs={preview!r}"
            )
        # Half-open window convention (matches the eta_plus of the
        # analysis): work completing exactly at `time` finishes
        # *before* activations arriving exactly at `time` are seen.
        # Zero-remaining ready jobs therefore cascade to completion
        # first — but only while they are the highest-priority work.
        while ready:
            top = max(ready, key=lambda j: (j.priority, -j.release, -j.instance))
            if top.remaining <= 1e-12:
                ready.remove(top)
                finish_job(top, time)
            else:
                break

        # Release every activation due at or before `time`.
        while (
            next_release_index < len(pending_releases)
            and pending_releases[next_release_index][0] <= time
        ):
            at, chain, instance = pending_releases[next_release_index]
            release_header(chain, instance, at)
            next_release_index += 1

        if not ready:
            if next_release_index >= len(pending_releases):
                break  # no work left and no future releases
            time = pending_releases[next_release_index][0]
            continue

        job = max(ready, key=lambda j: (j.priority, -j.release, -j.instance))
        ready.remove(job)
        next_arrival = (
            pending_releases[next_release_index][0]
            if next_release_index < len(pending_releases)
            else math.inf
        )
        if next_arrival - time <= 1e-9 and job.remaining > 1e-12:
            # Guard against float-epsilon livelock: an arrival due
            # "now" (within rounding) is drained before executing.
            ready.append(job)
            time = next_arrival
            continue
        run_until = min(time + job.remaining, next_arrival)
        if run_until <= time and job.remaining > 0:
            # The residue is below float resolution at this time
            # magnitude (time + remaining rounds back to time); the
            # job cannot make further progress — close it out.
            finish_job(job, time)
            continue
        if run_until > time:
            if (
                slices
                and slices[-1].chain == job.chain.name
                and slices[-1].task == job.task_name
                and slices[-1].instance == job.instance
                and slices[-1].end == time
            ):
                slices[-1].end = run_until
            else:
                slices.append(
                    ExecutionSlice(
                        job.chain.name, job.task_name, job.instance, time, run_until
                    )
                )
        job.remaining -= run_until - time
        time = run_until
        if job.remaining <= 1e-12:
            finish_job(job, time)
        else:
            ready.append(job)


def simulate(simulator, activations, horizon) -> SimulationResult:
    """``Simulator._run_python`` with this loop in place of the
    production one."""
    prepared = simulator.prepare_releases(activations, horizon)
    records: Dict[str, List[InstanceRecord]] = {}
    pending_releases: List[Tuple[float, TaskChain, int]] = []
    for chain in simulator.system.chains:
        times = prepared[chain.name]
        records[chain.name] = [
            InstanceRecord(chain.name, i, t) for i, t in enumerate(times)
        ]
        for i, t in enumerate(times):
            pending_releases.append((t, chain, i))
    pending_releases.sort(key=lambda item: item[0])

    slices: List[ExecutionSlice] = []
    run_event_loop(
        pending_releases, simulator._execution_time, _ObjectStore(records), slices, {}
    )
    return SimulationResult(simulator.system, horizon, records, slices)
