"""Reference simulations the production simulator is checked against.

:func:`whole_horizon` runs the production loop,
:func:`repro.sim.engine.run_event_loop`, over every release of the
horizon into plain records; the numpy calendar behind
``Simulator.run`` must match it trace for trace.  :func:`simulate` does
the same with :func:`run_event_loop` below, the loop the heap replaced:
every scheduling decision scans a plain ready list for the job with the
largest ``(priority, -release, -instance)``.  ``max`` returns the
*first* maximal job in list order, and list order is the order of each
job's latest append (a preempted job is re-appended at the end), which
is the tie-break among jobs of equal priority, release and instance.

Both return a :class:`RecordResult`, whose query bodies walk the
records one by one: the reference for the array queries of
:class:`repro.sim.engine.SimulationResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.model import TaskChain
from repro.sim import engine
from repro.sim.engine import ExecutionSlice, InstanceRecord, release_times


class RecordStore:
    """Record sink of a whole-horizon run: plain :class:`InstanceRecord`s."""

    __slots__ = ("records",)

    def __init__(self, records: Dict[str, List[InstanceRecord]]):
        self.records = records

    def mark_start(self, chain: str, instance: int, at: float) -> None:
        record = self.records[chain][instance]
        if record.start is None:
            record.start = at

    def task_finish(
        self, chain: str, instance: int, task_index: int, task_name: str, at: float
    ) -> None:
        self.records[chain][instance].task_finishes[task_name] = at

    def finish(self, chain: str, instance: int, at: float) -> None:
        self.records[chain][instance].finish = at


class RecordResult:
    """A trace as records and slices, queried record by record."""

    def __init__(
        self,
        system,
        horizon: float,
        instances: Dict[str, List[InstanceRecord]],
        slices: List[ExecutionSlice],
    ):
        self.system = system
        self.horizon = horizon
        self.instances = instances
        self.slices = slices

    @property
    def activation(self) -> Dict[str, np.ndarray]:
        """Each chain's activation times, as ``SimulationResult`` has them."""
        return {
            name: np.asarray([rec.activation for rec in records], dtype=float)
            for name, records in self.instances.items()
        }

    def latencies(self, chain: str) -> List[float]:
        return [rec.latency for rec in self.instances[chain] if rec.latency is not None]

    def max_latency(self, chain: str) -> float:
        observed = self.latencies(chain)
        return max(observed) if observed else 0.0

    def miss_flags(self, chain: str) -> List[bool]:
        deadline = self.system[chain].deadline
        return [
            rec.misses(deadline)
            for rec in self.instances[chain]
            if rec.finish is not None
        ]

    def miss_count(self, chain: str) -> int:
        return sum(self.miss_flags(chain))

    def empirical_dmm(self, chain: str, k: int) -> int:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        flags = self.miss_flags(chain)
        if len(flags) < k:
            return sum(flags)
        window = sum(flags[:k])
        best = window
        for i in range(k, len(flags)):
            window += flags[i] - flags[i - k]
            best = max(best, window)
        return best

    def busy_windows(self, chain: str) -> List[Tuple[float, float]]:
        intervals = sorted(
            (rec.activation, rec.finish if rec.finish is not None else self.horizon)
            for rec in self.instances[chain]
        )
        merged: List[Tuple[float, float]] = []
        for start, end in intervals:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged


def _records(simulator, activations, horizon):
    """Empty records of every release up to ``horizon``, and the
    releases ``(time, chain, instance)`` in time order (ties in chain
    order, then instance order)."""
    streams = release_times(simulator.system, activations, horizon)
    records: Dict[str, List[InstanceRecord]] = {}
    releases: List[Tuple[float, TaskChain, int]] = []
    for chain in simulator.system.chains:
        times = streams[chain.name].tolist()
        records[chain.name] = [
            InstanceRecord(chain.name, i, t) for i, t in enumerate(times)
        ]
        releases.extend((t, chain, i) for i, t in enumerate(times))
    releases.sort(key=lambda item: item[0])
    return records, releases


def whole_horizon(simulator, activations, horizon) -> RecordResult:
    """The production loop over every release of the horizon, each
    chain's instance 0 ``fresh``, into plain records and slices."""
    records, releases = _records(simulator, activations, horizon)
    pending = [(t, chain, i, i == 0) for t, chain, i in releases]
    columns: Tuple[list, list, list, list, list] = ([], [], [], [], [])
    engine.run_event_loop(
        pending, simulator._execution_time, RecordStore(records), columns
    )
    slices = list(map(ExecutionSlice, *columns))
    return RecordResult(simulator.system, horizon, records, slices)


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


def simulate(simulator, activations, horizon) -> RecordResult:
    """:func:`whole_horizon` with this module's loop in place of the
    production one."""
    records, releases = _records(simulator, activations, horizon)
    slices: List[ExecutionSlice] = []
    run_event_loop(
        releases, simulator._execution_time, RecordStore(records), slices, {}
    )
    return RecordResult(simulator.system, horizon, records, slices)
