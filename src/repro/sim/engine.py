"""Discrete-event simulator for SPP-scheduled task chains.

Implements the execution semantics of Sec. II faithfully:

* uniprocessor, static-priority preemptive scheduling over *tasks*;
* a chain instance runs its tasks in sequence — the finish of task ``i``
  is the arrival of task ``i+1``;
* **synchronous** chains serialize instances: an activation is not
  processed until the previous instance of the chain finished (and hence
  tasks of a synchronous chain never preempt each other);
* **asynchronous** chains process activations independently, with each
  task serving its activations in FIFO order;
* the scheduler is deadline-agnostic: instances run to completion
  regardless of misses (weakly-hard execution model).

The simulator is event-driven and deterministic given the activation
streams and execution times.  :meth:`Simulator.run` goes through the
numpy event calendar (:mod:`repro.sim.calendar`), which retires
isolated activations in batch array operations and runs the event loop
below once, over the contended stretches.  :meth:`Simulator._run_python`
runs the same loop over the whole horizon; it is the oracle the
calendar is tested against, trace for trace.  The loop records slices
in five plain columns, not one Python object per slice.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..model import System, TaskChain


@dataclass
class ExecutionSlice:
    """A maximal interval during which one job occupied the processor."""

    chain: str
    task: str
    instance: int
    start: float
    end: float


@dataclass
class InstanceRecord:
    """Lifecycle of one chain instance (one activation of the chain)."""

    chain: str
    index: int
    activation: float
    start: Optional[float] = None
    finish: Optional[float] = None
    task_finishes: Dict[str, float] = field(default_factory=dict)

    @property
    def latency(self) -> Optional[float]:
        """End-to-end latency; ``None`` while unfinished."""
        if self.finish is None:
            return None
        return self.finish - self.activation

    def misses(self, deadline: float) -> bool:
        """True iff the instance finished after its relative deadline."""
        latency = self.latency
        return latency is not None and latency > deadline


class SimulationResult:
    """Everything a simulation run produced.

    The scalar loop (:meth:`Simulator._run_python`) fills
    :attr:`instances` and :attr:`slices` with objects directly; the
    numpy calendar carries the trace as arrays and slice columns and
    materializes the object views lazily on first access, so soak-scale
    runs pay for Python objects only when somebody actually iterates
    them.  Metric queries (``max_latency`` and ``miss_count`` included)
    answer from the arrays when they are present — with value-identical
    arithmetic and Python scalars, checked by the calendar parity suite.
    """

    def __init__(
        self,
        system: System,
        horizon: float,
        instances: Optional[Dict[str, List[InstanceRecord]]] = None,
        slices: Optional[List[ExecutionSlice]] = None,
        *,
        trace=None,
    ):
        self.system = system
        self.horizon = horizon
        self._instances = instances
        self._slices = slices
        self._trace = trace

    @property
    def instances(self) -> Dict[str, List[InstanceRecord]]:
        if self._instances is None:
            self._instances = self._trace.build_instances()
        return self._instances

    @property
    def slices(self) -> List[ExecutionSlice]:
        if self._slices is None:
            self._slices = self._trace.build_slices()
        return self._slices

    def latencies(self, chain: str) -> List[float]:
        """Latencies of all *finished* instances of ``chain``."""
        if self._instances is None and self._trace is not None:
            return self._trace.latencies(chain)
        return [rec.latency for rec in self.instances[chain] if rec.latency is not None]

    def max_latency(self, chain: str) -> float:
        """Largest observed latency of ``chain`` (0.0 if none finished)."""
        if self._instances is None and self._trace is not None:
            return self._trace.max_latency(chain)
        observed = self.latencies(chain)
        return max(observed) if observed else 0.0

    def miss_flags(self, chain: str) -> List[bool]:
        """Per finished instance: did it miss the chain deadline?"""
        deadline = self.system[chain].deadline
        if self._instances is None and self._trace is not None:
            return self._trace.miss_flags(chain, deadline)
        return [
            rec.misses(deadline)
            for rec in self.instances[chain]
            if rec.finish is not None
        ]

    def miss_count(self, chain: str) -> int:
        if self._instances is None and self._trace is not None:
            return self._trace.miss_count(chain, self.system[chain].deadline)
        return sum(self.miss_flags(chain))

    def empirical_dmm(self, chain: str, k: int) -> int:
        """Maximum misses observed in any window of ``k`` consecutive
        finished instances of ``chain`` — an empirical lower bound on any
        valid ``dmm(k)``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if self._instances is None and self._trace is not None:
            deadline = self.system[chain].deadline
            return self._trace.empirical_dmm(chain, deadline, k)
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
        """Maximal intervals during which at least one instance of
        ``chain`` was pending (activated, unfinished) — the
        sigma_b-busy-windows of Def. 6."""
        if self._instances is None and self._trace is not None:
            return self._trace.busy_windows(chain)
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


class _Job:
    """One task of one chain instance, as seen by the scheduler.

    Only ``remaining`` changes over a job's life, so the task's
    priority, name and position in the chain are resolved once, here.
    """

    __slots__ = (
        "chain",
        "task_index",
        "instance",
        "release",
        "remaining",
        "priority",
        "task_name",
        "is_last",
    )

    def __init__(self, chain, task_index, instance, release, remaining):
        task = chain.tasks[task_index]
        self.chain = chain
        self.task_index = task_index
        self.instance = instance
        self.release = release
        self.remaining = remaining
        self.priority = task.priority
        self.task_name = task.name
        self.is_last = task_index + 1 == len(chain.tasks)


class _ObjectStore:
    """Record sink of the scalar loop: plain :class:`InstanceRecord`s."""

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


def run_event_loop(
    pending_releases: List[Tuple[float, TaskChain, int, bool]],
    execution_time: Callable[[TaskChain, int], float],
    store,
    columns: Tuple[list, list, list, list, list],
) -> None:
    """The SPP event loop, shared verbatim between both backends.

    ``pending_releases`` holds ``(time, chain, instance, fresh)``
    sorted by time.  A ``fresh`` release sets the per-task FIFO turn of
    every task of its chain to its instance: the python backend marks
    each chain's instance 0, the calendar backend each chain's first
    release in every contended stretch (the turn a full scalar run
    would have reached at the idle point opening the stretch).  The
    loop jumps idle gaps, so one call serves any number of busy
    periods; the iteration guard counts per busy period.

    ``store`` receives the record lifecycle callbacks (``mark_start`` /
    ``task_finish`` / ``finish``).  ``columns`` are five lists (chain,
    task, instance, start, end) that receive the execution slices in
    chronological order, one entry per slice and no object; the open
    slice's end lives in a local until the next slice starts or the
    loop drains.

    The ready set is a binary heap keyed ``(-priority, release,
    instance, seq)``: highest priority first, then the earliest release,
    then the lowest instance.  ``seq`` grows with every push, so full
    ties go to the job pushed (or re-pushed after preemption) first.
    """
    next_release_index = 0
    release_count = len(pending_releases)
    ready: List[Tuple[float, float, int, int, _Job]] = []
    pushes = itertools.count()
    #: Per-task FIFO counters: the instance whose turn it is.
    task_turn: Dict[str, int] = {}
    #: Whether an instance of a sync chain is currently in flight.
    sync_busy: Dict[str, bool] = {}
    #: Instances of synchronous chains waiting for their predecessor.
    sync_backlog: Dict[str, List[_Job]] = {}
    #: Jobs blocked by the per-task FIFO order.
    fifo_backlog: Dict[str, List[_Job]] = {}
    mark_start, task_finish, finish = store.mark_start, store.task_finish, store.finish
    add_chain, add_task, add_instance, add_start, add_end = (
        column.append for column in columns
    )
    #: Job and end of the open slice (None before the first slice).
    open_job: Optional[_Job] = None
    open_end = 0.0

    time = 0.0

    def push(job: _Job) -> None:
        heappush(ready, (-job.priority, job.release, job.instance, next(pushes), job))

    def admit(job: _Job) -> None:
        """Place a job into the ready set, honouring per-task FIFO."""
        if job.instance == task_turn[job.task_name]:
            push(job)
        else:
            fifo_backlog.setdefault(job.task_name, []).append(job)

    def finish_job(job: _Job, at: float) -> None:
        chain, instance, name = job.chain, job.instance, job.task_name
        task_finish(chain.name, instance, job.task_index, name, at)
        task_turn[name] = instance + 1
        # Unblock the FIFO successor of this task, if queued.
        queued = fifo_backlog.get(name)
        if queued:
            for i, blocked in enumerate(queued):
                if blocked.instance == instance + 1:
                    push(queued.pop(i))
                    break
        if not job.is_last:
            index = job.task_index + 1
            admit(_Job(chain, index, instance, at, execution_time(chain, index)))
            return
        # Chain instance complete.
        finish(chain.name, instance, at)
        if chain.is_synchronous:
            backlog = sync_backlog.get(chain.name)
            if backlog:
                nxt = backlog.pop(0)
                mark_start(chain.name, nxt.instance, at)
                admit(nxt)
            else:
                sync_busy[chain.name] = False

    max_iterations = 10_000_000
    iterations = 0
    while True:
        iterations += 1
        if iterations > max_iterations:
            preview = [(j.task_name, j.instance, j.remaining) for *_, j in ready[:5]]
            raise RuntimeError(
                "simulation did not terminate: "
                f"time={time!r}, ready={len(ready)}, "
                f"released {next_release_index}/{release_count}, "
                f"ready_jobs={preview!r}"
            )
        # Half-open window convention (matches the eta_plus of the
        # analysis): work completing exactly at `time` finishes
        # *before* activations arriving exactly at `time` are seen.
        # Zero-remaining ready jobs therefore cascade to completion
        # first — but only while they are the highest-priority work.
        while ready and ready[0][-1].remaining <= 1e-12:
            finish_job(heappop(ready)[-1], time)

        # Release every activation due at or before `time`.
        while (
            next_release_index < release_count
            and pending_releases[next_release_index][0] <= time
        ):
            at, chain, instance, fresh = pending_releases[next_release_index]
            next_release_index += 1
            if fresh:
                for task in chain.tasks:
                    task_turn[task.name] = instance
            job = _Job(chain, 0, instance, at, execution_time(chain, 0))
            if chain.is_synchronous:
                if sync_busy.get(chain.name):
                    sync_backlog.setdefault(chain.name, []).append(job)
                    continue
                sync_busy[chain.name] = True
            mark_start(chain.name, instance, at)
            admit(job)

        if not ready:
            if next_release_index >= release_count:
                break  # no work left and no future releases
            # Idle until the next release: a new busy period.
            time = pending_releases[next_release_index][0]
            iterations = 0
            continue

        job = heappop(ready)[-1]
        next_arrival = (
            pending_releases[next_release_index][0]
            if next_release_index < release_count
            else math.inf
        )
        if next_arrival - time <= 1e-9 and job.remaining > 1e-12:
            # Guard against float-epsilon livelock: an arrival due
            # "now" (within rounding) is drained before executing.
            push(job)
            time = next_arrival
            continue
        run_until = time + job.remaining
        if next_arrival < run_until:
            run_until = next_arrival
        if run_until <= time and job.remaining > 0:
            # The residue is below float resolution at this time
            # magnitude (time + remaining rounds back to time); the
            # job cannot make further progress — close it out.
            finish_job(job, time)
            continue
        if run_until > time:
            if job is open_job and open_end == time:
                open_end = run_until
            else:
                if open_job is not None:
                    add_end(open_end)
                add_chain(job.chain.name)
                add_task(job.task_name)
                add_instance(job.instance)
                add_start(time)
                open_job, open_end = job, run_until
        job.remaining -= run_until - time
        time = run_until
        if job.remaining <= 1e-12:
            finish_job(job, time)
        else:
            push(job)
    if open_job is not None:
        add_end(open_end)


def release_times(
    system: System, activations: Dict[str, Sequence[float]], horizon: float
) -> Dict[str, np.ndarray]:
    """Every chain's activation timestamps up to ``horizon``, as float64.

    The input check every simulator shares: both backends of
    :class:`Simulator` and the distributed simulator (any ``system``
    whose ``chains`` have names will do).  A NaN horizon and NaN or
    infinite timestamps are rejected: every comparison with NaN is
    false, so the horizon filter would otherwise drop them silently.
    Streams must be sorted.  Coercing to float64 here makes both
    backends run identical arithmetic on integer timestamps.
    """
    if math.isnan(horizon):
        raise ValueError("horizon must not be NaN")
    streams: Dict[str, np.ndarray] = {}
    for chain in system.chains:
        times = np.asarray(activations.get(chain.name, ()), dtype=float).ravel()
        if not np.isfinite(times).all():
            raise ValueError(f"activations of {chain.name!r} must be finite")
        times = times[times <= horizon]
        if times.size > 1 and bool((np.diff(times) < 0).any()):
            raise ValueError(f"activations of {chain.name!r} must be sorted")
        streams[chain.name] = times
    return streams


class Simulator:
    """Event-driven SPP simulation of a system of task chains."""

    def __init__(self, system: System, use_bcet: bool = False):
        self.system = system
        self.use_bcet = use_bcet

    def _execution_time(self, chain: TaskChain, task_index: int) -> float:
        task = chain.tasks[task_index]
        return float(task.bcet if self.use_bcet else task.wcet)

    def prepare_releases(
        self, activations: Dict[str, Sequence[float]], horizon: float
    ) -> Dict[str, List[float]]:
        """The activation streams :func:`release_times` accepts, as lists."""
        streams = release_times(self.system, activations, horizon)
        return {name: times.tolist() for name, times in streams.items()}

    def run(
        self, activations: Dict[str, Sequence[float]], horizon: float
    ) -> SimulationResult:
        """Simulate until every instance activated before ``horizon`` has
        finished (the scheduler is work-conserving, so this terminates
        whenever the supplied load is feasible).

        Parameters
        ----------
        activations:
            Chain name -> sorted activation timestamps.  Chains not
            listed receive no activations.
        horizon:
            Activations beyond the horizon are ignored.
        """
        from .calendar import run_calendar

        return run_calendar(self, activations, horizon)

    def _run_python(
        self, activations: Dict[str, Sequence[float]], horizon: float
    ) -> SimulationResult:
        prepared = self.prepare_releases(activations, horizon)
        records: Dict[str, List[InstanceRecord]] = {}
        pending_releases: List[Tuple[float, TaskChain, int, bool]] = []
        for chain in self.system.chains:
            times = prepared[chain.name]
            records[chain.name] = [
                InstanceRecord(chain.name, i, t) for i, t in enumerate(times)
            ]
            for i, t in enumerate(times):
                pending_releases.append((t, chain, i, i == 0))
        pending_releases.sort(key=lambda item: item[0])

        columns: Tuple[list, list, list, list, list] = ([], [], [], [], [])
        run_event_loop(
            pending_releases, self._execution_time, _ObjectStore(records), columns
        )
        slices = list(map(ExecutionSlice, *columns))
        return SimulationResult(self.system, horizon, records, slices)
