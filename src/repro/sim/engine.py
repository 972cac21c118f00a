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
below once, over the contended stretches.  The loop records slices in
five plain columns, not one Python object per slice, and the run's
:class:`SimulationResult` holds the trace as arrays.  The test oracle
``tests/oracles/spp_loop.py`` runs the same loop over the whole horizon
into plain records; the calendar must match it trace for trace.
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
    """One simulation trace, held as arrays.

    Per chain, indexed by instance: ``activation``, ``start`` and
    ``finish`` (float64, NaN while unset) and ``task_fin`` (one row per
    task).  ``slice_chunks`` holds ``(chain, task, instances, starts,
    ends)`` chunks: from batch retirement, one per chain and task with
    numpy columns; from the event loop, one chunk of five lists with
    one entry per slice.  Slices never overlap and zero-length slices
    are never emitted, so a sort by start reconstructs the loop's
    emission order.

    Both simulators fill one of these: :class:`Simulator` and the
    distributed simulator, which records no start and no slices.  The
    metric queries answer from the arrays, as Python scalars;
    :attr:`instances` and :attr:`slices` materialize the object views
    on first access, so soak-scale runs pay for Python objects only
    when somebody iterates them.
    """

    def __init__(self, system, horizon: float, streams: Dict[str, np.ndarray]):
        self.system = system
        self.horizon = horizon
        self.activation: Dict[str, np.ndarray] = {}
        self.start: Dict[str, np.ndarray] = {}
        self.finish: Dict[str, np.ndarray] = {}
        self.task_fin: Dict[str, np.ndarray] = {}
        self.slice_chunks: List = []
        self._instances: Optional[Dict[str, List[InstanceRecord]]] = None
        self._slices: Optional[List[ExecutionSlice]] = None
        for chain in system.chains:
            times = streams[chain.name]
            n = times.shape[0]
            self.activation[chain.name] = times
            self.start[chain.name] = np.full(n, np.nan)
            self.finish[chain.name] = np.full(n, np.nan)
            self.task_fin[chain.name] = np.full((len(chain.tasks), n), np.nan)

    @property
    def instances(self) -> Dict[str, List[InstanceRecord]]:
        if self._instances is None:
            self._instances = {
                chain.name: self._chain_records(chain) for chain in self.system.chains
            }
        return self._instances

    def _chain_records(self, chain) -> List[InstanceRecord]:
        name = chain.name
        starts = self.start[name].tolist()
        finishes = self.finish[name].tolist()
        task_rows = [row.tolist() for row in self.task_fin[name]]
        task_names = [task.name for task in chain.tasks]
        records = []
        for i, activation in enumerate(self.activation[name].tolist()):
            start = starts[i]
            finish = finishes[i]
            task_finishes = {
                task_names[k]: row[i]
                for k, row in enumerate(task_rows)
                if row[i] == row[i]
            }
            records.append(
                InstanceRecord(
                    name,
                    i,
                    activation,
                    start if start == start else None,
                    finish if finish == finish else None,
                    task_finishes,
                )
            )
        return records

    @property
    def slices(self) -> List[ExecutionSlice]:
        if self._slices is None:
            out: List[ExecutionSlice] = []
            for chain, task, *columns in self.slice_chunks:
                if isinstance(chain, str):  # a batch chunk of one task
                    chain, task = itertools.repeat(chain), itertools.repeat(task)
                    columns = [column.tolist() for column in columns]
                out.extend(map(ExecutionSlice, chain, task, *columns))
            out.sort(key=lambda piece: piece.start)
            self._slices = out
        return self._slices

    def _latency(self, chain: str) -> np.ndarray:
        """Latencies of the finished instances of ``chain``, as an array."""
        finish = self.finish[chain]
        done = ~np.isnan(finish)
        return finish[done] - self.activation[chain][done]

    def _missed(self, chain: str) -> np.ndarray:
        return self._latency(chain) > self.system[chain].deadline

    def latencies(self, chain: str) -> List[float]:
        """Latencies of all *finished* instances of ``chain``."""
        return self._latency(chain).tolist()

    def max_latency(self, chain: str) -> float:
        """Largest observed latency of ``chain`` (0.0 if none finished)."""
        latency = self._latency(chain)
        return float(latency.max()) if latency.size else 0.0

    def miss_flags(self, chain: str) -> List[bool]:
        """Per finished instance: did it miss the chain deadline?"""
        return self._missed(chain).tolist()

    def miss_count(self, chain: str) -> int:
        return int(np.count_nonzero(self._missed(chain)))

    def empirical_dmm(self, chain: str, k: int) -> int:
        """Maximum misses observed in any window of ``k`` consecutive
        finished instances of ``chain`` — an empirical lower bound on any
        valid ``dmm(k)``."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        flags = self._missed(chain).astype(np.int64)
        if flags.size < k:
            return int(flags.sum())
        sums = np.cumsum(flags)
        windows = sums[k - 1 :].copy()
        windows[1:] -= sums[: flags.size - k]
        return int(windows.max())

    def busy_windows(self, chain: str) -> List[Tuple[float, float]]:
        """Maximal intervals during which at least one instance of
        ``chain`` was pending (activated, unfinished) — the
        sigma_b-busy-windows of Def. 6."""
        activation = self.activation[chain]
        if activation.size == 0:
            return []
        finish = np.where(
            np.isnan(self.finish[chain]), self.horizon, self.finish[chain]
        )
        order = np.lexsort((finish, activation))
        starts = activation[order]
        ends = finish[order]
        running = np.maximum.accumulate(ends)
        fresh = np.ones(starts.shape, dtype=bool)
        fresh[1:] = starts[1:] > running[:-1]
        window_starts = starts[fresh]
        window_ends = np.maximum.reduceat(ends, np.flatnonzero(fresh))
        return list(zip(window_starts.tolist(), window_ends.tolist()))


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


def run_event_loop(
    pending_releases: List[Tuple[float, TaskChain, int, bool]],
    execution_time: Callable[[TaskChain, int], float],
    store,
    columns: Tuple[list, list, list, list, list],
) -> None:
    """The SPP event loop of the calendar's contended stretches.

    ``pending_releases`` holds ``(time, chain, instance, fresh)``
    sorted by time.  A ``fresh`` release sets the per-task FIFO turn of
    every task of its chain to its instance: the calendar marks each
    chain's first release in every contended stretch (the turn a run
    over the whole horizon would have reached at the idle point opening
    the stretch), and a whole-horizon run each chain's instance 0.  The
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

    The input check every simulator shares: :class:`Simulator` and the
    distributed simulator (any ``system`` whose ``chains`` have names
    will do).  A NaN horizon and NaN or infinite timestamps are
    rejected: every comparison with NaN is false, so the horizon filter
    would otherwise drop them silently.  Streams must be sorted.
    Coercing to float64 here makes the batch arithmetic and the event
    loop see identical values for integer timestamps.
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
