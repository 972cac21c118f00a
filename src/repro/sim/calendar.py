"""Array-based event calendar: the numpy path of the simulator.

The scalar event loop advances one scheduling decision at a time; at
soak scale (millions of activations) almost all of those decisions are
trivial, because most activations execute in isolation: the processor
is idle when they arrive and idle again before the next activation of
*any* chain.  This backend finds those isolated releases with a handful
of array passes and retires them wholesale:

1. all activation streams are merged into one time-sorted release
   calendar (structured as parallel ``time`` / ``chain`` / ``instance``
   arrays, built with one stable argsort);
2. a prefix-scan bound on the busy-period finish after every release
   (``F_j = max(F_{j-1}, t_j) + W_j``, computed as a ``cumsum`` plus a
   running maximum) classifies each release as *isolated* — idle before
   it arrives and finished strictly before the next release — behind a
   conservative float margin, so classification errors can only route
   releases to the exact scalar path, never corrupt a fast one;
3. isolated instances are retired in batch: per chain and task, one
   vectorized pass reproduces the scalar loop's float-for-float
   execution arithmetic (including its epsilon close-out behaviour) for
   every isolated instance at once, writing trace *arrays*;
4. the remaining maximal runs of non-isolated releases ("stretches",
   each opening at a provably idle instant) run through the *identical*
   scalar event loop (:func:`repro.sim.engine.run_event_loop`), all in
   one call that jumps the idle gaps between them; each chain's first
   release in a stretch re-seeds its tasks' FIFO counters to the values
   a full scalar run would have reached.

The result is bit-identical to the scalar loop run over the whole
horizon (:meth:`repro.sim.engine.Simulator._run_python`) — same
``ExecutionSlice`` sequence, same ``InstanceRecord`` values, so exports
compare byte-for-byte — but the per-activation Python cost is paid only
for the contended minority.  No Python object per slice or instance
outlives the run: the loop's slices land in five columns, and
:class:`TraceArrays` materializes the object views lazily; metric
queries (latencies, maximum latency, miss counts, (m,k) windows, busy
windows) answer directly from the arrays.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Dict, List, Tuple

import numpy as np

from ..model import System
from .engine import (
    ExecutionSlice,
    InstanceRecord,
    SimulationResult,
    release_times,
    run_event_loop,
)

#: Base absolute slack of the isolation classifier.  Must dominate the
#: scalar loop's 1e-9 arrival-merge guard so no epsilon branch can
#: trigger inside a batch-retired instance.
MARGIN_ABS = 1e-6

#: Relative slack per unit of timestamp magnitude and per release,
#: covering worst-case float drift of the prefix-scan bound (each of
#: the ``n`` accumulation steps contributes at most one ulp of the
#: running magnitude, i.e. ~2.2e-16 relative).
MARGIN_REL_PER_EVENT = 4e-15
MARGIN_REL_FLOOR = 1e-9


class TraceArrays:
    """Simulation trace held as per-chain arrays plus slice chunks.

    ``slice_chunks`` holds ``(chain, task, instances, starts, ends)``
    chunks: from batch retirement, one per chain and task with numpy
    columns; from the event loop, one chunk of five lists with one
    entry per slice of every contended stretch.  :meth:`build_slices`
    turns both into :class:`ExecutionSlice` objects on demand.  Slices
    never overlap and zero-length slices are never emitted, so slice
    start times are globally unique and a sort by start reconstructs
    the exact scalar emission order.
    """

    __slots__ = (
        "system",
        "horizon",
        "activation",
        "start",
        "finish",
        "task_fin",
        "slice_chunks",
    )

    def __init__(self, system: System, horizon: float):
        self.system = system
        self.horizon = horizon
        self.activation: Dict[str, object] = {}
        self.start: Dict[str, object] = {}
        self.finish: Dict[str, object] = {}
        self.task_fin: Dict[str, object] = {}
        self.slice_chunks: List = []
        for chain in system.chains:
            self.activation[chain.name] = np.empty(0, dtype=np.float64)
            self.start[chain.name] = np.empty(0, dtype=np.float64)
            self.finish[chain.name] = np.empty(0, dtype=np.float64)
            self.task_fin[chain.name] = np.empty((len(chain.tasks), 0))

    def allocate(self, chain_name: str, times) -> None:
        n = times.shape[0]
        tasks = self.task_fin[chain_name].shape[0]
        self.activation[chain_name] = times
        self.start[chain_name] = np.full(n, np.nan)
        self.finish[chain_name] = np.full(n, np.nan)
        self.task_fin[chain_name] = np.full((tasks, n), np.nan)

    # -- lazy object views --------------------------------------------
    def build_instances(self) -> Dict[str, List[InstanceRecord]]:
        records: Dict[str, List[InstanceRecord]] = {}
        for chain in self.system.chains:
            name = chain.name
            acts = self.activation[name].tolist()
            starts = self.start[name].tolist()
            finishes = self.finish[name].tolist()
            task_rows = [row.tolist() for row in self.task_fin[name]]
            task_names = [task.name for task in chain.tasks]
            chain_records = []
            for i, activation in enumerate(acts):
                start = starts[i]
                finish = finishes[i]
                task_finishes = {
                    task_names[k]: row[i]
                    for k, row in enumerate(task_rows)
                    if row[i] == row[i]
                }
                chain_records.append(
                    InstanceRecord(
                        name,
                        i,
                        activation,
                        start if start == start else None,
                        finish if finish == finish else None,
                        task_finishes,
                    )
                )
            records[name] = chain_records
        return records

    def build_slices(self) -> List[ExecutionSlice]:
        out: List[ExecutionSlice] = []
        for chain, task, *columns in self.slice_chunks:
            if isinstance(chain, str):  # a batch chunk of one task
                chain, task = repeat(chain), repeat(task)
                columns = [column.tolist() for column in columns]
            out.extend(map(ExecutionSlice, chain, task, *columns))
        out.sort(key=lambda piece: piece.start)
        return out

    # -- array metric paths -------------------------------------------
    def _latency(self, chain: str):
        """Latencies of the finished instances of ``chain``, as an array."""
        finish = self.finish[chain]
        done = ~np.isnan(finish)
        return finish[done] - self.activation[chain][done]

    def latencies(self, chain: str) -> List[float]:
        return self._latency(chain).tolist()

    def max_latency(self, chain: str) -> float:
        latency = self._latency(chain)
        return float(latency.max()) if latency.size else 0.0

    def miss_flags(self, chain: str, deadline: float) -> List[bool]:
        return (self._latency(chain) > deadline).tolist()

    def miss_count(self, chain: str, deadline: float) -> int:
        return int(np.count_nonzero(self._latency(chain) > deadline))

    def empirical_dmm(self, chain: str, deadline: float, k: int) -> int:
        flags = (self._latency(chain) > deadline).astype(np.int64)
        if flags.size < k:
            return int(flags.sum())
        sums = np.cumsum(flags)
        windows = sums[k - 1 :].copy()
        windows[1:] -= sums[: flags.size - k]
        return int(windows.max())

    def busy_windows(self, chain: str) -> List[Tuple[float, float]]:
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


class _ArrayStore:
    """Record sink writing scalar-stretch lifecycle events into arrays."""

    __slots__ = ("trace",)

    def __init__(self, trace: TraceArrays):
        self.trace = trace

    def mark_start(self, chain: str, instance: int, at: float) -> None:
        start = self.trace.start[chain]
        if math.isnan(start[instance]):
            start[instance] = at

    def task_finish(
        self, chain: str, instance: int, task_index: int, task_name: str, at: float
    ) -> None:
        self.trace.task_fin[chain][task_index, instance] = at

    def finish(self, chain: str, instance: int, at: float) -> None:
        self.trace.finish[chain][instance] = at


def _retire_task(release, budget: float):
    """Finish times of one task executed in isolation, vectorized.

    Replays the scalar loop's execution arithmetic elementwise for a
    whole vector of isolated instances: repeatedly advance ``time`` by
    ``fl(time + remaining) - time`` until the residue drops to the
    1e-12 cascade threshold or progress stalls below float resolution
    (the loop's close-out guard).  The iteration converges in a couple
    of passes; each pass applies the identical float64 operations the
    scalar loop would, so the finish times are bit-identical.
    """
    time = release.copy()
    remaining = np.full(time.shape, budget)
    active = remaining > 1e-12
    rounds = 0
    while active.any():
        rounds += 1
        if rounds > 64:
            raise RuntimeError(
                "simulation did not terminate: batch retirement of an "
                f"isolated task did not converge (budget={budget!r})"
            )
        advanced = np.where(active, time + remaining, time)
        progress = active & (advanced > time)
        remaining = np.where(progress, remaining - (advanced - time), remaining)
        time = np.where(progress, advanced, time)
        active = progress & (remaining > 1e-12)
    return time


def isolation_mask(t: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Which releases of a time-sorted calendar run in isolation.

    ``t`` holds the release times in order and ``work`` each release's
    total execution time.  Release ``j`` is isolated when the processor
    is idle at ``t[j]`` and ``j`` finishes strictly before ``t[j + 1]``,
    both behind the conservative margin.  The busy-finish bound
    ``F_j = max(F_{j-1}, t_j) + W_j`` after every release is one prefix
    scan: with ``S`` the work cumsum, ``F = S + running_max(t -
    S_shifted)``.  Float drift of the scan is covered by the margin,
    below which a release is simply not isolated.
    """
    total = t.size
    cum = np.cumsum(work)
    finish_bound = cum + np.maximum.accumulate(t - (cum - work))
    margin = MARGIN_ABS + max(
        MARGIN_REL_FLOOR, MARGIN_REL_PER_EVENT * total
    ) * np.abs(t)

    idle_before = np.empty(total, dtype=bool)
    idle_before[0] = True
    idle_before[1:] = t[1:] - finish_bound[:-1] > margin[1:]
    gap_after = np.empty(total, dtype=bool)
    gap_after[-1] = True
    gap_after[:-1] = t[1:] - (t[:-1] + work[:-1]) > margin[1:]
    return idle_before & gap_after


def run_calendar(simulator, activations, horizon: float) -> SimulationResult:
    """Run one simulation through the array event calendar."""
    system = simulator.system
    chains = system.chains
    trace = TraceArrays(system, horizon)

    streams = release_times(system, activations, horizon)
    for name, times in streams.items():
        trace.allocate(name, times)
    per_chain_times = list(streams.values())

    counts = [times.size for times in per_chain_times]
    total = int(sum(counts))
    result = SimulationResult(system, horizon, trace=trace)
    if total == 0:
        return result

    # 1. One time-sorted calendar over all chains.  The stable sort
    # reproduces the python backend's tie order (chain declaration
    # order, then instance order).
    t_all = np.concatenate(per_chain_times)
    chain_of = np.repeat(np.arange(len(chains)), counts)
    inst_of = np.concatenate([np.arange(count) for count in counts])
    order = np.argsort(t_all, kind="stable")
    t = t_all[order]
    cid = chain_of[order]
    inst = inst_of[order]

    exec_times = [
        [simulator._execution_time(chain, k) for k in range(len(chain.tasks))]
        for chain in chains
    ]
    chain_work = np.asarray([sum(w) for w in exec_times])

    # 2. Classify every release by the prefix-scan busy-finish bound.
    fast = isolation_mask(t, chain_work[cid])

    # 3. Batch-retire the isolated instances, chain by chain, task by
    # task (vectorized over instances; tasks of an isolated instance run
    # back to back, so priorities are irrelevant).
    fast_idx = np.flatnonzero(fast)
    if fast_idx.size:
        fast_cid = cid[fast_idx]
        for c, chain in enumerate(chains):
            sel = fast_idx[fast_cid == c]
            if not sel.size:
                continue
            instances = inst[sel]
            clock = t[sel].copy()
            trace.start[chain.name][instances] = clock
            task_fin = trace.task_fin[chain.name]
            for k, task in enumerate(chain.tasks):
                segment_start = clock
                clock = _retire_task(clock, exec_times[c][k])
                task_fin[k, instances] = clock
                ran = clock > segment_start
                if ran.any():
                    trace.slice_chunks.append(
                        (
                            chain.name,
                            task.name,
                            instances[ran],
                            segment_start[ran],
                            clock[ran],
                        )
                    )
            trace.finish[chain.name][instances] = clock

    # 4. Contended stretches — maximal runs of non-isolated releases —
    # replay through the exact scalar loop, all in one call: the loop
    # jumps the idle gaps between stretches.  Every stretch opens at an
    # idle instant (its predecessor is isolated and finished strictly
    # earlier), so the loop's sync and FIFO state is empty there; only
    # the FIFO turns lag behind the batch-retired instances, and each
    # chain's first release in a stretch re-seeds them (``fresh``).
    slow_idx = np.flatnonzero(~fast)
    if slow_idx.size:
        slow_cid = cid[slow_idx]
        stretch = np.cumsum(np.diff(slow_idx, prepend=slow_idx[0]) > 1)
        _, first = np.unique(stretch * len(chains) + slow_cid, return_index=True)
        fresh = np.zeros(slow_idx.size, dtype=bool)
        fresh[first] = True
        slow_chain = [chains[c] for c in slow_cid.tolist()]
        slow_t, slow_inst = t[slow_idx].tolist(), inst[slow_idx].tolist()
        releases = list(zip(slow_t, slow_chain, slow_inst, fresh.tolist()))
        # One column chunk holds every stretch's slices: a stretch's
        # first slice never continues the previous stretch's last (no
        # instance spans two stretches), and build_slices sorts by start.
        columns: Tuple[list, list, list, list, list] = ([], [], [], [], [])
        run_event_loop(
            releases, simulator._execution_time, _ArrayStore(trace), columns
        )
        if columns[0]:
            trace.slice_chunks.append(columns)

    return result
