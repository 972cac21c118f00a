"""The sharded batch coordinator: fan (system, chain) jobs over N
shard workers with bounded retries and a merge that is byte-identical
to a serial run.

This is the one fan-out: ``BatchRunner(workers=N)`` with ``N > 1``
runs its jobs here, over ``N`` local workers, and so does every
``repro batch`` topology but the in-process one (one local worker and
no ``--worker`` URL), through one :func:`run_sharded` call.  The job
list is split into :class:`ShardChunk` units of consecutive jobs, and
a local worker runs each chunk through the serial runner's loop,
:func:`~repro.runner.batch.execute_jobs` (which parses each system's
run of jobs in a chunk once).  A job that raises fails its chunk with
a :class:`ChunkJobError` naming the job.  A :class:`ShardCoordinator`
drives one dispatch thread per worker; each thread pulls the next
eligible chunk from a shared, lock-protected scheduler, runs it on its
worker, and posts the results back.  Three scheduler behaviors make
the fan-out robust:

* **One worker per chunk** — a chunk runs on one worker at a time,
  and a worker that finishes early pulls the next pending chunk, so
  the chunk size balances the load.  A pass waits for every chunk it
  handed out: a remote worker is bounded by its client's ``timeout``,
  a local one by its process staying alive.  Idle dispatch threads
  sleep until a chunk is released or a queued retry becomes due; none
  polls.
* **Retry with backoff** — a chunk whose worker died or could not be
  reached (:class:`WorkerUnavailable`) is requeued under the
  coordinator's :class:`~repro.runner.retry.RetryPolicy`: bounded
  attempts, exponentially delayed eligibility, and possibly another
  worker.  That policy is the chunk's only retry budget.  Exhausting
  it raises :class:`ShardExecutionError`.
* **Keyed merge** — every job's deterministic export depends only on
  the job itself, so merging is a pure keyed union: results are
  reassembled in global submission order and the combined
  :class:`~repro.runner.batch.BatchResult` export is byte-identical to
  ``BatchRunner(workers=1)`` over the same jobs, regardless of chunk
  placement or retries.

Two worker kinds implement the same ``run_chunk`` protocol:
:class:`LocalShardWorker` owns one OS process (killed workers are
respawned transparently on the next chunk); :func:`local_shard_workers`
pins worker ``i`` to CPU ``i mod n`` of the ``n`` CPUs the caller may
run on, so the processes do not crowd onto one CPU; and
:class:`RemoteShardWorker` posts chunks to the ``POST /shard/run``
route of a ``repro serve`` daemon (``repro shard-worker`` is an alias)
via the :class:`~repro.service.http.ServiceClient`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .batch import BatchExecutionError, BatchResult, _build_cache, execute_jobs
from .cache import merge_stats
from .jobs import AnalysisJob, JobResult
from .progress import NULL_LOG, ShardLog
from .retry import RetryPolicy
from .shardstate import ShardExecutionError, WorkerUnavailable, _ShardState

__all__ = [
    "ChunkJobError",
    "ShardChunk",
    "ShardCoordinator",
    "ShardExecutionError",
    "WorkerUnavailable",
    "LocalShardWorker",
    "RemoteShardWorker",
    "local_shard_workers",
    "make_chunks",
    "run_sharded",
]


@dataclass(frozen=True)
class ShardChunk:
    """A contiguous slice of the global job list.

    ``start`` is the offset of ``jobs[0]`` in the submitted list — the
    merge key that puts results back in submission order no matter
    which worker ran the chunk.
    """

    index: int
    start: int
    jobs: Tuple[AnalysisJob, ...]

    def __len__(self) -> int:
        return len(self.jobs)


def make_chunks(
    jobs: Sequence[AnalysisJob], chunk_size: int
) -> List[ShardChunk]:
    """Split ``jobs`` into consecutive chunks of ``chunk_size``."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        ShardChunk(index=i, start=start, jobs=tuple(jobs[start : start + chunk_size]))
        for i, start in enumerate(range(0, len(jobs), chunk_size))
    ]


# ----------------------------------------------------------------------
# Local worker processes
# ----------------------------------------------------------------------
#: Serializes worker starts across dispatch threads.  ``Process.start()``
#: opens the child's sentinel pipe, forks, and only then closes the
#: pipe's write end in the parent; a sibling forked inside that window
#: inherits the write end, so ``join()`` cannot see the first child
#: exit until the sibling exits too (``close()`` then waits out its
#: join timeout).
_START_LOCK = threading.Lock()

#: Seconds a waiting :meth:`LocalShardWorker.run_chunk` blocks on the
#: result queue between checks that the worker process is alive.
_LIVENESS_CHECK_S = 0.05


def _shard_worker_loop(
    task_queue: Any,
    result_queue: Any,
    cache_dir: Optional[str],
    use_cache: bool,
    cpu: Optional[int] = None,
) -> None:
    """Child-process loop: one cache, chunks in, result lists out.

    Pins the process to ``cpu`` first (``None``: no pinning), so every
    respawned incarnation is pinned too.  Each chunk runs through
    :func:`~repro.runner.batch.execute_jobs`, the serial runner's loop.
    Runs until the ``None`` sentinel.  A job exception is reported as
    an ``("error", chunk, (position, message))`` message rather than
    crashing the process — bad input is a batch bug, not a worker
    death, and must not be retried.
    """
    if cpu is not None:
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # the CPU left the allowed set since: run unpinned
    cache = _build_cache(use_cache, cache_dir)
    # Persistent caches drop integrity-failed disk entries and count
    # them; the per-chunk delta rides back so the coordinator can
    # account for corruption observed inside worker processes.
    store = getattr(cache, "disk", None)
    while True:
        item = task_queue.get()
        if item is None:
            break
        chunk_index, jobs = item
        dropped_before = store.corrupt_dropped if store is not None else 0
        try:
            results = execute_jobs(jobs, cache)
        except BatchExecutionError as exc:
            message = f"{type(exc.cause).__name__}: {exc.cause}"
            result_queue.put(("error", chunk_index, (exc.index, message)))
        else:
            dropped = (
                store.corrupt_dropped - dropped_before if store is not None else 0
            )
            result_queue.put(("ok", chunk_index, (results, dropped)))


class ChunkJobError(RuntimeError):
    """A job of a chunk raised inside a local shard worker: bad input,
    not a worker death, so the coordinator does not retry the chunk.
    ``index`` is the job's position in the chunk."""

    def __init__(self, chunk: ShardChunk, index: int, worker: str, message: str):
        job = chunk.jobs[index]
        self.index = index
        super().__init__(
            f"job {job.label!r} (chain {job.chain_name!r}) of chunk "
            f"{chunk.index} failed on worker {worker!r}: {message}"
        )


class LocalShardWorker:
    """One shard backed by a dedicated OS process.

    The process is started lazily and *respawned* transparently when it
    died (crash, OOM kill, or :meth:`kill` from a failure-injection
    test) — the coordinator owns the decision to retry the chunk; the
    worker merely reports the death as :class:`WorkerUnavailable` and
    is ready again for the next ``run_chunk``.  Queues are re-created
    on respawn so a half-delivered message from the dead incarnation
    can never corrupt a fresh chunk.  With ``cpu`` set, every
    incarnation of the process runs on that CPU alone.
    """

    def __init__(
        self,
        name: str = "local",
        *,
        use_cache: bool = True,
        cache_dir: Optional[str] = None,
        cpu: Optional[int] = None,
    ):
        self.name = name
        self.use_cache = use_cache
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.cpu = cpu
        self._ctx = multiprocessing.get_context()
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._task_queue: Optional[Any] = None
        self._result_queue: Optional[Any] = None
        #: Observed worker deaths (each triggers a respawn on next use).
        self.respawns = 0
        #: Corrupt persistent-cache entries this worker's processes
        #: detected and dropped (summed into the coordinator stats).
        self.corrupt_dropped = 0
        #: Failure-injection seam: kill the process in place of the
        #: next N chunk dispatches, so those chunks are lost for sure
        #: (deterministic worker-death tests).
        self.kill_next_dispatches = 0

    # -- process lifecycle ---------------------------------------------
    def _ensure_process(self) -> None:
        if self._process is not None and self._process.is_alive():
            return
        if self._process is not None:
            self._discard_process()
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._process = self._ctx.Process(
            target=_shard_worker_loop,
            args=(
                self._task_queue,
                self._result_queue,
                self.cache_dir,
                self.use_cache,
                self.cpu,
            ),
            name=f"repro-shard-{self.name}",
            daemon=True,
        )
        with _START_LOCK:
            self._process.start()

    def _discard_process(self) -> None:
        if self._process is not None:
            if self._process.is_alive():  # pragma: no cover - defensive
                self._process.terminate()
            self._process.join(timeout=5.0)
            self._process = None
        for q in (self._task_queue, self._result_queue):
            if q is not None:
                q.close()
        self._task_queue = None
        self._result_queue = None

    def kill(self) -> None:
        """Hard-kill the worker process (failure injection); the next
        :meth:`run_chunk` respawns a fresh one."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(timeout=5.0)

    def close(self) -> None:
        """Shut the worker process down cleanly (idempotent)."""
        if self._process is not None and self._process.is_alive():
            assert self._task_queue is not None
            self._task_queue.put(None)
            self._process.join(timeout=5.0)
        self._discard_process()

    # -- the worker protocol -------------------------------------------
    def run_chunk(self, chunk: ShardChunk) -> List[JobResult]:
        """Run one chunk on the worker process.

        Raises :class:`WorkerUnavailable` when the process dies before
        delivering the chunk's results — the retryable failure mode.  A
        job-level exception inside the chunk (bad input) raises
        :class:`ChunkJobError` naming the job, and is *not* retried.
        """
        self._ensure_process()
        assert self._task_queue is not None and self._result_queue is not None
        process, result_queue = self._process, self._result_queue
        if self.kill_next_dispatches > 0:
            # Killed before the chunk is sent: a process killed after
            # the send may already have delivered the results.
            self.kill_next_dispatches -= 1
            self.kill()
        else:
            self._task_queue.put((chunk.index, list(chunk.jobs)))
        while True:
            try:
                kind, index, payload = result_queue.get(timeout=_LIVENESS_CHECK_S)
            except queue.Empty:
                assert process is not None
                if process.is_alive():
                    continue
                # The process died.  Drain once more: the result may
                # have been enqueued in its final instants.
                try:
                    kind, index, payload = result_queue.get(timeout=0.2)
                except queue.Empty:
                    exitcode = process.exitcode
                    self._discard_process()
                    self.respawns += 1
                    raise WorkerUnavailable(
                        f"shard worker {self.name!r} died "
                        f"(exit code {exitcode}) while running chunk "
                        f"{chunk.index}"
                    ) from None
            if index != chunk.index:
                # Stale message from a killed incarnation's chunk that
                # completed after the parent gave up on it; drop it.
                continue
            if kind == "error":
                position, message = payload
                raise ChunkJobError(chunk, position, self.name, message)
            results, dropped = payload
            self.corrupt_dropped += dropped
            return results


def local_shard_workers(
    count: int,
    *,
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
) -> List[LocalShardWorker]:
    """``count`` local workers, optionally sharing one persistent
    ``cache_dir`` (the shared-filesystem warm-cache deployment).

    Worker ``i`` is pinned to ``cpus[i % len(cpus)]``, where ``cpus``
    are the CPUs the caller may run on, in order; where the platform
    has no ``os.sched_setaffinity``, no worker is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    return [
        LocalShardWorker(
            name=str(i),
            use_cache=use_cache,
            cache_dir=cache_dir,
            cpu=cpus[i % len(cpus)] if cpus else None,
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Remote workers (repro serve endpoints)
# ----------------------------------------------------------------------
class RemoteShardWorker:
    """One shard behind a ``repro serve`` HTTP endpoint.

    Chunks are POSTed to ``/shard/run`` through a
    :class:`~repro.service.http.ServiceClient` that sends each chunk
    once: a transport failure or a 5xx surfaces as
    :class:`WorkerUnavailable`, and the *coordinator's* policy alone
    decides whether the chunk gets another attempt (possibly
    elsewhere).
    """

    def __init__(
        self,
        url: str,
        *,
        timeout: float = 600.0,
        name: Optional[str] = None,
    ):
        # Deferred import: repro.service imports repro.runner at module
        # load; importing it here keeps the packages cycle-free.
        from ..service.http import ServiceClient

        self.client = ServiceClient(url, timeout=timeout)
        self.name = name if name is not None else url

    def run_chunk(self, chunk: ShardChunk) -> List[JobResult]:
        from ..service.http import ServiceError

        try:
            return self.client.run_jobs(chunk.jobs)
        except ServiceError as exc:
            if 400 <= exc.status < 500:
                # The endpoint rejected the chunk as malformed: a
                # coordinator bug, not a worker death — don't retry.
                raise RuntimeError(
                    f"shard worker {self.name!r} rejected chunk "
                    f"{chunk.index}: {exc}"
                ) from exc
            raise WorkerUnavailable(
                f"shard worker {self.name!r} unavailable for chunk "
                f"{chunk.index}: {exc}"
            ) from exc

    def close(self) -> None:
        """Remote workers hold no local resources."""


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardCoordinator:
    """Partition a job list over shard workers and merge the results.

    Parameters
    ----------
    workers:
        The shard workers (any mix of :class:`LocalShardWorker` and
        :class:`RemoteShardWorker`, or anything implementing
        ``run_chunk``/``close`` with a ``name``).
    chunk_size:
        Jobs per chunk; ``None`` auto-sizes to about four chunks per
        worker, so a worker that finishes early pulls another chunk
        and a retry re-runs a small part of the work.
    retry:
        The per-chunk retry budget and backoff applied when a worker
        dies mid-chunk.
    log:
        A :class:`~repro.runner.progress.ShardLog`; every progress line
        is emitted atomically with a shard tag (``repro batch -v``).
    own_workers:
        When true (the :func:`run_sharded` path), :meth:`run` closes
        the workers on exit.
    """

    def __init__(
        self,
        workers: Sequence[Any],
        *,
        chunk_size: Optional[int] = None,
        retry: RetryPolicy = RetryPolicy(),
        log: ShardLog = NULL_LOG,
        own_workers: bool = False,
    ):
        workers = list(workers)
        if not workers:
            raise ValueError("ShardCoordinator needs at least one worker")
        names = [worker.name for worker in workers]
        if len(set(names)) != len(names):
            raise ValueError(f"shard worker names must be unique, got {names}")
        self.workers = workers
        self.chunk_size = chunk_size
        self.retry = retry
        self.log = log
        self.own_workers = own_workers
        #: Counters of the last run (retries, respawns,
        #: corrupt_dropped).
        self.last_stats: Dict[str, int] = {}

    def _auto_chunk_size(self, job_count: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        return max(1, -(-job_count // (len(self.workers) * 4)))

    def run(self, jobs: Sequence[AnalysisJob]) -> BatchResult:
        """Execute ``jobs`` across the shards; the merged
        :class:`BatchResult`'s deterministic export is byte-identical
        to ``BatchRunner(workers=1).run(jobs)``."""
        jobs = list(jobs)
        start = time.perf_counter()
        try:
            results = self._run_chunks(jobs)
        finally:
            if self.own_workers:
                self.close()
        totals: Dict[str, Dict[str, int]] = {}
        for result in results:
            merge_stats(totals, result.cache)
        return BatchResult(
            jobs=results,
            workers=len(self.workers),
            wall_time=time.perf_counter() - start,
            cache_stats=totals,
        )

    def close(self) -> None:
        for worker in self.workers:
            worker.close()

    def _run_chunks(self, jobs: List[AnalysisJob]) -> List[JobResult]:
        if not jobs:
            return []
        chunks = make_chunks(jobs, self._auto_chunk_size(len(jobs)))
        coordinator = self.log.tag("coord")
        coordinator.line(
            f"dispatching {len(jobs)} jobs as {len(chunks)} chunks "
            f"over {len(self.workers)} workers"
        )
        state = _ShardState(chunks, self.retry)
        threads = [
            threading.Thread(
                target=self._drive,
                args=(worker, state),
                name=f"repro-shard-dispatch-{worker.name}",
                daemon=True,
            )
            for worker in self.workers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.last_stats = {
            "retries": state.retries,
            "respawns": sum(getattr(w, "respawns", 0) for w in self.workers),
            "corrupt_dropped": sum(
                getattr(w, "corrupt_dropped", 0) for w in self.workers
            ),
        }
        if state.failure is not None:
            raise state.failure
        coordinator.line(f"merged {len(chunks)} chunks (retries={state.retries})")
        # The keyed union: chunk results land at their global offsets,
        # reproducing submission order exactly.
        ordered: List[Optional[JobResult]] = [None] * len(jobs)
        for chunk in chunks:
            chunk_results = state.results[chunk.index]
            for offset, result in enumerate(chunk_results):
                ordered[chunk.start + offset] = result
        assert all(result is not None for result in ordered)
        return ordered  # type: ignore[return-value]

    def _drive(self, worker: Any, state: "_ShardState") -> None:
        """One worker's dispatch loop: acquire, run, release."""
        tag = self.log.tag(worker.name)
        while True:
            kind, payload = state.acquire(worker.name)
            if kind == "done":
                if self.own_workers:
                    # Closed here, the owned workers shut down in
                    # parallel rather than one join after another.
                    worker.close()
                return
            if kind == "wait":
                state.wait(worker.name, payload)
                continue
            chunk = payload
            tag.line(f"chunk {chunk.index} start: {len(chunk)} jobs")
            started = time.perf_counter()
            try:
                results = worker.run_chunk(chunk)
            except WorkerUnavailable as exc:
                tag.line(f"chunk {chunk.index} lost: {exc}")
                state.release_failure(chunk, exc, retryable=True)
            except Exception as exc:
                tag.line(f"chunk {chunk.index} failed: {exc}")
                state.release_failure(chunk, exc, retryable=False)
            else:
                state.release_success(chunk, results)
                elapsed = time.perf_counter() - started
                tag.line(f"chunk {chunk.index} done in {elapsed:.3f}s")


def run_sharded(
    jobs: Sequence[AnalysisJob],
    *,
    shards: int = 0,
    worker_urls: Sequence[str] = (),
    use_cache: bool = True,
    cache_dir: Optional[str] = None,
    chunk_size: Optional[int] = None,
    retry: RetryPolicy = RetryPolicy(),
    timeout: float = 600.0,
    log: ShardLog = NULL_LOG,
) -> BatchResult:
    """Convenience entrypoint: build ``shards`` local workers plus one
    remote worker per URL, run ``jobs`` through a
    :class:`ShardCoordinator` under ``retry``, and tear the workers
    down."""
    workers: List[Any] = local_shard_workers(
        shards, use_cache=use_cache, cache_dir=cache_dir
    )
    workers.extend(RemoteShardWorker(url, timeout=timeout) for url in worker_urls)
    coordinator = ShardCoordinator(
        workers, chunk_size=chunk_size, retry=retry, log=log, own_workers=True
    )
    return coordinator.run(jobs)
