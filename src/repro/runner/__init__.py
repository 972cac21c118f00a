"""Batch analysis: in-process or over local shard workers, plus a
whole-result cache.

Public surface::

    from repro.runner import AnalysisCache, AnalysisJob, BatchRunner

    runner = BatchRunner(workers=4)
    batch = runner.run_systems(systems)       # or runner.run(jobs)
    print(batch.summary())
    payload = batch.to_json()                 # deterministic export

The deterministic JSON export of a batch is byte-identical for any
worker count; see :mod:`repro.runner.batch`.  ``BatchRunner(workers=N)``
with ``N > 1`` runs its jobs over ``N`` local shard workers
(:func:`run_sharded`), and every job — in-process, in a shard worker
or behind a ``repro serve`` endpoint — runs through one loop,
:func:`execute_jobs`.  Passing ``BatchRunner(cache_dir=...)`` (CLI:
``repro batch --cache-dir``) backs every worker's result cache with a
shared persistent on-disk store, so warm sweeps analyze nothing across
processes and across runs; ``BatchRunner.run_paths`` reads and parses
system files in the calling process, then runs them like any systems.

Past one host, :mod:`repro.runner.shard` scales the same job lists over
shard workers — local processes and/or remote ``repro serve``
endpoints — with bounded chunk retries, merging to the
byte-identical deterministic export (CLI: ``repro batch --workers N
--worker URL``).
"""

from .batch import BatchExecutionError, BatchResult, BatchRunner, execute_jobs
from .cache import AnalysisCache, CacheStats, merge_stats
from .diskcache import DiskStore, PersistentAnalysisCache
from .jobs import (
    DEFAULT_KS,
    AnalysisJob,
    JobResult,
    analyze_system_job,
    canonical_system_json,
    execute_job,
    job_result_key,
    run_chain_job,
)
from .progress import NULL_LOG, ShardLog, TaggedLog
from .retry import NO_RETRY, RetryPolicy
from .shard import (
    ChunkJobError,
    LocalShardWorker,
    RemoteShardWorker,
    ShardChunk,
    ShardCoordinator,
    ShardExecutionError,
    WorkerUnavailable,
    local_shard_workers,
    make_chunks,
    run_sharded,
)

__all__ = [
    "AnalysisCache",
    "CacheStats",
    "merge_stats",
    "DiskStore",
    "PersistentAnalysisCache",
    "AnalysisJob",
    "JobResult",
    "DEFAULT_KS",
    "analyze_system_job",
    "canonical_system_json",
    "execute_job",
    "job_result_key",
    "run_chain_job",
    "BatchRunner",
    "BatchResult",
    "BatchExecutionError",
    "execute_jobs",
    "RetryPolicy",
    "NO_RETRY",
    "ShardLog",
    "TaggedLog",
    "NULL_LOG",
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
