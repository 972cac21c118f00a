"""Parallel batch analysis: process fan-out plus a whole-result cache.

Public surface::

    from repro.runner import AnalysisCache, AnalysisJob, BatchRunner

    runner = BatchRunner(workers=4)
    batch = runner.run_systems(systems)       # or runner.run(jobs)
    print(batch.summary())
    payload = batch.to_json()                 # deterministic export

The deterministic JSON export of a batch is byte-identical for any
worker count; see :mod:`repro.runner.batch`.  Passing
``BatchRunner(cache_dir=...)`` (CLI: ``repro batch --cache-dir``)
backs every worker's result cache with a shared persistent on-disk
store, so warm sweeps analyze nothing across processes and across
runs; ``BatchRunner.run_paths`` additionally loads system files inside
the workers so parse I/O overlaps analysis.

Past one host, :mod:`repro.runner.shard` scales the same job lists over
shard workers — local processes and/or remote ``repro shard-worker``
endpoints — with work-stealing and bounded retries, merging to the
byte-identical deterministic export (CLI: ``repro shard``).
"""

from .batch import BatchExecutionError, BatchResult, BatchRunner
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
from .loader import SystemLoader, SystemPathJob, execute_path_job
from .progress import NULL_LOG, ShardLog, TaggedLog
from .retry import NO_RETRY, RetryPolicy
from .shard import (
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
    "SystemLoader",
    "SystemPathJob",
    "execute_path_job",
    "BatchRunner",
    "BatchResult",
    "BatchExecutionError",
    "RetryPolicy",
    "NO_RETRY",
    "ShardLog",
    "TaggedLog",
    "NULL_LOG",
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
