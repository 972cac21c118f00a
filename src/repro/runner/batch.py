"""The batch-analysis runner.

:class:`BatchRunner` runs TWCA jobs in-process (``workers = 1``, the
deterministic reference path) or over ``workers`` local shard worker
processes through :func:`repro.runner.shard.run_sharded`
(``workers > 1``).  Every job of a batch — in-process, in a shard
worker, or behind ``POST /shard/run`` — runs through one loop,
:func:`execute_jobs`, under an :class:`~repro.runner.cache.AnalysisCache`,
so the deterministic export of a batch is byte-identical regardless of
the worker count — parallelism only changes wall-clock time.  A job is
a system, a chain and its window sizes: every job runs the one
combination pipeline, the frontier search of ``analyze_twca``.

The cache holds whole job results (:mod:`repro.runner.cache`): a job
whose content identity was analyzed before is served its stored result.
With ``cache_dir`` set, every shard worker (and the serial path) runs
under a :class:`~repro.runner.diskcache.PersistentAnalysisCache`
pointed at the same directory, so results are shared across worker
processes *and* across batch invocations, and a warm sweep analyzes
nothing regardless of job placement.  ``use_cache=False`` disables the
cache entirely.

:meth:`BatchRunner.jobs_for` keeps a system's chain jobs together, and
:func:`execute_jobs` parses each consecutive run of one system's jobs
once (an interleaved repeat parses again; one system is held at a
time).  :meth:`BatchRunner.run_paths` reads and parses system files
here, in the calling process, before any job runs.

Analysis failures (divergent busy windows, unanalyzable chains) are
data: they become ``status="error"`` job results.  Anything else — a
missing chain name, corrupt system JSON, an unreadable system file, a
shard worker that keeps dying — is a bug in the batch itself and is
raised as :class:`BatchExecutionError` naming the failing job.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..model import System
from ..model.serialization import load_system_file
from .cache import AnalysisCache, merge_stats
from .diskcache import PersistentAnalysisCache
from .jobs import (
    DEFAULT_KS,
    AnalysisJob,
    JobResult,
    default_chain_names,
    execute_job,
    run_chain_job,
)


def _build_cache(use_cache: bool, cache_dir: Optional[str]) -> Optional[AnalysisCache]:
    """The cache implied by the (use_cache, cache_dir) knobs: ``None``,
    in-memory, or disk-backed — one policy for parent and workers."""
    if not use_cache:
        return None
    if cache_dir is not None:
        return PersistentAnalysisCache(cache_dir)
    return AnalysisCache()


class BatchExecutionError(RuntimeError):
    """A job failed outside the analysis layer (bad input, or a shard
    worker that kept dying); carries the job — or, for a system file
    that did not load, its path — and the original exception as
    ``cause``.

    :func:`execute_jobs` also records where the job failed: ``index``
    is its position in the jobs it ran, and ``system`` its parsed
    system (``None`` when the parse itself failed).
    """

    index: Optional[int] = None
    system: Optional[System] = None

    def __init__(self, job: Union[AnalysisJob, str], cause: BaseException):
        self.job = job
        self.cause = cause
        if isinstance(job, str):
            subject = f"system file {job!r}"
        else:
            subject = f"batch job {job.label!r} (chain {job.chain_name!r})"
        super().__init__(f"{subject} failed: {type(cause).__name__}: {cause}")


def load_systems(paths: Sequence[str]) -> List[System]:
    """Read and parse system files, in order; a missing or unparsable
    one raises :class:`BatchExecutionError` naming its path."""
    systems = []
    for path in paths:
        try:
            systems.append(load_system_file(path))
        except Exception as exc:
            raise BatchExecutionError(str(path), exc) from exc
    return systems


def execute_jobs(
    jobs: Sequence[AnalysisJob], cache: Optional[AnalysisCache] = None
) -> List[JobResult]:
    """Run ``jobs`` in order under ``cache``: the one job loop of the
    serial runner, the shard worker processes and ``POST /shard/run``.

    Consecutive jobs with one ``system_json`` share one parse.  The
    first job that raises ends the loop with a
    :class:`BatchExecutionError` on that job.
    """
    results: List[JobResult] = []
    text, system = None, None
    for job in jobs:
        try:
            if job.system_json != text:
                text, system = job.system_json, job.system()
            results.append(execute_job(job, cache=cache, system=system))
        except Exception as exc:
            error = BatchExecutionError(job, exc)
            error.index = len(results)
            error.system = system if text == job.system_json else None
            raise error from exc
    return results


@dataclass
class BatchResult:
    """Everything one batch run produced.

    ``jobs`` preserves submission order (determinism); ``wall_time``,
    ``workers`` and ``cache_stats`` are observability fields excluded
    from the deterministic export.  ``cache_stats`` merges the per-job
    lookup records across every worker process, so hits + misses sum
    to the cache lookups of the whole batch wherever they ran.
    """

    jobs: List[JobResult]
    workers: int = 1
    wall_time: float = 0.0
    cache_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)

    @property
    def status_counts(self) -> Dict[str, int]:
        """Jobs per status, sorted by status name."""
        counts: Dict[str, int] = {}
        for job in self.jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def errors(self) -> List[JobResult]:
        return [job for job in self.jobs if not job.ok]

    @property
    def cache_hit_rate(self) -> float:
        """Overall cache hit rate across all workers."""
        hits = sum(c.get("hits", 0) for c in self.cache_stats.values())
        misses = sum(c.get("misses", 0) for c in self.cache_stats.values())
        total = hits + misses
        return hits / total if total else 0.0

    @property
    def disk_hit_count(self) -> int:
        """Lookups served by promoting a persistent on-disk entry."""
        return sum(c.get("disk_hits", 0) for c in self.cache_stats.values())

    @property
    def job_hits(self) -> int:
        """Jobs served whole from the result cache — warm batches skip
        the analysis for these."""
        return self.cache_stats.get("jobs", {}).get("hits", 0)

    def to_dict(self, *, deterministic: bool = True) -> Dict[str, Any]:
        """Plain-dict export.  With ``deterministic=True`` (default) the
        payload depends only on the jobs and their analysis outcomes —
        ``--workers 1`` and ``--workers N`` exports compare equal."""
        data: Dict[str, Any] = {
            "job_count": len(self.jobs),
            "status_counts": self.status_counts,
            "jobs": [job.to_dict(deterministic=deterministic) for job in self.jobs],
        }
        if not deterministic:
            data["workers"] = self.workers
            data["wall_time"] = self.wall_time
            data["cache"] = self.cache_stats
            data["cache_hit_rate"] = self.cache_hit_rate
        return data

    def to_json(
        self,
        *,
        deterministic: bool = True,
        indent: Optional[int] = 2,
    ) -> str:
        """JSON export of :meth:`to_dict`."""
        return json.dumps(
            self.to_dict(deterministic=deterministic),
            indent=indent,
            sort_keys=True,
        )

    def summary(self) -> str:
        """Human-readable one-screen summary table."""
        from ..report.tables import format_table

        rows = []
        for job in self.jobs:
            dmm = ", ".join(f"dmm({k})={v}" for k, v in sorted(job.dmm.items()))
            wcl = "-" if job.wcl is None else f"{job.wcl:g}"
            rows.append((job.label, job.chain_name, job.status, wcl, dmm or "-"))
        table = format_table(("job", "chain", "status", "WCL", "DMM"), rows)
        counts = ", ".join(
            f"{status}: {count}" for status, count in self.status_counts.items()
        )
        tail = (
            f"{len(self.jobs)} jobs ({counts}) in {self.wall_time:.2f}s "
            f"with {self.workers} worker(s), "
            f"cache hit rate {self.cache_hit_rate:.0%}"
        )
        if self.disk_hit_count:
            tail += f" ({self.disk_hit_count} served from disk)"
        return f"{table}\n{tail}"


class BatchRunner:
    """Run TWCA jobs in-process or over local shard workers, with
    cached results.

    Parameters
    ----------
    workers:
        ``1`` runs jobs in-process (deterministic serial reference);
        ``N > 1`` runs them over ``N`` local shard worker processes
        (:func:`~repro.runner.shard.run_sharded`), with its retries of
        chunks whose worker died.  Results are returned in submission
        order in both modes and the deterministic exports are
        identical.
    ks:
        DMM window sizes evaluated per job (overridable per job).
    cache:
        Explicit in-process cache for the serial path and
        :meth:`analyze`/:meth:`evaluate_dmm`; overrides the
        ``cache_dir``/``use_cache`` policy when given.
    cache_dir:
        Root of the shared persistent cache.  Shard workers and the
        serial path all run under a
        :class:`~repro.runner.diskcache.PersistentAnalysisCache` on
        this directory, so warm batches analyze nothing across
        processes and across runs.
    use_cache:
        ``False`` disables the result cache everywhere (the
        ``--no-cache`` escape hatch).
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        ks: Tuple[int, ...] = DEFAULT_KS,
        cache: Optional[AnalysisCache] = None,
        cache_dir: Optional[str] = None,
        use_cache: bool = True,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.ks = tuple(ks)
        self.cache_dir = None if cache_dir is None else str(cache_dir)
        self.use_cache = use_cache
        if cache is not None:
            self.cache: Optional[AnalysisCache] = cache
        else:
            self.cache = _build_cache(use_cache, self.cache_dir)

    # ------------------------------------------------------------------
    # Job construction
    # ------------------------------------------------------------------
    def jobs_for(
        self,
        systems: Iterable[System],
        chains: Optional[Sequence[str]] = None,
        *,
        labels: Optional[Sequence[str]] = None,
        ks: Optional[Tuple[int, ...]] = None,
    ) -> List[AnalysisJob]:
        """One job per (system, chain).  ``chains=None`` selects every
        typical chain with a finite deadline of each system.

        A system's jobs are consecutive and share one ``system_json``
        string: serialized once, pickled once per shard chunk, and
        parsed once by :func:`execute_jobs`."""
        job_ks = tuple(ks) if ks is not None else self.ks
        jobs: List[AnalysisJob] = []
        for index, system in enumerate(systems):
            label = labels[index] if labels is not None else system.name
            names = chains if chains is not None else default_chain_names(system)
            if not names:
                continue
            first = AnalysisJob.from_system(system, names[0], ks=job_ks, label=label)
            jobs.append(first)
            jobs.extend(replace(first, chain_name=name) for name in names[1:])
        return jobs

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, jobs: Sequence[AnalysisJob]) -> BatchResult:
        """Execute ``jobs`` and collect a :class:`BatchResult`."""
        jobs = list(jobs)
        if self.workers > 1 and len(jobs) > 1:
            return self._run_sharded(jobs)
        start = time.perf_counter()
        results = execute_jobs(jobs, self.cache)
        totals: Dict[str, Dict[str, int]] = {}
        for result in results:
            merge_stats(totals, result.cache)
        return BatchResult(
            jobs=results,
            workers=self.workers,
            wall_time=time.perf_counter() - start,
            cache_stats=totals,
        )

    def run_systems(
        self,
        systems: Iterable[System],
        chains: Optional[Sequence[str]] = None,
        *,
        labels: Optional[Sequence[str]] = None,
        ks: Optional[Tuple[int, ...]] = None,
    ) -> BatchResult:
        """Convenience: :meth:`jobs_for` then :meth:`run`."""
        return self.run(self.jobs_for(systems, chains, labels=labels, ks=ks))

    def run_paths(
        self,
        paths: Sequence[str],
        chains: Optional[Sequence[str]] = None,
        *,
        labels: Optional[Sequence[str]] = None,
        ks: Optional[Tuple[int, ...]] = None,
    ) -> BatchResult:
        """Analyze system *files*: :meth:`run_systems` on the parsed
        files, labeled by path unless ``labels`` are given.

        Every file is read and parsed here before any job runs
        (:func:`load_systems`).
        """
        if labels is None:
            labels = [str(path) for path in paths]
        return self.run_systems(load_systems(paths), chains, labels=labels, ks=ks)

    def _run_sharded(self, jobs: List[AnalysisJob]) -> BatchResult:
        """``jobs`` over up to :attr:`workers` local shard workers."""
        # Deferred import: repro.runner.shard imports this module.
        from .shard import ChunkJobError, ShardExecutionError, run_sharded

        try:
            # No more processes than jobs: an idle one would only
            # cost a process start.
            return run_sharded(
                jobs,
                shards=min(self.workers, len(jobs)),
                use_cache=self.use_cache,
                cache_dir=self.cache_dir,
            )
        except ShardExecutionError as exc:
            if isinstance(exc.cause, ChunkJobError):
                job = exc.chunk.jobs[exc.cause.index]
                raise BatchExecutionError(job, exc.cause) from exc
            # The chunk's workers kept dying: name its first job.
            raise BatchExecutionError(exc.chunk.jobs[0], exc) from exc

    # ------------------------------------------------------------------
    # In-process evaluation for sequential consumers (opt layer)
    # ------------------------------------------------------------------
    def analyze(
        self,
        system: System,
        chain_name: str,
        *,
        ks: Optional[Tuple[int, ...]] = None,
    ) -> JobResult:
        """One TWCA job in-process behind the runner's cache — the
        evaluation primitive for inherently sequential searches (hill
        climbing, binary-search margins): a candidate they revisit is
        served its whole stored result.

        Operates on the live system: the canonical-JSON round-trip of
        :class:`AnalysisJob` exists for cross-process transport and
        would dominate warm, cache-served evaluations here.  A job is
        only materialized on the error path, to name the failure."""
        job_ks = tuple(ks) if ks is not None else self.ks
        try:
            return run_chain_job(
                system,
                chain_name,
                ks=job_ks,
                label=system.name,
                cache=self.cache,
            )
        except Exception as exc:
            job = AnalysisJob.from_system(system, chain_name, ks=job_ks)
            raise BatchExecutionError(job, exc) from exc

    def evaluate_dmm(
        self,
        system: System,
        chain_names: Sequence[str],
        k: int,
    ) -> float:
        """Summed :meth:`JobResult.score` over ``chain_names`` — the
        convention of :func:`repro.opt.priority_search.dmm_objective`:
        analysis errors contribute the vacuous bound ``k``.  Lower is
        better."""
        total = 0.0
        for name in chain_names:
            total += self.analyze(system, name, ks=(k,)).score(k)
        return total
