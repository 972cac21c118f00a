"""The in-process analysis service: the request/response facade the
daemon runs, owning the warm state that used to die with each CLI
invocation.

:class:`AnalysisService` runs per-chain TWCA jobs
(:func:`repro.runner.jobs.run_chain_job`) and chunks of pre-built batch
jobs behind one request/response entrypoint.  Its one piece of warm
state is **the result cache** (in-memory, or persistent under
``options.cache_dir``): whole job results keyed by job content
identity, whose first part is the system's content digest.  A job's
result depends only on that content, so a repeated request analyzes
nothing, and the service keeps no system once its request is answered.

Concurrency model: the service is thread-safe and built for the
threaded HTTP front.  Every request is one compute on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` (``workers``, surfaced
as ``repro serve --workers``), and computes genuinely overlap: each
analyzes its own parsed system, and they share only the
:class:`~repro.runner.cache.AnalysisCache`, which is locked internally.
Each job records its own cache lookup outcome — so nothing is
serialized globally, no request changes process-global state, and the
per-job cache records of overlapping computes still sum to the cache's
own counters.  A repeated request is answered by the cache: one that
queued behind its identical twin finds the twin's stored result when
its own compute starts.
"""

from __future__ import annotations

import hashlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..model.serialization import system_from_json
from ..runner.batch import BatchExecutionError, _build_cache, execute_jobs
from ..runner.cache import AnalysisCache
from ..runner.jobs import (
    AnalysisJob,
    JobResult,
    default_chain_names,
    run_chain_job,
)
from .api import AnalysisOptions, AnalysisRequest, AnalysisResponse, RequestError


class AnalysisService:
    """Long-lived analysis facade over one result cache.

    Parameters
    ----------
    options:
        The shared analysis knobs (the cache policy); defaults to
        :class:`AnalysisOptions`'s defaults.
    cache:
        Explicit cache instance; overrides the ``options`` cache
        policy (used by tests and embedders sharing a cache).
    workers:
        Maximum concurrently executing computes (the bound of the
        compute thread pool).  ``1`` (default) keeps the serialized
        behavior; the daemon surfaces this as ``repro serve
        --workers``.
    """

    def __init__(
        self,
        options: Optional[AnalysisOptions] = None,
        *,
        cache: Optional[AnalysisCache] = None,
        workers: int = 1,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.options = options if options is not None else AnalysisOptions()
        self.workers = workers
        if cache is not None:
            self.cache: Optional[AnalysisCache] = cache
        else:
            self.cache = _build_cache(self.options.use_cache, self.options.cache_dir)
        self._lock = threading.Lock()
        # Threads spawn lazily on first submit, so a service that
        # never computes never pays for the pool.
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-compute"
        )
        self._executing = 0
        self.started_at = time.time()
        self.counters: Dict[str, int] = {"requests": 0, "computes": 0}

    def close(self) -> None:
        """Shut the compute pool down (idempotent).  In-flight computes
        finish; the service stays usable for everything that does not
        need the pool (stats)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # The request/response entrypoint
    # ------------------------------------------------------------------
    def analyze(self, request: AnalysisRequest) -> AnalysisResponse:
        """Serve one request: one compute on the bounded pool, so at
        most ``workers`` analyses execute at once no matter how many
        HTTP threads pile in."""
        with self._lock:
            self.counters["requests"] += 1
        system_digest, jobs = self._compute(self._execute, request)
        return AnalysisResponse(system_digest=system_digest, jobs=jobs)

    def run_jobs(self, jobs: Sequence[AnalysisJob]) -> List[JobResult]:
        """Execute pre-built :class:`AnalysisJob` units under the
        service cache — the ``POST /shard/run`` compute path.

        Jobs carry all their own parameters (the coordinator built
        them), so unlike :meth:`analyze` there is no chain selection:
        the chunk runs as one compute on the pool, through the serial
        runner's loop (:func:`~repro.runner.batch.execute_jobs`, one
        parse per system), and the results come back in submission
        order exactly as a local shard worker would produce them —
        which is what keeps remote shards byte-identical to local ones.
        A job whose system does not parse or lacks its chain raises
        :class:`RequestError` (HTTP 400): the sender's error, which a
        coordinator must not retry.  Any other failure raises as is.
        """
        jobs = list(jobs)
        if not jobs:
            raise RequestError("shard run requires at least one job")
        with self._lock:
            self.counters["requests"] += 1
        try:
            return self._compute(execute_jobs, jobs, self.cache)
        except BatchExecutionError as exc:
            job, cause, system = exc.job, exc.cause, exc.system
            if system is None and isinstance(
                cause, (AttributeError, KeyError, TypeError, ValueError)
            ):
                raise RequestError(
                    f"job {job.label!r}: invalid system: {cause}"
                ) from cause
            if system is not None and job.chain_name not in system:
                raise RequestError(
                    f"job {job.label!r}: no chain named {job.chain_name!r} in "
                    f"system {system.name!r}"
                ) from cause
            raise cause from None

    def _compute(self, work: Callable[..., Any], *args: Any) -> Any:
        """Run ``work(*args)`` as one compute on the bounded pool.  The
        one definition of ``computes`` and ``inflight`` for both routes:
        a compute counts from when it starts on a pool thread, not
        while it waits in the pool's queue."""

        def counted() -> Any:
            with self._lock:
                self.counters["computes"] += 1
                self._executing += 1
            try:
                return work(*args)
            finally:
                with self._lock:
                    self._executing -= 1

        return self._executor.submit(counted).result()

    def _execute(self, request: AnalysisRequest) -> Tuple[str, List[JobResult]]:
        """One actual compute: parse the system, select the chains, run
        the per-chain jobs under the service cache.  Runs on the compute
        pool; overlapping computes are safe — see the module
        docstring."""
        # A wire request carries the system its from_dict parsed.
        system = getattr(request, "_system", None)
        if system is None:
            system = system_from_json(request.system_json)
        # ``system_json`` is the canonical serialization, so its hash is
        # the content digest; seed it to skip the re-serialization.
        digest = hashlib.sha256(request.system_json.encode("utf-8")).hexdigest()
        system.__dict__["_content_digest"] = digest
        if request.chain is not None:
            if request.chain not in system:
                raise RequestError(
                    f"no chain named {request.chain!r} in system "
                    f"{system.name!r}; have "
                    f"{sorted(c.name for c in system.chains)}"
                )
            names: Tuple[str, ...] = (request.chain,)
        else:
            names = default_chain_names(system)
        cache = self.cache if request.use_cache else None
        label = request.label or system.name
        jobs = [
            run_chain_job(system, name, ks=request.ks, label=label, cache=cache)
            for name in names
        ]
        return digest, jobs

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, Any]:
        """The ``GET /cache/stats`` payload: the cache counters
        (``{"jobs": {...}}``) plus the service-level request accounting, the
        compute-pool bound (``workers``) and the number of computes
        executing right now (``inflight``)."""
        with self._lock:
            service: Dict[str, Any] = dict(self.counters)
            # The service neither coalesces nor merges requests, nor
            # keeps systems; these keys read 0 and stay because
            # perfbench's traced run reads them.
            service["coalesced"] = 0
            service["merged"] = 0
            service["systems"] = 0
            service["workers"] = self.workers
            service["inflight"] = self._executing
        service["uptime"] = time.time() - self.started_at
        return {
            "cache": self.cache.stats_dict() if self.cache is not None else {},
            "service": service,
        }
