"""The in-process analysis service: the request/response facade the
daemon runs, owning the warm state that used to die with each CLI
invocation.

:class:`AnalysisService` runs per-chain TWCA jobs
(:func:`repro.runner.jobs.run_chain_job`) and chunks of pre-built batch
jobs behind one request/response entrypoint and keeps two kinds of
state hot across calls:

* **loaded systems**, keyed by content digest — a client can send a
  system once and reference it by digest forever after.  A wire request
  registers the system its ``from_dict`` parsed (no second parse);
* **the result cache** (in-memory, or persistent under
  ``options.cache_dir``) — whole job results keyed by job content
  identity, so a repeated request analyzes nothing.

Concurrency model: the service is thread-safe and built for the
threaded HTTP front.  Every request is one compute on a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` (``workers``, surfaced
as ``repro serve --workers``), and computes genuinely overlap:
concurrent analyses share only the registered systems, whose lazily
built state (compiled staircase kernels, cached chain constants) comes
out the same whichever request builds it, the shared
:class:`~repro.runner.cache.AnalysisCache` is locked internally, and
each job records its own cache lookup outcome — so nothing is
serialized globally, no request changes process-global state, and the
per-job cache records of overlapping computes still sum to the cache's
own counters.  A repeated request is answered by the cache: one that
queued behind its identical twin finds the twin's stored result when
its own compute starts.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..model import System
from ..model.serialization import system_from_json
from ..runner.batch import BatchExecutionError, _build_cache, execute_jobs
from ..runner.cache import AnalysisCache
from ..runner.jobs import (
    AnalysisJob,
    JobResult,
    default_chain_names,
    run_chain_job,
)
from .api import (
    AnalysisOptions,
    AnalysisRequest,
    AnalysisResponse,
    RequestError,
    UnknownSystemError,
)


class AnalysisService:
    """Long-lived analysis facade with warm systems and caches.

    Parameters
    ----------
    options:
        The shared analysis knobs (combination pipeline, cache policy);
        defaults to :class:`AnalysisOptions`'s defaults.
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
        self._systems: Dict[str, System] = {}
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
        need the pool (registry, stats)."""
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Warm system registry
    # ------------------------------------------------------------------
    def register_system(self, system: System) -> str:
        """Keep ``system`` warm and return its content digest — the
        handle later requests can pass as ``system_digest``."""
        digest = system.content_digest()
        with self._lock:
            self._systems[digest] = system
        return digest

    def system_for(self, request: AnalysisRequest) -> System:
        """Resolve the request's system: the warm instance when the
        digest is known, else register the inline payload (the system
        :meth:`AnalysisRequest.from_dict` parsed, or a parse).
        :class:`UnknownSystemError` for an unregistered reference."""
        digest = request.system_identity
        with self._lock:
            system = self._systems.get(digest)
        if system is not None:
            return system
        if request.system_json is None:
            raise UnknownSystemError(
                f"unknown system_digest {request.system_digest!r}; "
                "send the request once with the system inline to register it"
            )
        system = getattr(request, "_system", None)
        if system is None:
            system = system_from_json(request.system_json)
        # The request carries the canonical serialization, so the digest
        # is already content-true; seed it to skip the re-hash.
        system.__dict__["_content_digest"] = digest
        with self._lock:
            self._systems[digest] = system
        return system

    # ------------------------------------------------------------------
    # The request/response entrypoint
    # ------------------------------------------------------------------
    def analyze(self, request: AnalysisRequest) -> AnalysisResponse:
        """Serve one request: one compute on the bounded pool, so at
        most ``workers`` analyses execute at once no matter how many
        HTTP threads pile in."""
        with self._lock:
            self.counters["requests"] += 1
        system_digest, jobs = self._executor.submit(self._execute, request).result()
        return AnalysisResponse(
            request_digest=request.digest, system_digest=system_digest, jobs=jobs
        )

    def run_jobs(self, jobs: Sequence[AnalysisJob]) -> List[JobResult]:
        """Execute pre-built :class:`AnalysisJob` units under the
        service cache — the ``POST /shard/run`` compute path.

        Jobs carry all their own parameters (the coordinator built
        them), so unlike :meth:`analyze` there is no request resolution:
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
            self.counters["computes"] += 1
            self._executing += 1
        try:
            return self._executor.submit(execute_jobs, jobs, self.cache).result()
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
        finally:
            with self._lock:
                self._executing -= 1

    def _execute(self, request: AnalysisRequest) -> Tuple[str, List[JobResult]]:
        """One actual compute: resolve the system, select the chains,
        run the per-chain jobs under the service cache.  Runs on the
        compute pool; overlapping computes are safe — see the module
        docstring."""
        system = self.system_for(request)
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
        with self._lock:
            self.counters["computes"] += 1
            self._executing += 1
        try:
            jobs = [
                run_chain_job(
                    system,
                    name,
                    ks=request.ks,
                    enumeration=request.enumeration,
                    label=label,
                    cache=cache,
                )
                for name in names
            ]
        finally:
            with self._lock:
                self._executing -= 1
        return system.content_digest(), jobs

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
            # The service neither coalesces nor merges requests; these
            # keys read 0 and stay because perfbench's traced run
            # reads them.
            service["coalesced"] = 0
            service["merged"] = 0
            service["systems"] = len(self._systems)
            service["workers"] = self.workers
            service["inflight"] = self._executing
        service["uptime"] = time.time() - self.started_at
        return {
            "cache": self.cache.stats_dict() if self.cache is not None else {},
            "service": service,
        }
