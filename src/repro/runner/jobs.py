"""Batch jobs: one (system, chain) TWCA unit of work.

Jobs carry the system as canonical JSON rather than a live object so
they pickle cheaply and identically across process boundaries, and so a
job is itself content-addressed: :attr:`AnalysisJob.digest` identifies
a (system, chain, parameters) work unit, and :func:`job_result_key` is
the equivalent tuple the result cache keys on.
:func:`run_chain_job` is the single execution path of the serial
runner, the shard workers and the service — one cache lookup per job,
and on a miss one analysis and one store — which is what makes
``workers=1`` and ``workers=N`` byte-identical.

The system is the unit of parsing, the job the unit of analysis: the
jobs :meth:`repro.runner.BatchRunner.jobs_for` builds for one system
share one ``system_json`` string, and the one job loop,
:func:`repro.runner.batch.execute_jobs`, parses a run of consecutive
jobs with one ``system_json`` once and passes the parsed system to
each :func:`execute_job`.  Digests and cache keys stay per job.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Hashable, Optional, Tuple

from ..analysis.exceptions import AnalysisError
from ..analysis.twca import ENUMERATION_MODES, analyze_twca
from ..model import System
from ..model.serialization import canonical_system_json, system_from_dict
from .cache import CATEGORY, AnalysisCache

#: Default DMM window sizes exported per job (Table II uses 3/76/250;
#: 1/10/100 is the library-wide reporting default).
DEFAULT_KS: Tuple[int, ...] = (1, 10, 100)


def checked_ks(ks: Any) -> Tuple[int, ...]:
    """``ks`` as a tuple of DMM window sizes: at least one, each an
    integer >= 1 (``bool`` is not a window size).  ``ValueError``
    otherwise."""
    ks = tuple(ks)
    if not ks:
        raise ValueError("'ks' must name at least one DMM window size")
    for k in ks:
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f"'ks' entries must be integers >= 1, got {k!r}")
    return ks


@dataclass(frozen=True)
class AnalysisJob:
    """One TWCA work unit: analyze ``chain_name`` inside the system.

    ``label`` identifies the job in reports (defaults to the system
    name); ``ks`` are the DMM window sizes evaluated and exported.
    Every field is checked on construction (``ValueError``), so a
    malformed wire job is rejected before it runs.
    """

    system_json: str
    chain_name: str
    ks: Tuple[int, ...] = DEFAULT_KS
    max_combinations: int = 100_000
    exact_criterion: bool = True
    enumeration: str = "pruned"
    label: str = ""

    def __post_init__(self) -> None:
        for name in ("system_json", "chain_name", "label"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"'{name}' must be a string")
        object.__setattr__(self, "ks", checked_ks(self.ks))
        if self.enumeration not in ENUMERATION_MODES:
            raise ValueError(
                f"unknown enumeration {self.enumeration!r}; "
                f"choose from {list(ENUMERATION_MODES)}"
            )
        limit = self.max_combinations
        if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
            raise ValueError(
                f"'max_combinations' must be an integer >= 1, got {limit!r}"
            )
        if not isinstance(self.exact_criterion, bool):
            raise ValueError("'exact_criterion' must be a boolean")

    @classmethod
    def from_system(
        cls,
        system: System,
        chain_name: str,
        *,
        ks: Tuple[int, ...] = DEFAULT_KS,
        max_combinations: int = 100_000,
        exact_criterion: bool = True,
        enumeration: str = "pruned",
        label: str = "",
    ) -> "AnalysisJob":
        """Build a job from a live system (serialized canonically)."""
        return cls(
            system_json=canonical_system_json(system),
            chain_name=chain_name,
            ks=ks,
            max_combinations=max_combinations,
            exact_criterion=exact_criterion,
            enumeration=enumeration,
            label=label or system.name,
        )

    @property
    def digest(self) -> str:
        """Content digest of (system, chain, parameters): the stable
        identity of this work unit across processes and runs.  The
        shared result cache keys the equivalent tuple identity (see
        :func:`job_result_key`), reachable from both serialized jobs
        and live systems."""
        payload = json.dumps(
            [
                self.system_json,
                self.chain_name,
                list(self.ks),
                self.max_combinations,
                self.exact_criterion,
                self.enumeration,
            ],
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def system(self) -> System:
        """Materialize the system object.

        ``system_json`` is already the canonical serialization, so the
        content digest is seeded from it directly — workers skip the
        re-serialize-and-hash that ``System.content_digest`` would do."""
        system = system_from_dict(json.loads(self.system_json))
        digest = hashlib.sha256(self.system_json.encode("utf-8")).hexdigest()
        system.__dict__["_content_digest"] = digest
        return system

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe wire form for remote shard transport.  The system
        travels as its canonical JSON string, so
        ``from_dict(to_dict())`` reproduces the job — and its
        :attr:`digest` — exactly."""
        return {
            "system_json": self.system_json,
            "chain_name": self.chain_name,
            "ks": list(self.ks),
            "max_combinations": self.max_combinations,
            "exact_criterion": self.exact_criterion,
            "enumeration": self.enumeration,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AnalysisJob":
        """Inverse of :meth:`to_dict`; rejects unknown fields so wire
        drift between coordinator and worker versions fails loudly."""
        known = {
            "system_json",
            "chain_name",
            "ks",
            "max_combinations",
            "exact_criterion",
            "enumeration",
            "label",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown AnalysisJob fields: {sorted(unknown)}")
        try:
            system_json = data["system_json"]
            chain_name = data["chain_name"]
        except KeyError as exc:
            raise ValueError(f"AnalysisJob wire form missing {exc}") from None
        return cls(
            system_json=system_json,
            chain_name=chain_name,
            ks=data.get("ks", DEFAULT_KS),
            max_combinations=data.get("max_combinations", 100_000),
            exact_criterion=data.get("exact_criterion", True),
            enumeration=data.get("enumeration", "pruned"),
            label=data.get("label", ""),
        )


@dataclass
class JobResult:
    """Outcome of one :class:`AnalysisJob`.

    ``status`` is the :class:`~repro.analysis.twca.GuaranteeStatus`
    value string, or ``"error"`` when the analysis raised an
    :class:`~repro.analysis.exceptions.AnalysisError` (recorded in
    ``error``).  ``dmm`` maps each requested window size to its miss
    bound.  ``elapsed`` (seconds), ``cache`` (this job's own cache
    lookup outcome, ``{"jobs": {"hits", "misses", "disk_hits"}}``, each
    0 or 1), ``packing`` (the packing counters of
    :meth:`~repro.analysis.twca.ChainTwcaResult.packing_stats`) are
    observability fields excluded from deterministic exports.
    """

    label: str
    chain_name: str
    status: str
    wcl: Optional[float] = None
    typical_wcl: Optional[float] = None
    n_b: int = 0
    combinations: int = 0
    unschedulable: int = 0
    dmm: Dict[int, int] = field(default_factory=dict)
    error: Optional[str] = None
    elapsed: float = 0.0
    cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    packing: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobResult":
        """Rebuild a result from its exported dict — the inverse of
        :meth:`to_dict`.  Deterministic fields are always restored;
        observability fields (``elapsed``, ``cache``, ``packing``) are
        restored when the payload carries them (remote shard workers
        ship ``to_dict(deterministic=False)`` so the coordinator can
        merge cache statistics) and keep their defaults otherwise."""
        return cls(
            label=data["label"],
            chain_name=data["chain"],
            status=data["status"],
            wcl=data.get("wcl"),
            typical_wcl=data.get("typical_wcl"),
            n_b=data.get("n_b", 0),
            combinations=data.get("combinations", 0),
            unschedulable=data.get("unschedulable", 0),
            dmm={int(k): v for k, v in data.get("dmm", {}).items()},
            error=data.get("error"),
            elapsed=data.get("elapsed", 0.0),
            cache={
                category: {field: int(v) for field, v in counters.items()}
                for category, counters in data.get("cache", {}).items()
            },
            packing={k: int(v) for k, v in data.get("packing", {}).items()},
        )

    def score(self, k: int) -> float:
        """The scoring convention of
        :class:`repro.opt.priority_search.DmmObjective`: ``dmm(k)``,
        or the vacuous bound ``k`` when the analysis errored.  Lower is
        better.  Every runner-backed evaluation path shares this single
        implementation so serial and batched searches cannot drift."""
        return float(k) if not self.ok else float(self.dmm[k])

    def to_dict(self, *, deterministic: bool = True) -> Dict[str, Any]:
        """Plain-dict form; ``deterministic`` drops timing/cache fields
        so serial and parallel runs export byte-identical payloads."""
        data: Dict[str, Any] = {
            "label": self.label,
            "chain": self.chain_name,
            "status": self.status,
            "wcl": _json_number(self.wcl),
            "typical_wcl": _json_number(self.typical_wcl),
            "n_b": self.n_b,
            "combinations": self.combinations,
            "unschedulable": self.unschedulable,
            "dmm": {str(k): v for k, v in sorted(self.dmm.items())},
            "error": self.error,
        }
        if not deterministic:
            data["elapsed"] = self.elapsed
            data["cache"] = self.cache
            data["packing"] = self.packing
        return data


def _json_number(value: Optional[float]) -> Optional[float]:
    """Strict-JSON-safe number: non-finite floats become ``None``."""
    if value is None or not math.isfinite(value):
        return None
    return value


def analyze_system_job(
    system: System,
    chain_name: str,
    *,
    ks: Tuple[int, ...] = DEFAULT_KS,
    max_combinations: int = 100_000,
    exact_criterion: bool = True,
    enumeration: str = "pruned",
    label: str = "",
) -> JobResult:
    """Run one TWCA and summarize it as a :class:`JobResult`.

    Analysis-level failures (:class:`AnalysisError`) are captured as
    ``status="error"`` results; anything else (missing chain, broken
    system JSON, worker bugs) propagates to the caller.
    """
    label = label or system.name
    chain = system[chain_name]
    start = time.perf_counter()
    try:
        result = analyze_twca(
            system,
            chain,
            max_combinations=max_combinations,
            exact_criterion=exact_criterion,
            enumeration=enumeration,
        )
    except AnalysisError as exc:
        return JobResult(
            label=label,
            chain_name=chain_name,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            elapsed=time.perf_counter() - start,
        )
    dmm = result.dmm_curve(ks)
    full, typical = result.full_latency, result.typical_latency
    return JobResult(
        label=label,
        chain_name=chain_name,
        status=result.status.value,
        wcl=None if full is None else full.wcl,
        typical_wcl=None if typical is None else typical.wcl,
        n_b=result.n_b,
        combinations=result.combination_count,
        unschedulable=result.unschedulable_count,
        dmm=dmm,
        elapsed=time.perf_counter() - start,
        packing=result.packing_stats(),
    )


def default_chain_names(system: System) -> Tuple[str, ...]:
    """The chains a batch analyzes when none are named explicitly:
    every typical chain with a finite deadline, in system order."""
    return tuple(c.name for c in system.typical_chains if c.has_deadline)


def job_result_key(
    system: System,
    chain_name: str,
    ks: Tuple[int, ...],
    max_combinations: int,
    exact_criterion: bool,
    enumeration: str,
) -> Optional[Hashable]:
    """The content identity of one (system, chain, parameters) work
    unit — the result cache key.  ``None`` when the system has no
    canonical digest (user-defined event models, or an object without
    ``content_digest``), in which case result reuse is skipped rather
    than risking key collisions."""
    try:
        digest = system.content_digest()
    except (TypeError, AttributeError):
        return None
    return (
        digest,
        chain_name,
        tuple(ks),
        max_combinations,
        exact_criterion,
        enumeration,
    )


def run_chain_job(
    system: System,
    chain_name: str,
    *,
    ks: Tuple[int, ...] = DEFAULT_KS,
    max_combinations: int = 100_000,
    exact_criterion: bool = True,
    enumeration: str = "pruned",
    label: str = "",
    cache: Optional[AnalysisCache] = None,
) -> JobResult:
    """:func:`analyze_system_job` behind the whole-result ``cache``:
    the shared execution primitive of serialized jobs
    (:func:`execute_job`), the service's ``/analyze`` computes and
    :meth:`repro.runner.BatchRunner.analyze`.

    Under a cache, a job does one lookup keyed by
    :func:`job_result_key`.  A content-identical job — a duplicate in
    the same batch, a revisited optimizer candidate, or any job of a
    warm persistent run — is served the stored :class:`JobResult`
    (analysis outcomes are pure functions of the key, so served and
    recomputed results are identical; only the observability fields
    differ).  On a miss the job runs the analysis and stores its
    result.  The job records its own lookup outcome in
    :attr:`JobResult.cache`, so per-job records sum to the cache's
    counters even when concurrent jobs share one cache.
    """
    key = None
    # A missing chain raises below without counting a cache lookup.
    if cache is not None and chain_name in system:
        key = job_result_key(
            system, chain_name, ks, max_combinations, exact_criterion, enumeration
        )
    start = time.perf_counter()
    hit, from_disk = (None, False) if key is None else cache.lookup(key)
    if hit is not None:
        # Copies keep callers from mutating the cached payload; the
        # label is the caller's (the same content can carry different
        # display labels in different batches).
        result = replace(
            hit,
            label=label or hit.label,
            dmm=dict(hit.dmm),
            elapsed=time.perf_counter() - start,
            packing={},
        )
    else:
        result = analyze_system_job(
            system,
            chain_name,
            ks=ks,
            max_combinations=max_combinations,
            exact_criterion=exact_criterion,
            enumeration=enumeration,
            label=label,
        )
        if key is None:
            return result
        cache.store(
            key,
            replace(result, dmm=dict(result.dmm), elapsed=0.0, cache={}, packing={}),
        )
    result.cache = {
        CATEGORY: {
            "hits": int(hit is not None),
            "misses": int(hit is None),
            "disk_hits": int(from_disk),
        }
    }
    return result


def execute_job(
    job: AnalysisJob,
    cache: Optional[AnalysisCache] = None,
    *,
    system: Optional[System] = None,
) -> JobResult:
    """Materialize and run ``job``, optionally under ``cache``.
    ``system`` is ``job.system()`` when the caller has parsed it
    already."""
    return run_chain_job(
        job.system() if system is None else system,
        job.chain_name,
        ks=job.ks,
        max_combinations=job.max_combinations,
        exact_criterion=job.exact_criterion,
        enumeration=job.enumeration,
        label=job.label,
        cache=cache,
    )
