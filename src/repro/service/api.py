"""Typed request/response surface of the analysis service.

One analysis — in-process through :class:`~repro.service.core.AnalysisService`
or over HTTP through ``repro serve`` — is described by an
:class:`AnalysisRequest`: the system (inline, or referenced by content
digest once the daemon has it warm), a chain selector, the DMM window
sizes, the combination pipeline and the cache policy.
Requests are content-addressed: :attr:`AnalysisRequest.digest` is the
identity the daemon coalesces identical in-flight work on, and
:attr:`AnalysisRequest.compat_key` (the digest *minus* the window sizes)
is the identity compatible requests are merged on — two requests that
differ only in ``ks`` share one multi-q analysis.

:class:`AnalysisResponse` carries the resulting per-chain
:class:`~repro.runner.jobs.JobResult` payloads.  Its deterministic
export mirrors the batch runner's: the ``jobs`` entries of a response
are byte-identical to the corresponding ``repro batch --json`` export.

Malformed requests raise :class:`RequestError` (mapped to structured
HTTP 400 responses by the server); :class:`UnknownSystemError` is the
specific case of a ``system_digest`` the service has never seen.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..model import System
from ..model.serialization import canonical_system_json, system_from_dict
from ..runner.jobs import DEFAULT_KS, JobResult, checked_ks


class RequestError(ValueError):
    """A malformed analysis request (HTTP 400)."""


class UnknownSystemError(RequestError):
    """The request referenced a ``system_digest`` the service has not
    loaded; resend the request with the system inline to register it."""


#: Valid ``enumeration`` values (mirrors ``analyze_twca``).
ENUMERATIONS: Tuple[str, ...] = ("pruned", "exhaustive")


@dataclass(frozen=True)
class AnalysisOptions:
    """The analysis knobs shared by every analyzing entrypoint.

    One dataclass carries the shared argparse options
    (``--cache-dir``/``--no-cache``/``--exhaustive``) of every
    subcommand that reads them — and configures an
    :class:`~repro.service.core.AnalysisService` the same way.
    """

    cache_dir: Optional[str] = None
    use_cache: bool = True
    exhaustive: bool = False

    @property
    def enumeration(self) -> str:
        """The combination-pipeline mode implied by ``exhaustive``."""
        return "exhaustive" if self.exhaustive else "pruned"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of service work: analyze ``chain`` (or every typical
    deadline chain) of a system for the DMM windows ``ks``.

    Exactly one of ``system_json`` (the canonical serialization, for
    first contact) and ``system_digest`` (the content digest of a
    system the service already holds warm) identifies the system.
    ``use_cache=False`` bypasses the service's result cache for this
    request only.
    """

    system_json: Optional[str] = None
    system_digest: Optional[str] = None
    chain: Optional[str] = None
    ks: Tuple[int, ...] = DEFAULT_KS
    enumeration: str = "pruned"
    use_cache: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        _require(
            (self.system_json is None) != (self.system_digest is None),
            "exactly one of 'system' and 'system_digest' is required",
        )
        _require(
            self.chain is None or (isinstance(self.chain, str) and self.chain),
            "'chain' must be a non-empty string when given",
        )
        try:
            object.__setattr__(self, "ks", checked_ks(self.ks))
        except (TypeError, ValueError) as exc:
            raise RequestError(str(exc)) from None
        _require(
            self.enumeration in ENUMERATIONS,
            f"unknown enumeration {self.enumeration!r}; "
            f"choose from {list(ENUMERATIONS)}",
        )
        _require(isinstance(self.use_cache, bool), "'use_cache' must be a boolean")
        _require(isinstance(self.label, str), "'label' must be a string")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, system: System, **kwargs: Any) -> "AnalysisRequest":
        """Build a request carrying ``system`` inline (canonically
        serialized, so the request digest is content-addressed)."""
        return cls(system_json=canonical_system_json(system), **kwargs)

    @classmethod
    def from_dict(cls, data: Any) -> "AnalysisRequest":
        """Parse and validate a wire-form request dict.

        ``system`` may be the plain-dict serialization or an
        already-canonical JSON string; it is always re-canonicalized
        through the model layer, so equivalent payloads share a digest.
        Unknown fields are rejected rather than silently dropped.
        """
        _require(isinstance(data, Mapping), "request body must be a JSON object")
        known = {
            "system",
            "system_digest",
            "chain",
            "ks",
            "enumeration",
            "use_cache",
            "label",
        }
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown request fields: {unknown}")

        system_json: Optional[str] = None
        system: Optional[System] = None
        raw_system = data.get("system")
        if raw_system is not None:
            if isinstance(raw_system, str):
                try:
                    raw_system = json.loads(raw_system)
                except json.JSONDecodeError as exc:
                    raise RequestError(f"'system' is not valid JSON: {exc}") from exc
            _require(
                isinstance(raw_system, Mapping),
                "'system' must be a system object (or its JSON string)",
            )
            try:
                system = system_from_dict(dict(raw_system))
            except (KeyError, TypeError, ValueError) as exc:
                raise RequestError(f"invalid system: {exc}") from exc
            system_json = canonical_system_json(system)

        ks = data.get("ks", DEFAULT_KS)
        _require(
            isinstance(ks, (list, tuple)),
            f"'ks' must be a list of window sizes, got {type(ks).__name__}",
        )
        request = cls(
            system_json=system_json,
            system_digest=data.get("system_digest"),
            chain=data.get("chain"),
            ks=tuple(ks),
            enumeration=data.get("enumeration", "pruned"),
            use_cache=data.get("use_cache", True),
            label=data.get("label", ""),
        )
        # Kept for the service to register; not part of the request.
        object.__setattr__(request, "_system", system)
        return request

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_system", None)
        return state

    def to_dict(self) -> Dict[str, Any]:
        """Wire form (the inverse of :meth:`from_dict`).  The system
        travels as its parsed dict; defaults are included so a request
        round-trips field-for-field."""
        data: Dict[str, Any] = {
            "chain": self.chain,
            "ks": list(self.ks),
            "enumeration": self.enumeration,
            "use_cache": self.use_cache,
            "label": self.label,
        }
        if self.system_json is not None:
            data["system"] = json.loads(self.system_json)
        else:
            data["system_digest"] = self.system_digest
        return data

    # ------------------------------------------------------------------
    # Content identity
    # ------------------------------------------------------------------
    @property
    def system_identity(self) -> str:
        """The content digest of the requested system — hashed from the
        inline serialization, or the reference digest verbatim (the
        same value :meth:`repro.model.System.content_digest` yields)."""
        if self.system_digest is not None:
            return self.system_digest
        assert self.system_json is not None
        return hashlib.sha256(self.system_json.encode("utf-8")).hexdigest()

    def _identity_payload(self, *, with_ks: bool) -> str:
        fields = [
            self.system_identity,
            self.chain,
            self.enumeration,
            self.use_cache,
            self.label,
        ]
        if with_ks:
            fields.append(list(self.ks))
        return json.dumps(fields, separators=(",", ":"))

    @property
    def digest(self) -> str:
        """Content digest of the whole request: identical requests —
        inline or by reference — share it, and the daemon coalesces
        concurrent in-flight work on it."""
        payload = self._identity_payload(with_ks=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @property
    def compat_key(self) -> str:
        """The request identity *minus* the window sizes: requests that
        agree on it differ only in ``ks`` and can be served by one
        merged multi-q analysis."""
        payload = self._identity_payload(with_ks=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def derive_jobs(
    jobs: List[JobResult], ks: Tuple[int, ...], computed_ks: Tuple[int, ...]
) -> List[JobResult]:
    """Project merged multi-q results onto one request's window sizes.

    Every :class:`JobResult` field except ``dmm`` is independent of the
    evaluated windows, and ``dmm(k)`` is a pure per-``k`` function of
    the (system, chain, enumeration) content — so sub-selecting the merged
    curve is byte-identical to having analyzed the narrower request
    directly (observability fields are zeroed: they belong to the
    compute, not to the derived view).
    """
    if tuple(ks) == tuple(computed_ks):
        return jobs
    return [
        replace(
            job,
            dmm={k: job.dmm[k] for k in ks} if job.ok else {},
            elapsed=0.0,
            cache={},
            packing={},
        )
        for job in jobs
    ]


@dataclass
class AnalysisResponse:
    """The service's answer to one :class:`AnalysisRequest`.

    ``jobs`` holds one :class:`~repro.runner.jobs.JobResult` per
    analyzed chain, in deterministic chain order.  ``coalesced`` is
    observability (this response was served by attaching to an
    identical in-flight compute) and is deliberately excluded from the
    payload, so warm, cold and coalesced responses to one request are
    byte-identical.
    """

    request_digest: str
    system_digest: str
    jobs: List[JobResult] = field(default_factory=list)
    coalesced: bool = False

    @property
    def job_count(self) -> int:
        return len(self.jobs)

    @property
    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic payload.  The ``jobs`` entries are exactly the
        deterministic :meth:`JobResult.to_dict` exports of the batch
        runner, so service and ``repro batch --json`` outputs agree
        byte-for-byte job-by-job."""
        return {
            "request_digest": self.request_digest,
            "system_digest": self.system_digest,
            "job_count": self.job_count,
            "status_counts": self.status_counts,
            "jobs": [job.to_dict(deterministic=True) for job in self.jobs],
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
