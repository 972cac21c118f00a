"""Typed request/response surface of the analysis service.

One analysis — in-process through :class:`~repro.service.core.AnalysisService`
or over HTTP through ``repro serve`` — is described by an
:class:`AnalysisRequest`: the system (always inline, as its canonical
serialization), a chain selector, the DMM window sizes and the cache
policy.  There is no pipeline switch: every request runs the one
frontier search, and a body naming a mode is an unknown field.  The
service keeps no system between requests; its job cache, keyed by the
system's content digest, is what makes a repeated request cheap.

:class:`AnalysisResponse` carries the resulting per-chain
:class:`~repro.runner.jobs.JobResult` payloads.  Its deterministic
export mirrors the batch runner's: the ``jobs`` entries of a response
are byte-identical to the corresponding ``repro batch --json`` export.

Malformed requests raise :class:`RequestError` (mapped to structured
HTTP 400 responses by the server).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..model import System
from ..model.serialization import canonical_system_json, system_from_dict
from ..runner.jobs import DEFAULT_KS, JobResult, checked_ks


class RequestError(ValueError):
    """A malformed analysis request (HTTP 400)."""


@dataclass(frozen=True)
class AnalysisOptions:
    """The analysis knobs shared by every analyzing entrypoint.

    One dataclass carries the shared argparse options
    (``--cache-dir``/``--no-cache``) of every subcommand that reads them
    — and configures an :class:`~repro.service.core.AnalysisService` the
    same way.
    """

    cache_dir: Optional[str] = None
    use_cache: bool = True


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RequestError(message)


@dataclass(frozen=True)
class AnalysisRequest:
    """One unit of service work: analyze ``chain`` (or every typical
    deadline chain) of a system for the DMM windows ``ks``.

    ``system_json`` is the system's canonical serialization; every
    request carries it.  ``use_cache=False`` bypasses the service's
    result cache for this request only.
    """

    system_json: str
    chain: Optional[str] = None
    ks: Tuple[int, ...] = DEFAULT_KS
    use_cache: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        _require(isinstance(self.system_json, str), "'system' is required")
        _require(
            self.chain is None or (isinstance(self.chain, str) and self.chain),
            "'chain' must be a non-empty string when given",
        )
        try:
            object.__setattr__(self, "ks", checked_ks(self.ks))
        except (TypeError, ValueError) as exc:
            raise RequestError(str(exc)) from None
        _require(isinstance(self.use_cache, bool), "'use_cache' must be a boolean")
        _require(isinstance(self.label, str), "'label' must be a string")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_system(cls, system: System, **kwargs: Any) -> "AnalysisRequest":
        """Build a request carrying ``system`` (canonically
        serialized)."""
        return cls(system_json=canonical_system_json(system), **kwargs)

    @classmethod
    def from_dict(cls, data: Any) -> "AnalysisRequest":
        """Parse and validate a wire-form request dict.

        ``system`` may be the plain-dict serialization or an
        already-canonical JSON string; it is always re-canonicalized
        through the model layer, so equivalent payloads share one
        ``system_json``.  Unknown fields are rejected rather than
        silently dropped.
        """
        _require(isinstance(data, Mapping), "request body must be a JSON object")
        known = {"system", "chain", "ks", "use_cache", "label"}
        unknown = sorted(set(data) - known)
        _require(not unknown, f"unknown request fields: {unknown}")

        raw_system = data.get("system")
        _require(raw_system is not None, "'system' is required")
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

        ks = data.get("ks", DEFAULT_KS)
        _require(
            isinstance(ks, (list, tuple)),
            f"'ks' must be a list of window sizes, got {type(ks).__name__}",
        )
        request = cls(
            system_json=canonical_system_json(system),
            chain=data.get("chain"),
            ks=tuple(ks),
            use_cache=data.get("use_cache", True),
            label=data.get("label", ""),
        )
        # Kept for the service to analyze (no second parse); not part of
        # the request.
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
        return {
            "chain": self.chain,
            "ks": list(self.ks),
            "use_cache": self.use_cache,
            "label": self.label,
            "system": json.loads(self.system_json),
        }


@dataclass
class AnalysisResponse:
    """The service's answer to one :class:`AnalysisRequest`.

    ``jobs`` holds one :class:`~repro.runner.jobs.JobResult` per
    analyzed chain, in deterministic chain order; the payload carries
    only their deterministic exports, so warm and cold responses to
    one request are byte-identical.
    """

    system_digest: str
    jobs: List[JobResult] = field(default_factory=list)

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
            "system_digest": self.system_digest,
            "job_count": self.job_count,
            "status_counts": self.status_counts,
            "jobs": [job.to_dict(deterministic=True) for job in self.jobs],
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
