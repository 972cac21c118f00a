"""Analysis-as-a-service: the long-lived front over the TWCA analyses.

Two layers:

* :class:`AnalysisService` — the in-process facade.  Typed
  :class:`AnalysisRequest` / :class:`AnalysisResponse` dataclasses wrap
  per-chain TWCA jobs and the batch runner behind one entrypoint that
  owns warm state: loaded systems keyed by content digest and the
  (optionally persistent) result cache.
* ``repro serve`` — a stdlib HTTP/JSON server (:func:`serve_forever`,
  :func:`start_server`) exposing ``POST /analyze``,
  ``POST /shard/run``, ``GET /cache/stats`` and ``GET /healthz``.
  :class:`ServiceClient` is the matching ``urllib`` client, with
  configurable timeouts and bounded retry-with-backoff for transport
  failures.  ``repro shard-worker`` serves the same endpoints — the
  ``/shard/run`` chunk route is how the sharded batch coordinator
  (:mod:`repro.runner.shard`) drives remote hosts.

``repro analyze --server URL`` sends one request to ``/analyze``;
``repro batch --server URL`` sends its jobs to ``/shard/run`` through
the coordinator, as ``repro shard --worker URL`` does — so daemon
exports are byte-identical to the in-process ones.
"""

from .api import (
    AnalysisOptions,
    AnalysisRequest,
    AnalysisResponse,
    RequestError,
    UnknownSystemError,
)
from .core import AnalysisService
from .http import (
    AnalysisRequestHandler,
    AnalysisServer,
    ServiceClient,
    ServiceError,
    serve_forever,
    start_server,
)

__all__ = [
    "AnalysisOptions",
    "AnalysisRequest",
    "AnalysisResponse",
    "AnalysisService",
    "AnalysisRequestHandler",
    "AnalysisServer",
    "RequestError",
    "ServiceClient",
    "ServiceError",
    "UnknownSystemError",
    "serve_forever",
    "start_server",
]
