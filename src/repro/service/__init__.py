"""Analysis-as-a-service: the long-lived front over the TWCA analyses.

Two layers:

* :class:`AnalysisService` — the in-process facade.  Typed
  :class:`AnalysisRequest` / :class:`AnalysisResponse` dataclasses wrap
  per-chain TWCA jobs behind one entrypoint whose only warm state is
  the (optionally persistent) result cache, keyed by each system's
  content digest.  Every request carries its system inline.
* ``repro serve`` — a stdlib HTTP/JSON server (:func:`serve_forever`,
  :func:`start_server`) exposing ``POST /analyze``,
  ``POST /shard/run``, ``GET /cache/stats`` and ``GET /healthz``.
  :class:`ServiceClient` is the matching ``urllib`` client, with
  configurable timeouts and bounded retry-with-backoff for transport
  failures.  ``repro shard-worker`` is an alias of ``repro serve`` —
  the ``/shard/run`` chunk route is how the sharded batch coordinator
  (:mod:`repro.runner.shard`) drives remote hosts.

``repro analyze --server URL`` sends one request to ``/analyze``;
``repro batch --worker URL`` (or ``--server URL``) sends its jobs to
``/shard/run`` through the coordinator — so daemon exports are
byte-identical to the in-process ones.
"""

from .api import (
    AnalysisOptions,
    AnalysisRequest,
    AnalysisResponse,
    RequestError,
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
    "serve_forever",
    "start_server",
]
