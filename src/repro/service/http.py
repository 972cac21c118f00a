"""The HTTP/JSON front of the analysis service — stdlib only.

``repro serve`` stands a :class:`ThreadingHTTPServer` in front of one
:class:`~repro.service.core.AnalysisService`, exposing:

* ``POST /analyze`` — one :class:`~repro.service.api.AnalysisRequest`
  body; the response is the deterministic
  :class:`~repro.service.api.AnalysisResponse` payload.
* ``POST /shard/run`` — ``{"jobs": [...]}`` of
  :class:`~repro.runner.jobs.AnalysisJob` wire dicts; the response is
  ``{"jobs": [...]}`` of full (non-deterministic-form) job results.
  This is the chunk endpoint the sharded batch coordinator drives
  (``repro batch --worker URL``); ``repro shard-worker`` is an alias
  of ``repro serve``.
* ``GET /cache/stats`` — the result cache's counters (``{"jobs": ...}``)
  plus service request accounting (requests, computes, systems).
* ``GET /healthz`` — liveness and version.

Malformed requests are answered with structured ``400`` bodies
(``{"error": ...}``); unknown paths with ``404``; anything else that
escapes the service is a ``500`` naming the exception.

:class:`ServiceClient` is the matching ``urllib`` client used by the
CLI's ``--server`` mode and :mod:`examples.serve_client`.
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..runner.jobs import AnalysisJob, JobResult
from ..runner.retry import NO_RETRY, RetryPolicy
from .api import AnalysisOptions, AnalysisRequest, RequestError
from .core import AnalysisService


class AnalysisRequestHandler(BaseHTTPRequestHandler):
    """Request/response plumbing only: parse, dispatch to the service,
    serialize.  All analysis state lives on ``server.service``."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; without TCP_NODELAY the
    # body waits for the client's delayed ACK on a kept-alive
    # connection (~40 ms per request).
    disable_nagle_algorithm = True

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            from .. import __version__

            self._send_json(200, {"status": "ok", "version": __version__})
        elif self.path == "/cache/stats":
            self._send_json(200, self.service.cache_stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            if self.path == "/analyze":
                self._handle_analyze()
            elif self.path == "/shard/run":
                self._handle_shard_run()
            else:
                self._send_json(404, {"error": f"unknown path {self.path!r}"})
        except RequestError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - service bug surface
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    def _handle_analyze(self) -> None:
        request = AnalysisRequest.from_dict(self._read_json())
        self._send_text(200, self.service.analyze(request).to_json())

    def _handle_shard_run(self) -> None:
        payload = self._read_json()
        if isinstance(payload, dict):
            payload = payload.get("jobs")
        if not isinstance(payload, list) or not payload:
            raise RequestError(
                "shard body must be {'jobs': [...]} with at least one job"
            )
        try:
            jobs = [AnalysisJob.from_dict(item) for item in payload]
        except (TypeError, ValueError) as exc:
            raise RequestError(f"bad shard job: {exc}") from exc
        results = self.service.run_jobs(jobs)
        # Non-deterministic form on purpose: the coordinator merges the
        # cache counter deltas of remote shards into the batch stats.
        self._send_json(
            200,
            {"jobs": [result.to_dict(deterministic=False) for result in results]},
        )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> bytes:
        """The validated request body: ``Content-Length`` must be a
        non-negative integer and the connection must actually deliver
        that many bytes — a short read (client died mid-upload) is a
        structured 400, not a confusing truncated-JSON parse error."""
        length = self.headers.get("Content-Length")
        if length is None:
            raise RequestError("missing Content-Length header")
        try:
            expected = int(length)
        except ValueError as exc:
            raise RequestError(f"bad Content-Length: {length!r}") from exc
        if expected < 0:
            raise RequestError(f"bad Content-Length: {length!r} (negative)")
        raw = self.rfile.read(expected)
        if len(raw) < expected:
            raise RequestError(
                f"short request body: Content-Length declared {expected} "
                f"bytes but only {len(raw)} arrived"
            )
        return raw

    def _read_json(self) -> Any:
        try:
            return json.loads(self._read_body().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_text(status, json.dumps(payload, indent=2, sort_keys=True))

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "quiet", False):
            return
        super().log_message(format, *args)


class AnalysisServer(ThreadingHTTPServer):
    """One service behind a threaded stdlib HTTP server.

    Handler threads give request *concurrency*; the service runs the
    computes on its bounded pool (``AnalysisService(workers=N)``), so
    up to ``workers`` analyses genuinely overlap.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: AnalysisService,
        *,
        quiet: bool = False,
    ):
        super().__init__(address, AnalysisRequestHandler)
        self.service = service
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def start_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    quiet: bool = True,
) -> AnalysisServer:
    """Start a daemon-threaded server (``port=0`` picks a free port)
    and return it — the embedding/test entrypoint.  Call
    ``server.shutdown()`` to stop it."""
    server = AnalysisServer((host, port), service, quiet=quiet)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-serve", daemon=True
    )
    thread.start()
    return server


def serve_forever(
    host: str,
    port: int,
    options: Optional[AnalysisOptions] = None,
    *,
    workers: int = 1,
    service: Optional[AnalysisService] = None,
) -> int:
    """The blocking ``repro serve`` entrypoint: serve until interrupted.

    ``workers`` bounds the concurrently executing computes (ignored
    when an explicit ``service`` is passed — it already owns a pool).
    """
    service = (
        service
        if service is not None
        else AnalysisService(options, workers=workers)
    )
    server = AnalysisServer((host, port), service)
    cache_note = (
        f"persistent cache at {service.options.cache_dir}"
        if service.options.cache_dir
        else "in-memory cache"
    )
    print(
        f"repro serve: listening on {server.url} "
        f"({service.workers} compute worker(s), {cache_note}); "
        f"Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro serve: shutting down", file=sys.stderr)
    finally:
        server.server_close()
        service.close()
    return 0


class ServiceError(RuntimeError):
    """A failed service call: HTTP status (0 for transport errors) plus
    the server's structured error message."""

    def __init__(self, status: int, message: str):
        self.status = status
        super().__init__(message)


class ServiceClient:
    """Thin ``urllib`` client for a running ``repro serve`` daemon.

    Used by ``repro analyze --server`` and by the sharded
    coordinator's remote workers (``repro batch --worker``).

    ``timeout`` bounds every socket operation (a hung daemon can no
    longer block a client forever), and ``retry`` — a
    :class:`~repro.runner.retry.RetryPolicy` — transparently re-issues
    calls that failed in *retryable* ways: transport errors (connection
    refused while a daemon restarts, resets, timeouts; ``status == 0``)
    and server-side ``5xx``.  Analysis requests are pure and idempotent,
    so re-sending one is always safe.  ``4xx`` rejections are the
    caller's bug and surface immediately.  The default is
    :data:`~repro.runner.retry.NO_RETRY` — single attempt, what a
    remote shard worker uses, since the coordinator retries its chunks;
    ``repro analyze --server`` passes the ``--retries`` policy.
    """

    def __init__(
        self,
        base_url: str,
        *,
        timeout: float = 600.0,
        retry: Optional[RetryPolicy] = None,
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else NO_RETRY

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return json.loads(self._request("GET", "/healthz")[1])

    def cache_stats(self) -> Dict[str, Any]:
        return json.loads(self._request("GET", "/cache/stats")[1])

    def analyze(
        self, request: Union[AnalysisRequest, Dict[str, Any]]
    ) -> Dict[str, Any]:
        """POST one request; the parsed response payload."""
        if isinstance(request, AnalysisRequest):
            request = request.to_dict()
        return json.loads(self._request("POST", "/analyze", request)[1])

    def run_jobs(self, jobs: Sequence[AnalysisJob]) -> List[JobResult]:
        """POST a chunk of pre-built jobs to ``/shard/run`` and rebuild
        the full results — the remote-shard-worker transport."""
        payload = {"jobs": [job.to_dict() for job in jobs]}
        body = json.loads(self._request("POST", "/shard/run", payload)[1])
        return [JobResult.from_dict(item) for item in body["jobs"]]

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _retryable(exc: ServiceError) -> bool:
        """Transport failures and server-side errors are retryable;
        structured 4xx rejections are not (re-sending the same bad
        request cannot succeed)."""
        return exc.status == 0 or exc.status >= 500

    def _request(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> Tuple[int, str]:
        """One logical call under the retry policy: up to
        ``retry.attempts`` transmissions of :meth:`_request_once` with
        exponential backoff between them, giving up immediately on
        non-retryable failures."""
        failures = 0
        while True:
            try:
                return self._request_once(method, path, payload)
            except ServiceError as exc:
                if not self._retryable(exc):
                    raise
                failures += 1
                if not self.retry.retries_left(failures):
                    raise
                time.sleep(self.retry.delay(failures))

    def _request_once(
        self, method: str, path: str, payload: Optional[Any] = None
    ) -> Tuple[int, str]:
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, self._error_message(exc)) from exc
        except urllib.error.URLError as exc:
            raise ServiceError(
                0, f"cannot reach analysis server at {self.base_url}: {exc.reason}"
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            # Raw transport failures urllib does not wrap: a connection
            # reset mid-read (ConnectionError), a socket timeout during
            # the response body, a torn HTTP frame.
            raise ServiceError(
                0, f"cannot reach analysis server at {self.base_url}: {exc}"
            ) from exc

    @staticmethod
    def _error_message(exc: urllib.error.HTTPError) -> str:
        try:
            payload = json.loads(exc.read().decode("utf-8"))
            message = payload.get("error")
        except (ValueError, AttributeError):
            message = None
        return message or f"HTTP {exc.code}: {exc.reason}"
