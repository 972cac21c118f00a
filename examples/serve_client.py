"""Drive the `repro serve` analysis daemon end-to-end with urllib.

The daemon keeps systems and results hot across requests: the first
``POST /analyze`` of a system pays the cold analysis, every identical
request after that is served whole from the warm ``jobs`` cache —
``GET /cache/stats`` shows the ``jobs`` hits climbing while the
``jobs`` misses stand still (nothing analyzed again).

By default the script starts a private in-process daemon on a free
port, so it is runnable standalone::

    python examples/serve_client.py

Point it at an already-running daemon instead (start one with
``repro serve --port 8787``) to watch a *shared* warm cache::

    python examples/serve_client.py http://127.0.0.1:8787

Only the client side below talks to the daemon, and it uses nothing
but ``urllib`` + ``json`` — it is the wire protocol a non-Python
client would speak.
"""

import json
import sys
import time
import urllib.request

from repro.api import AnalysisService, start_server
from repro.model.serialization import system_to_dict
from repro.synth import figure4_system


def post(url: str, path: str, payload: dict) -> dict:
    """One JSON round trip (what any non-Python client would do)."""
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=600) as response:
        return json.loads(response.read().decode("utf-8"))


def get(url: str, path: str) -> dict:
    with urllib.request.urlopen(url + path, timeout=60) as response:
        return json.loads(response.read().decode("utf-8"))


def main(base_url: str = None) -> None:
    server = None
    if base_url is None:
        server = start_server(AnalysisService())  # private daemon, free port
        base_url = server.url
    print(f"daemon: {base_url} -> {get(base_url, '/healthz')}")

    system = system_to_dict(figure4_system(calibrated=True))

    # 1. Cold analyze: the system travels inline; the daemon registers
    #    it under its content digest and analyzes chain sigma_c.
    request = {"system": system, "chain": "sigma_c", "ks": [3, 76, 250]}
    started = time.perf_counter()
    cold = post(base_url, "/analyze", request)
    cold_s = time.perf_counter() - started
    job = cold["jobs"][0]
    print(f"cold analyze ({cold_s:.3f}s): {job['status']}, dmm={job['dmm']}")

    # 2. Warm analyze: byte-identical answer, zero recomputation.  The
    #    system can now be referenced by digest alone — no payload.
    by_digest = dict(request, system_digest=cold["system_digest"])
    by_digest.pop("system")
    started = time.perf_counter()
    warm = post(base_url, "/analyze", by_digest)
    warm_s = time.perf_counter() - started
    assert warm["jobs"] == cold["jobs"], "warm response must be identical"
    print(f"warm analyze ({warm_s:.3f}s): identical jobs, by digest only")

    # 3. A batch: compatible requests (same system/chain, different k
    #    windows) are merged into one multi-q analysis server-side.
    batch = post(
        base_url,
        "/batch",
        {
            "requests": [
                {"system_digest": cold["system_digest"], "chain": "sigma_c",
                 "ks": [1]},
                {"system_digest": cold["system_digest"], "chain": "sigma_c",
                 "ks": [10, 100]},
                {"system_digest": cold["system_digest"], "chain": "sigma_d",
                 "ks": [10]},
            ]
        },
    )
    print(f"batch: {batch['job_count']} jobs, statuses {batch['status_counts']}")

    # 4. The warm-state ledger.
    stats = get(base_url, "/cache/stats")
    service = stats["service"]
    jobs_cache = stats["cache"].get("jobs", {})
    print(
        f"stats: {service['requests']} requests, {service['computes']} computes, "
        f"{service['coalesced']} coalesced, {service['merged']} merged, "
        f"{service['systems']} warm system(s); "
        f"jobs cache {jobs_cache.get('hits', 0)}h/{jobs_cache.get('misses', 0)}m"
    )

    if server is not None:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main(*sys.argv[1:2])
