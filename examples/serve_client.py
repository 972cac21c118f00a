"""Drive the `repro serve` analysis daemon end-to-end with urllib.

The daemon keeps its results hot across requests: the first
``POST /analyze`` of a system pays the cold analysis, every identical
request after that is served whole from the warm ``jobs`` cache —
``GET /cache/stats`` shows the ``jobs`` hits climbing while the
``jobs`` misses stand still (nothing analyzed again).  Every request
carries its system inline; the cache is keyed by the system's content,
so re-sending it is all a warm request needs.

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

    # 1. Cold analyze: the system travels inline, and the daemon
    #    analyzes chain sigma_c.
    request = {"system": system, "chain": "sigma_c", "ks": [3, 76, 250]}
    started = time.perf_counter()
    cold = post(base_url, "/analyze", request)
    cold_s = time.perf_counter() - started
    job = cold["jobs"][0]
    print(f"cold analyze ({cold_s:.3f}s): {job['status']}, dmm={job['dmm']}")

    # 2. Warm analyze: the same request again.  Byte-identical answer,
    #    served from the jobs cache: the jobs misses stand still.
    misses = get(base_url, "/cache/stats")["cache"]["jobs"]["misses"]
    started = time.perf_counter()
    warm = post(base_url, "/analyze", request)
    warm_s = time.perf_counter() - started
    assert warm == cold, "warm response must be identical"
    new_misses = get(base_url, "/cache/stats")["cache"]["jobs"]["misses"] - misses
    assert new_misses == 0, "a warm repeat must analyze nothing"
    print(f"warm analyze ({warm_s:.3f}s): identical jobs, {new_misses} new jobs misses")

    # 3. Every chain: without "chain" the daemon analyzes each typical
    #    chain with a deadline; the sigma_c result of step 1 is served
    #    from the cache.
    both = post(base_url, "/analyze", {"system": system, "ks": [3, 76, 250]})
    chains = [job["chain"] for job in both["jobs"]]
    print(f"both chains: {chains}, statuses {both['status_counts']}")

    # 4. The ledger.
    stats = get(base_url, "/cache/stats")
    service = stats["service"]
    jobs_cache = stats["cache"]["jobs"]
    print(
        f"stats: {service['requests']} requests, {service['computes']} computes; "
        f"jobs cache {jobs_cache['hits']}h/{jobs_cache['misses']}m"
    )

    if server is not None:
        server.shutdown()
        server.server_close()


if __name__ == "__main__":
    main(*sys.argv[1:2])
