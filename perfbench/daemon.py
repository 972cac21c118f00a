"""Launcher for the traced analysis daemon.

Pins itself to one CPU, installs the benchmark's span wrappers, then
runs ``repro.service.http.serve_forever`` exactly as ``repro serve``
does (in-memory cache, one compute worker).  When the daemon stops on
SIGINT it writes its spans to ``--trace-out``.

    python3 perfbench/daemon.py --trace-out OUT.json.gz [--cpu N]
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--cpu", type=int, default=None)
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    from repro.service.http import serve_forever

    tracer = Tracer()
    layers.install(tracer)
    tracer.phase = "daemon"
    tracer.enabled = True
    try:
        return serve_forever("127.0.0.1", 0, workers=1)
    finally:
        tracer.enabled = False
        tracer.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
