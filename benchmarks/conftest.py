"""Shared benchmark configuration.

Heavy experiment regenerations run once per benchmark (pedantic mode);
sample counts can be shrunk for quick runs via environment variables:

* ``REPRO_FIGURE5_SAMPLES``  (default 1000, the paper's count)
* ``REPRO_BENCH_HORIZON``    (default 20000, simulation horizon)

The reference solvers of ``tests/oracles`` double as the ablation
baselines, so that directory is importable here as ``oracles``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))


def env_int(name: str, default: int) -> int:
    return int(os.environ.get(name, default))


@pytest.fixture(scope="session")
def figure5_samples() -> int:
    return env_int("REPRO_FIGURE5_SAMPLES", 1000)


@pytest.fixture(scope="session")
def bench_horizon() -> float:
    return float(env_int("REPRO_BENCH_HORIZON", 20_000))


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer (the experiment
    regenerations are deterministic; repeated timing adds nothing)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
