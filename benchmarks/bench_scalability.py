"""A3 — Scalability: analysis runtime vs system size.

The paper's case study has 4 chains / 13 tasks.  This bench sweeps the
generator over larger systems and reports the full-TWCA wall time per
system, verifying the analysis stays laptop-friendly well beyond the
paper's scale.
"""

from __future__ import annotations

import os
import random
import time

from conftest import run_once

from repro import analyze_all
from repro.report import format_table
from repro.runner import BatchRunner
from repro.synth import (GeneratorConfig, figure4_system,
                         generate_feasible_system, labeled_random_systems)

SWEEP = [
    ("paper scale", GeneratorConfig(chains=3, overload_chains=1,
                                    tasks_per_chain=(2, 5))),
    ("2x chains", GeneratorConfig(chains=6, overload_chains=2,
                                  tasks_per_chain=(2, 5))),
    ("long chains", GeneratorConfig(chains=3, overload_chains=1,
                                    tasks_per_chain=(8, 12))),
    ("many chains", GeneratorConfig(chains=10, overload_chains=3,
                                    tasks_per_chain=(2, 4),
                                    utilization=0.5)),
]


def sweep_sizes():
    rng = random.Random(11)
    rows = []
    for label, config in SWEEP:
        system = generate_feasible_system(rng, config)
        tasks = len(system.tasks)
        start = time.perf_counter()
        results = analyze_all(system)
        elapsed = (time.perf_counter() - start) * 1000
        dmm_values = {}
        for name, result in results.items():
            dmm_values[name] = result.dmm(10)
        rows.append((label, len(system), tasks, f"{elapsed:.1f}",
                     len(results)))
    return rows


def test_scalability_sweep(benchmark):
    rows = run_once(benchmark, sweep_sizes)
    print()
    print(format_table(
        ("configuration", "chains", "tasks", "analysis ms",
         "chains analyzed"), rows))
    # The largest configuration must stay interactive (< 10 s).
    assert all(float(row[3]) < 10_000 for row in rows)


def test_analysis_scales_with_chain_count(benchmark):
    """Per-system TWCA time for a mid-size random population."""

    def analyze_population():
        rng = random.Random(12)
        total = 0
        for _ in range(10):
            system = generate_feasible_system(rng, GeneratorConfig(
                chains=5, overload_chains=2, utilization=0.55))
            total += len(analyze_all(system))
        return total

    analyzed = benchmark(analyze_population)
    assert analyzed >= 10


def parallel_sweep(workers: int, samples: int = 200):
    """One Table-2-style sweep through the batch runner."""
    base = figure4_system(calibrated=True)
    labeled = labeled_random_systems(base, samples, seed=2017)
    runner = BatchRunner(workers=workers, ks=(10,))
    batch = runner.run_systems([s for _, s in labeled],
                               ["sigma_c", "sigma_d"],
                               labels=[label for label, _ in labeled])
    return batch


def test_parallel_speedup(benchmark):
    """The headline claim of the batch runner: fanning a sweep out
    over local shard worker processes (``BatchRunner(workers=4)`` runs
    on the shard coordinator) turns its wall-clock into roughly
    wall/workers.  Measured, not claimed — the speedup assertion at 4
    workers needs >= 4 cores to be physical, so it is informational on
    smaller machines, and the gate is tunable via
    ``REPRO_BENCH_SPEEDUP_GATE`` (0 disables it) so shared CI runners
    can measure without gating merges on scheduler noise.
    """

    def measure():
        start = time.perf_counter()
        serial = parallel_sweep(workers=1)
        serial_wall = time.perf_counter() - start
        start = time.perf_counter()
        parallel = parallel_sweep(workers=4)
        parallel_wall = time.perf_counter() - start
        assert serial.to_json() == parallel.to_json()
        return serial_wall, parallel_wall

    serial_wall, parallel_wall = run_once(benchmark, measure)
    speedup = serial_wall / parallel_wall if parallel_wall else 1.0
    cores = os.cpu_count() or 1
    gate = float(os.environ.get("REPRO_BENCH_SPEEDUP_GATE", "1.5"))
    print(f"\nsweep wall-clock: serial {serial_wall:.2f}s, "
          f"4 workers {parallel_wall:.2f}s, speedup {speedup:.2f}x "
          f"on {cores} core(s)")
    if cores >= 4 and gate > 0:
        assert speedup > gate
    else:
        print(f"(speedup gate skipped: {cores} core(s), gate {gate:g})")


def test_cache_reuse_speedup(benchmark):
    """A warm shared AnalysisCache makes re-analysis of an identical
    sweep dramatically cheaper than the cold run."""

    def measure():
        base = figure4_system(calibrated=True)
        labeled = labeled_random_systems(base, 50, seed=4)
        systems = [s for _, s in labeled]
        labels = [label for label, _ in labeled]
        runner = BatchRunner(workers=1, ks=(10,))
        start = time.perf_counter()
        cold = runner.run_systems(systems, ["sigma_c"], labels=labels)
        cold_wall = time.perf_counter() - start
        start = time.perf_counter()
        warm = runner.run_systems(systems, ["sigma_c"], labels=labels)
        warm_wall = time.perf_counter() - start
        assert cold.to_json() == warm.to_json()
        return cold_wall, warm_wall, warm.cache_hit_rate

    cold_wall, warm_wall, hit_rate = run_once(benchmark, measure)
    print(f"\ncold {cold_wall * 1000:.1f}ms, warm {warm_wall * 1000:.1f}ms, "
          f"warm hit rate {hit_rate:.0%}")
    assert hit_rate > 0.9
    # Generous noise margin: the claim is "not slower", the typical
    # observation is several times faster.  Same escape hatch as the
    # speedup gate: timing assertions don't gate merges on shared CI.
    if float(os.environ.get("REPRO_BENCH_SPEEDUP_GATE", "1.5")) > 0:
        assert warm_wall <= cold_wall * 1.2


def test_persistent_cache_cross_run_speedup(benchmark, tmp_path):
    """The disk-backed cache extends the warm-start across *runner
    instances* (hence across processes and CLI invocations): a fresh
    runner pointed at a populated --cache-dir recomputes no fixed
    points at all."""

    def measure():
        base = figure4_system(calibrated=True)
        labeled = labeled_random_systems(base, 50, seed=4)
        systems = [s for _, s in labeled]
        labels = [label for label, _ in labeled]
        cache_dir = tmp_path / "cache"
        start = time.perf_counter()
        cold = BatchRunner(workers=1, ks=(10,),
                           cache_dir=cache_dir).run_systems(
            systems, ["sigma_c"], labels=labels)
        cold_wall = time.perf_counter() - start
        # A brand-new runner: empty in-process front, warm disk.
        start = time.perf_counter()
        warm = BatchRunner(workers=1, ks=(10,),
                           cache_dir=cache_dir).run_systems(
            systems, ["sigma_c"], labels=labels)
        warm_wall = time.perf_counter() - start
        assert cold.to_json() == warm.to_json()
        misses = sum(s["misses"] for s in warm.cache_stats.values())
        return cold_wall, warm_wall, misses, warm.disk_hit_count

    cold_wall, warm_wall, misses, disk_hits = run_once(benchmark, measure)
    print(f"\ncold {cold_wall * 1000:.1f}ms, cross-run warm "
          f"{warm_wall * 1000:.1f}ms, {disk_hits} disk hits")
    assert misses == 0
    assert disk_hits > 0
    if float(os.environ.get("REPRO_BENCH_SPEEDUP_GATE", "1.5")) > 0:
        assert warm_wall <= cold_wall * 1.2
