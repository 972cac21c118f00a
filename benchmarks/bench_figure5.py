"""E3 — Figure 5: dmm(10) distribution over random priority assignments.

The paper draws 1000 random priority permutations of the case study and
reports, per chain:

* sigma_c schedulable 633 / 1000 times;
* sigma_d schedulable only 307 / 1000 times;
* "for more than 500 of the remaining [sigma_d] systems it can
  guarantee that no more than 3 out of 10 deadlines can be missed";
* the experiment repeated 30 times gave similar results.

We reproduce the sampling with our own RNG; the checks below assert the
paper's qualitative claims with tolerant bands (the exact counts are
RNG-dependent).  The calibrated overload curves are used because the
"3 out of 10" bucket implies the industrial curves' Omega = 3 at
k = 10 windows (DESIGN.md §4); the printed-parameter variant is also
rendered for comparison.
"""

from __future__ import annotations

import os
import random

from conftest import run_once

from repro import analyze_twca
from repro.report import figure5_panel
from repro.runner import BatchRunner
from repro.synth import (figure4_system, labeled_random_systems,
                         random_systems)

PAPER = {
    "sigma_c_schedulable": 633 / 1000,
    "sigma_d_schedulable": 307 / 1000,
}


def run_figure5(samples: int, calibrated: bool, seed: int = 2017):
    rng = random.Random(seed)
    base = figure4_system(calibrated=calibrated)
    values = {"sigma_c": [], "sigma_d": []}
    for system in random_systems(base, samples, rng):
        for name in values:
            result = analyze_twca(system, system[name])
            values[name].append(
                0 if result.is_schedulable else result.dmm(10))
    return values


def test_figure5_calibrated(benchmark, figure5_samples):
    values = run_once(benchmark, run_figure5, figure5_samples, True)
    print()
    for name in ("sigma_c", "sigma_d"):
        print(figure5_panel(values[name], name))
        print()
    n = figure5_samples
    frac_c = values["sigma_c"].count(0) / n
    frac_d = values["sigma_d"].count(0) / n
    print(f"schedulable fraction sigma_c: paper=0.633 measured={frac_c:.3f}")
    print(f"schedulable fraction sigma_d: paper=0.307 measured={frac_d:.3f}")
    # Qualitative shape: sigma_c schedulable far more often than
    # sigma_d; both fractions in the paper's ballpark.
    assert frac_c > frac_d
    assert 0.45 <= frac_c <= 0.80
    assert 0.15 <= frac_d <= 0.45
    # "> 500 of the remaining sigma_d systems: at most 3 of 10 missed".
    remaining = [v for v in values["sigma_d"] if v > 0]
    at_most_3 = sum(1 for v in remaining if v <= 3)
    print(f"sigma_d remaining with dmm<=3: {at_most_3}/{len(remaining)} "
          f"(paper: >500/693)")
    assert at_most_3 / n > 0.5


def run_figure5_batch(samples: int, calibrated: bool, seed: int = 2017,
                      workers: int = 1, cache_dir=None):
    """The Figure 5 sweep as one batch-runner fan-out.

    ``labeled_random_systems`` draws the same permutation sequence as
    :func:`run_figure5`, so the per-chain value lists must be identical
    to the serial loop for any worker count.  ``cache_dir`` shares the
    job results across the workers and across repeated
    sweeps (the paper repeats this experiment 30 times).
    """
    base = figure4_system(calibrated=calibrated)
    labeled = labeled_random_systems(base, samples, seed)
    runner = BatchRunner(workers=workers, ks=(10,), cache_dir=cache_dir)
    batch = runner.run_systems([s for _, s in labeled],
                               ["sigma_c", "sigma_d"],
                               labels=[label for label, _ in labeled])
    values = {"sigma_c": [], "sigma_d": []}
    for job in batch.jobs:
        values[job.chain_name].append(
            0 if job.status == "schedulable" else job.dmm[10])
    return values, batch


def test_figure5_parallel_batch_matches_serial(benchmark, figure5_samples):
    """The parallel variant of E3: the batch runner reproduces the
    serial sweep exactly while fanning the analyses out over worker
    processes."""
    samples = max(50, figure5_samples // 10)
    workers = min(4, os.cpu_count() or 1)

    def measure():
        serial = run_figure5(samples, True)
        parallel, _ = run_figure5_batch(samples, True, workers=workers)
        return serial, parallel

    serial, parallel = run_once(benchmark, measure)
    print(f"\nbatch sweep over {samples} samples with {workers} "
          f"worker(s): results identical to the serial loop")
    assert parallel == serial


def test_figure5_warm_repetition_from_disk(benchmark, tmp_path,
                                           figure5_samples):
    """The paper's 30 repetitions share most candidate systems only
    *within* a seed; across identical sweeps the persistent cache makes
    the repetition free: the second pass analyzes no job again and
    reproduces the first byte-for-byte."""
    samples = max(30, figure5_samples // 20)
    cache_dir = tmp_path / "cache"

    def measure():
        cold_values, cold = run_figure5_batch(samples, True,
                                              cache_dir=cache_dir)
        warm_values, warm = run_figure5_batch(samples, True,
                                              cache_dir=cache_dir)
        return cold_values, cold, warm_values, warm

    cold_values, cold, warm_values, warm = run_once(benchmark, measure)
    assert warm_values == cold_values
    assert warm.to_json() == cold.to_json()
    misses = sum(s["misses"] for s in warm.cache_stats.values())
    print(f"\nwarm repetition over {samples} samples: {misses} misses, "
          f"{warm.disk_hit_count} disk hits")
    assert misses == 0


def test_figure5_printed(benchmark, figure5_samples):
    samples = max(100, figure5_samples // 5)
    values = run_once(benchmark, run_figure5, samples, False)
    print()
    for name in ("sigma_c", "sigma_d"):
        print(figure5_panel(values[name], name))
        print()
    frac_c = values["sigma_c"].count(0) / samples
    frac_d = values["sigma_d"].count(0) / samples
    # Schedulability verdicts barely depend on the overload curve tails,
    # so the fractions must match the calibrated run's band.
    assert frac_c > frac_d


def test_figure5_repetition_stability(benchmark, figure5_samples):
    """The paper repeated the experiment 30 times with similar results;
    we run 5 modest repetitions and check the schedulable fractions stay
    within a tight band."""
    samples = max(60, figure5_samples // 10)

    def repeat():
        fractions = []
        for repetition in range(5):
            values = run_figure5(samples, True, seed=31 + repetition)
            fractions.append(values["sigma_c"].count(0) / samples)
        return fractions

    fractions = run_once(benchmark, repeat)
    print(f"\nsigma_c schedulable fractions over repetitions: "
          f"{[f'{f:.3f}' for f in fractions]}")
    spread = max(fractions) - min(fractions)
    assert spread < 0.25
