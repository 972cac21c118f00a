"""E4 — Figure 1 and the Sec. IV/V in-text structural examples.

Paper facts on the Fig. 1 system (sigma_a w.r.t. sigma_b):

* segments: (tau_a^1, tau_a^2, tau_a^3) and (tau_a^5);
* active segments: (tau_a^1, tau_a^2), (tau_a^3), (tau_a^5);
* exactly four combinations of those active segments.
"""

from __future__ import annotations

from conftest import run_once

from repro.analysis import (active_segments, iter_combinations,
                            overload_active_segments, segments)
from repro.synth import figure1_system


def compute_structures():
    system = figure1_system()
    sigma_a, sigma_b = system["sigma_a"], system["sigma_b"]
    return {
        "segments": [s.task_names for s in segments(sigma_a, sigma_b)],
        "active": [s.task_names
                   for s in active_segments(sigma_a, sigma_b)],
        "combinations": list(iter_combinations(
            overload_active_segments(system, sigma_b))),
    }


def test_figure1_structures(benchmark):
    result = run_once(benchmark, compute_structures)
    print()
    print(f"segments (paper: 2): {result['segments']}")
    print(f"active segments (paper: 3): {result['active']}")
    print(f"combinations (paper: 4): {len(result['combinations'])}")
    assert result["segments"] == [
        ("tau_a^1", "tau_a^2", "tau_a^3"), ("tau_a^5",)]
    assert result["active"] == [
        ("tau_a^1", "tau_a^2"), ("tau_a^3",), ("tau_a^5",)]
    assert len(result["combinations"]) == 4


def test_segment_computation_speed(benchmark):
    system = figure1_system()
    sigma_a, sigma_b = system["sigma_a"], system["sigma_b"]
    result = benchmark(active_segments, sigma_a, sigma_b)
    assert len(result) == 3
