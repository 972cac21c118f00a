"""V1 — Validation: analytical bounds vs simulated behaviour.

For the case study and a random population, runs the critical-instant
simulation and reports bound tightness:

* observed worst latency vs WCL (Theorem 2) — equal on the case study;
* observed misses in k-windows vs dmm(k) (Theorem 3).

Soundness (observed <= bound) is asserted; tightness is reported.
"""

from __future__ import annotations

import random

import pytest
from conftest import run_once
from oracles.spp_loop import whole_horizon

from repro import analyze_latency, analyze_twca
from repro.report import format_table
from repro.sim import (Simulator, simulate_worst_case, trace_json,
                       worst_case_activations)
from repro.synth import GeneratorConfig, figure4_system, \
    generate_feasible_system


def simulate_checked(system, horizon):
    """Critical-instant simulation through the numpy event calendar,
    asserted byte-identical (full JSON trace) against the production
    event loop over the whole horizon (``whole_horizon``) — the
    validation bench doubles as a calendar parity check."""
    result = simulate_worst_case(system, horizon)
    reference = whole_horizon(
        Simulator(system), worst_case_activations(system, horizon), horizon)
    assert trace_json(result) == trace_json(reference), \
        "the calendar diverged from the scalar loop"
    return result


def validate_case_study(horizon):
    system = figure4_system()
    sim = simulate_checked(system, horizon)
    rows = []
    for name in ("sigma_c", "sigma_d"):
        wcl = analyze_latency(system, system[name]).wcl
        observed = sim.max_latency(name)
        twca = analyze_twca(system, system[name])
        dmm10 = twca.dmm(10)
        observed10 = sim.empirical_dmm(name, 10)
        rows.append((name, f"{observed:g}", f"{wcl:g}",
                     observed10, dmm10))
    return rows


def test_validation_case_study(benchmark, bench_horizon):
    rows = run_once(benchmark, validate_case_study, bench_horizon)
    print()
    print(format_table(
        ("chain", "sim worst latency", "WCL bound",
         "sim misses in 10", "dmm(10) bound"), rows))
    for name, observed, bound, observed10, dmm10 in rows:
        assert float(observed) <= float(bound)
        assert observed10 <= dmm10
    # Tightness on the case study: the latency bound is achieved.
    assert rows[0][1] == rows[0][2] == "331"
    assert rows[1][1] == rows[1][2] == "175"


def test_validation_random_population(benchmark, bench_horizon):
    def sweep():
        rng = random.Random(23)
        records = []
        for _ in range(10):
            system = generate_feasible_system(rng, GeneratorConfig(
                chains=2, overload_chains=1, utilization=0.55,
                overload_utilization=0.08, deadline_factor=0.9))
            sim = simulate_checked(system, bench_horizon / 4)
            for chain in system.typical_chains:
                wcl = analyze_latency(system, chain).wcl
                observed = sim.max_latency(chain.name)
                assert observed <= wcl + 1e-9
                records.append(observed / wcl if wcl else 1.0)
        return records

    ratios = run_once(benchmark, sweep)
    print(f"\nlatency tightness (observed/bound) over "
          f"{len(ratios)} chains: min={min(ratios):.3f} "
          f"mean={sum(ratios) / len(ratios):.3f} max={max(ratios):.3f}")
    assert max(ratios) <= 1 + 1e-9


@pytest.mark.parametrize("path", ("scalar", "calendar"))
def test_simulation_speed(benchmark, bench_horizon, path):
    """Microbenchmark: simulating the case study's critical instant,
    through the event loop over the whole horizon and through the numpy
    calendar."""
    system = figure4_system()
    horizon = bench_horizon / 4
    simulator = Simulator(system)
    activations = worst_case_activations(system, horizon)
    if path == "calendar":
        result = benchmark(simulator.run, activations, horizon)
    else:
        result = benchmark(whole_horizon, simulator, activations, horizon)
    assert result.latencies("sigma_c")
