"""Soundness validation: simulated behaviour never exceeds the analytical
bounds.  This is the library's strongest defence of the Theorem 1/2/3
implementation."""

import random

import pytest
from oracles import spp_loop

from repro import analyze_latency, analyze_twca
from repro.sim import (Simulator, randomized_activations,
                       simulate_worst_case, validate_against_analysis,
                       busy_window_activation_counts)
from repro.synth import (GeneratorConfig, figure4_system,
                         generate_feasible_system, random_systems)


@pytest.fixture(autouse=True, params=("numpy", "python"))
def sim_kernel(request, monkeypatch):
    """Every soundness check runs once per simulation path: the numpy
    calendar behind ``Simulator.run``, and the scalar event loop over
    the whole horizon (``oracles.spp_loop.whole_horizon``), whose
    records the oracle queries one by one.  The analytical bounds must
    hold for the (identical) traces of both."""
    if request.param == "python":
        monkeypatch.setattr(Simulator, "run", spp_loop.whole_horizon)
    yield request.param


class TestCaseStudy:
    def test_simulated_latency_equals_wcl(self, figure4):
        """On the case study the bound is tight: the critical-instant
        simulation reaches exactly WCL for both analyzed chains."""
        result = simulate_worst_case(figure4, 4000)
        for name in ("sigma_c", "sigma_d"):
            analytical = analyze_latency(figure4, figure4[name]).wcl
            assert result.max_latency(name) == analytical

    def test_validation_report_ok(self, figure4):
        twca = analyze_twca(figure4, figure4["sigma_c"])
        table = {k: twca.dmm(k) for k in (1, 3, 5, 10)}
        report = validate_against_analysis(
            figure4, "sigma_c", twca.wcl, table, horizon=8000)
        assert report.latency_ok
        assert report.dmm_ok
        assert report.ok

    def test_observed_misses_nonzero(self, figure4):
        """The overload really causes misses in simulation (the DMM is
        not vacuously validated)."""
        result = simulate_worst_case(figure4, 4000)
        assert result.miss_count("sigma_c") >= 1

    def test_busy_window_count_within_k(self, figure4):
        result = simulate_worst_case(figure4, 4000)
        k_c = analyze_latency(figure4, figure4["sigma_c"]).max_queue
        counts = busy_window_activation_counts(result, "sigma_c")
        assert max(counts) <= k_c


class TestRandomizedSystems:
    @pytest.mark.parametrize("seed", range(8))
    def test_worst_case_simulation_below_wcl(self, seed):
        rng = random.Random(seed)
        system = generate_feasible_system(rng, GeneratorConfig(
            chains=2, overload_chains=1, utilization=0.5,
            overload_utilization=0.05))
        result = simulate_worst_case(system, 6000)
        for chain in system.typical_chains:
            analytical = analyze_latency(system, chain).wcl
            observed = result.max_latency(chain.name)
            assert observed <= analytical + 1e-9, (
                f"{chain.name}: observed {observed} > bound {analytical}"
                f" (seed {seed})")

    @pytest.mark.parametrize("seed", range(8))
    def test_random_activations_below_wcl(self, seed):
        rng = random.Random(1000 + seed)
        system = generate_feasible_system(rng, GeneratorConfig(
            chains=2, overload_chains=1, utilization=0.5,
            overload_utilization=0.05))
        simulator = Simulator(system)
        streams = randomized_activations(system, 6000, rng,
                                         slack_scale=0.3)
        result = simulator.run(streams, 6000)
        for chain in system.typical_chains:
            analytical = analyze_latency(system, chain).wcl
            assert result.max_latency(chain.name) <= analytical + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_empirical_dmm_below_analytical(self, seed):
        rng = random.Random(2000 + seed)
        system = generate_feasible_system(rng, GeneratorConfig(
            chains=2, overload_chains=1, utilization=0.55,
            overload_utilization=0.08, deadline_factor=0.9))
        result = simulate_worst_case(system, 8000)
        for chain in system.typical_chains:
            twca = analyze_twca(system, chain)
            for k in (1, 3, 5, 10):
                observed = result.empirical_dmm(chain.name, k)
                assert observed <= twca.dmm(k), (
                    f"{chain.name} k={k}: {observed} > {twca.dmm(k)} "
                    f"(seed {seed})")


class TestPriorityPermutations:
    """The Experiment 2 population: bounds hold under every sampled
    priority assignment."""

    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_hold_under_permutation(self, seed):
        rng = random.Random(seed)
        base = figure4_system()
        for system in random_systems(base, 3, rng):
            result = simulate_worst_case(system, 4000)
            for name in ("sigma_c", "sigma_d"):
                twca = analyze_twca(system, system[name])
                observed_wcl = result.max_latency(name)
                assert observed_wcl <= twca.wcl + 1e-9
                for k in (1, 5, 10):
                    assert (result.empirical_dmm(name, k)
                            <= twca.dmm(k))


@pytest.mark.slow
class TestLongHorizonSoak:
    """Opt-in soak: 10^6 time units of the case study (run -m slow)."""

    def test_case_study_long_run(self, figure4):
        result = simulate_worst_case(figure4, 1_000_000)
        for name in ("sigma_c", "sigma_d"):
            bound = analyze_latency(figure4, figure4[name]).wcl
            assert result.max_latency(name) <= bound
            twca = analyze_twca(figure4, figure4[name])
            for k in (3, 10, 76, 250):
                assert result.empirical_dmm(name, k) <= twca.dmm(k)
