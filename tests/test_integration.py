"""End-to-end integration tests crossing all subsystems."""

import random

import pytest

from oracles.packing import (dmm_reference, scipy_available, solve_dp,
                             solve_scipy)

from repro import DeadlineMissModel, analyze_latency, analyze_twca
from repro.model.serialization import system_from_json, system_to_json
from repro.sim import Simulator, simulate_worst_case, worst_case_activations
from repro.synth import GeneratorConfig, generate_feasible_system
from repro.weaklyhard import AnyMisses, MKFirm


class TestFullPipelineCaseStudy:
    """The complete paper workflow: model -> latency -> TWCA -> DMM ->
    weakly-hard verdict -> simulation cross-check."""

    def test_paper_narrative(self, figure4_calibrated):
        system = figure4_calibrated
        # 1. Table I: sigma_c unschedulable, sigma_d fine.
        wcl_c = analyze_latency(system, system["sigma_c"]).wcl
        wcl_d = analyze_latency(system, system["sigma_d"]).wcl
        assert wcl_c == 331 and wcl_c > 200
        assert wcl_d == 175 and wcl_d <= 200
        # 2. Typical analysis: schedulable without overload.
        assert analyze_latency(system, system["sigma_c"],
                               include_overload=False).wcl <= 200
        # 3. TWCA: Table II.
        twca = analyze_twca(system, system["sigma_c"])
        dmm = DeadlineMissModel(twca.dmm, name="sigma_c")
        assert dmm.table([3, 76, 250]) == {3: 3, 76: 4, 250: 5}
        # 4. Weakly-hard verdicts derived from the DMM.
        assert AnyMisses(3, 3).satisfied_by(dmm)
        assert MKFirm(72, 76).satisfied_by(dmm)
        assert not MKFirm(74, 76).satisfied_by(dmm)
        # 5. Simulation never exceeds the bounds.
        result = simulate_worst_case(system, 6000)
        assert result.max_latency("sigma_c") <= wcl_c
        for k in (3, 10):
            assert result.empirical_dmm("sigma_c", k) <= dmm(k)

    def test_serialization_survives_pipeline(self, figure4):
        restored = system_from_json(system_to_json(figure4))
        twca = analyze_twca(restored, restored["sigma_c"])
        assert twca.dmm(3) == 3


class TestRandomPipeline:
    @pytest.mark.parametrize("seed", range(4))
    def test_generate_analyze_simulate_roundtrip(self, seed):
        rng = random.Random(seed)
        system = generate_feasible_system(rng, GeneratorConfig(
            chains=2, overload_chains=1, utilization=0.5))
        # Serialize / restore.
        system = system_from_json(system_to_json(system))
        simulator = Simulator(system)
        sim = simulator.run(worst_case_activations(system, 4000), 4000)
        for chain in system.typical_chains:
            twca = analyze_twca(system, chain)
            if twca.full_latency is not None:
                assert sim.max_latency(chain.name) <= twca.wcl + 1e-9
            dmm = DeadlineMissModel(twca.dmm)
            for k in (1, 4, 9):
                assert sim.empirical_dmm(chain.name, k) <= dmm(k)


class TestCrossBackendPipeline:
    def test_backends_agree_on_random_systems(self):
        rng = random.Random(99)
        for _ in range(3):
            system = generate_feasible_system(rng, GeneratorConfig(
                chains=2, overload_chains=2, utilization=0.55,
                overload_utilization=0.08))
            for chain in system.typical_chains:
                # dmm against the cold path through every exact solver.
                solvers = [solve_dp] + ([solve_scipy] if scipy_available()
                                        else [])
                result = analyze_twca(system, chain)
                for k in (1, 5, 10):
                    values = {result.dmm(k), dmm_reference(result, k)}
                    values |= {dmm_reference(result, k, solver)
                               for solver in solvers}
                    assert len(values) == 1, values
