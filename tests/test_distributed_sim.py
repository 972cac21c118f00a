"""Validation of the distributed simulator against the distributed
analysis: leg and end-to-end latencies must respect the converged
bounds."""

import pytest

from repro.arrivals import PeriodicModel, SporadicModel
from repro.distributed import (DistributedChain, DistributedSystem,
                               analyze_distributed, distributed_dmm, on)
from repro.distributed.sim import (DistributedSimulator,
                                   worst_case_distributed_activations)
from repro.model import Task
from repro.sim import SimulationResult, latency_stats, trace_json


def _system(overload_wcet=25, deadline=120):
    pipeline = DistributedChain(
        "pipeline",
        [on("cpu0", Task("p.read", priority=2, wcet=10, bcet=5)),
         on("cpu0", Task("p.filter", priority=1, wcet=15, bcet=10)),
         on("cpu1", Task("p.fuse", priority=2, wcet=20, bcet=12)),
         on("cpu1", Task("p.act", priority=1, wcet=10, bcet=8))],
        PeriodicModel(100), deadline=deadline)
    noise = DistributedChain(
        "noise",
        [on("cpu1", Task("n.irq", priority=3, wcet=overload_wcet))],
        SporadicModel(400), overload=True)
    local = DistributedChain(
        "local",
        [on("cpu0", Task("l.t", priority=3, wcet=8))],
        PeriodicModel(50), deadline=50)
    return DistributedSystem([pipeline, noise, local], name="demo")


def simulate(system, horizon=4000):
    streams = worst_case_distributed_activations(system, horizon)
    return DistributedSimulator(system).run(streams, horizon)


class TestBasicExecution:
    def test_isolated_pipeline_latency(self):
        chain = DistributedChain(
            "solo",
            [on("a", Task("s.x", priority=1, wcet=10)),
             on("b", Task("s.y", priority=1, wcet=20))],
            PeriodicModel(1000), deadline=1000)
        system = DistributedSystem([chain], name="solo")
        result = DistributedSimulator(system).run({"solo": [0.0]}, 100)
        assert result.latencies("solo") == [30]
        record = result.instances["solo"][0]
        assert record.task_finishes["s.x"] == 10
        assert record.task_finishes["s.y"] == 30

    def test_result_is_the_single_cpu_result(self):
        """The distributed simulator fills the single-CPU
        ``SimulationResult``: the same queries and exports, with no
        start times and no execution slices."""
        result = simulate(_system())
        assert isinstance(result, SimulationResult)
        assert result.slices == []
        assert all(record.start is None
                   for record in result.instances["pipeline"])
        assert result.miss_count("pipeline") == \
            sum(result.miss_flags("pipeline"))
        assert latency_stats(result, "pipeline").maximum == \
            result.max_latency("pipeline")
        windows = result.busy_windows("local")
        assert windows and windows[0][0] == 0.0
        assert '"start": null' in trace_json(result)

    @pytest.mark.parametrize("k", [0, -1])
    def test_empirical_dmm_rejects_k_below_one(self, k):
        result = simulate(_system())
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            result.empirical_dmm("pipeline", k)

    def test_resources_execute_in_parallel(self):
        left = DistributedChain(
            "left", [on("a", Task("l.t", priority=1, wcet=50))],
            PeriodicModel(1000), deadline=1000)
        right = DistributedChain(
            "right", [on("b", Task("r.t", priority=1, wcet=50))],
            PeriodicModel(1000), deadline=1000)
        system = DistributedSystem([left, right], name="par")
        result = DistributedSimulator(system).run(
            {"left": [0.0], "right": [0.0]}, 200)
        # No mutual interference across resources.
        assert result.latencies("left") == [50]
        assert result.latencies("right") == [50]

    def test_preemption_within_resource(self):
        low = DistributedChain(
            "low", [on("a", Task("lo.t", priority=1, wcet=30))],
            PeriodicModel(1000), deadline=1000)
        high = DistributedChain(
            "high", [on("a", Task("hi.t", priority=2, wcet=10))],
            PeriodicModel(1000), deadline=1000)
        system = DistributedSystem([low, high], name="pre")
        result = DistributedSimulator(system).run(
            {"low": [0.0], "high": [5.0]}, 200)
        assert result.latencies("high") == [10]
        assert result.latencies("low") == [40]

    def test_sync_chain_serializes(self):
        chain = DistributedChain(
            "s",
            [on("a", Task("s.x", priority=2, wcet=30)),
             on("b", Task("s.y", priority=1, wcet=30))],
            PeriodicModel(40), deadline=500)
        system = DistributedSystem([chain], name="sync")
        result = DistributedSimulator(system).run(
            {"s": [0.0, 40.0]}, 500)
        first, second = result.instances["s"]
        # Instance 1 may not start on 'a' before instance 0 left 'b'.
        assert second.task_finishes["s.x"] >= first.finish

    def test_unsorted_activations_rejected(self):
        system = _system()
        with pytest.raises(ValueError):
            DistributedSimulator(system).run(
                {"pipeline": [10.0, 0.0]}, 100)

    def test_nan_activation_rejected(self):
        # NaN fails every comparison, so a horizon filter would drop it
        # and simulate the two other instances.
        with pytest.raises(ValueError, match="finite"):
            DistributedSimulator(_system()).run(
                {"pipeline": [0.0, float("nan"), 200.0]}, 400)

    def test_nan_horizon_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            DistributedSimulator(_system()).run(
                {"pipeline": [0.0, 100.0]}, float("nan"))

    def test_infinite_activation_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            DistributedSimulator(_system()).run(
                {"pipeline": [0.0, float("inf")]}, float("inf"))


class TestBoundsHold:
    def test_e2e_latency_below_analysis(self):
        system = _system()
        analysis = analyze_distributed(system)
        result = simulate(system)
        for name in ("pipeline", "local"):
            observed = result.max_latency(name)
            bound = analysis[name].wcl
            assert observed <= bound + 1e-9, (
                f"{name}: {observed} > {bound}")

    def test_leg_latencies_below_leg_bounds(self):
        system = _system()
        analysis = analyze_distributed(system)
        result = simulate(system)
        e2e = analysis["pipeline"]
        legs = system["pipeline"].legs()
        for record in result.instances["pipeline"]:
            if record.finish is None:
                continue
            leg_input = record.activation
            for leg_result, (resource, tasks) in zip(e2e.legs, legs):
                names = [t.name for t in tasks]
                finish = record.task_finishes[names[-1]]
                observed = finish - leg_input
                assert observed <= leg_result.wcl + 1e-9, (
                    f"leg on {resource}: {observed} > {leg_result.wcl}")
                leg_input = finish

    def test_empirical_dmm_below_distributed_dmm(self):
        system = _system(overload_wcet=60, deadline=95)
        analysis = analyze_distributed(system)
        result = simulate(system, horizon=8000)
        assert result.miss_flags("pipeline")
        for k in (1, 3, 10):
            bound = distributed_dmm(system, "pipeline", k,
                                    analysis=analysis)
            observed = result.empirical_dmm("pipeline", k)
            assert observed <= bound, (
                f"k={k}: observed {observed} > bound {bound}")

    @pytest.mark.parametrize("overload_wcet", [25, 45, 60])
    def test_bounds_across_overload_intensities(self, overload_wcet):
        system = _system(overload_wcet=overload_wcet)
        analysis = analyze_distributed(system)
        result = simulate(system)
        assert (result.max_latency("pipeline")
                <= analysis["pipeline"].wcl + 1e-9)
