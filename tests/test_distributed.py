"""Tests for the distributed extension (model, propagation, analysis)."""

import math

import pytest

from repro.analysis import BusyWindowDivergence
from repro.arrivals import PeriodicModel, SporadicModel
from repro.distributed import (DistributedChain, DistributedSystem,
                               PropagatedModel, analyze_distributed,
                               distributed_dmm, jitter_of, on, propagate)
from repro.model import Task


def _pipeline_system(overload_wcet=25, deadline=120):
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


class TestModel:
    def test_legs_split_on_resource_change(self):
        system = _pipeline_system()
        legs = system["pipeline"].legs()
        assert [(r, [t.name for t in ts]) for r, ts in legs] == [
            ("cpu0", ["p.read", "p.filter"]),
            ("cpu1", ["p.fuse", "p.act"]),
        ]

    def test_ping_pong_mapping_gives_three_legs(self):
        chain = DistributedChain(
            "zigzag",
            [on("a", Task("t1", 1, 1)),
             on("b", Task("t2", 1, 1)),
             on("a", Task("t3", 2, 1))],
            PeriodicModel(10))
        assert chain.resources == ["a", "b", "a"]
        assert len(chain.legs()) == 3

    def test_duplicate_task_mapping_rejected(self):
        task = Task("dup", 1, 1)
        with pytest.raises(ValueError):
            DistributedSystem([
                DistributedChain("c1", [on("a", task)], PeriodicModel(10)),
                DistributedChain("c2", [on("b", task)], PeriodicModel(10)),
            ])

    def test_tasks_on(self):
        system = _pipeline_system()
        assert {t.name for t in system.tasks_on("cpu1")} == {
            "p.fuse", "p.act", "n.irq"}

    def test_resources_sorted(self):
        assert _pipeline_system().resources == ("cpu0", "cpu1")

    def test_lookup_errors(self):
        system = _pipeline_system()
        with pytest.raises(KeyError):
            system["missing"]


class TestPropagation:
    def test_periodic_jitter_grows_by_spread(self):
        out = propagate(PeriodicModel(100), wcl=33, bcl=15,
                        last_task_bcet=10)
        assert isinstance(out, PeriodicModel)
        assert out.period == 100
        assert out.jitter == 18
        assert out.min_distance == 10

    def test_zero_spread_is_identity(self):
        model = PeriodicModel(100, jitter=5)
        assert propagate(model, wcl=20, bcl=20) is model

    def test_sporadic_becomes_propagated_model(self):
        out = propagate(SporadicModel(100), wcl=30, bcl=10)
        assert isinstance(out, PropagatedModel)
        assert out.delta_minus(2) == 80  # squeezed by the spread
        assert math.isinf(out.delta_plus(2))

    def test_propagated_floor(self):
        out = propagate(SporadicModel(100), wcl=300, bcl=10,
                        last_task_bcet=4)
        # 100 - 290 < 0 -> floored at (k-1) * last_task_bcet.
        assert out.delta_minus(2) == 4
        assert out.delta_minus(4) == 12

    def test_wcl_below_bcl_rejected(self):
        with pytest.raises(ValueError):
            propagate(PeriodicModel(10), wcl=5, bcl=6)

    def test_propagated_duality(self):
        from oracles.curves import check_duality
        check_duality(propagate(SporadicModel(100), 30, 10, 5))

    def test_output_rate_preserved(self):
        out = propagate(SporadicModel(100), wcl=30, bcl=10)
        assert out.rate() == pytest.approx(1 / 100)

    def test_jitter_of(self):
        assert jitter_of(PeriodicModel(100, jitter=7)) == 7
        out = propagate(PeriodicModel(100), 33, 15)
        assert jitter_of(out) == 18


class TestAnalysis:
    def test_converges_quickly(self):
        result = analyze_distributed(_pipeline_system())
        assert result.iterations <= 4

    def test_leg_wcls(self):
        result = analyze_distributed(_pipeline_system())
        e2e = result["pipeline"]
        # Leg 0 on cpu0: 25 + one 'local' interference (8) = 33.
        assert e2e.legs[0].wcl == 33
        # Leg 1 on cpu1: 30 + noise (25) = 55.
        assert e2e.legs[1].wcl == 55
        assert e2e.wcl == 88

    def test_second_leg_sees_propagated_jitter(self):
        result = analyze_distributed(_pipeline_system())
        model = result["pipeline"].legs[1].input_model
        assert isinstance(model, PeriodicModel)
        assert model.jitter == 18  # wcl 33 - bcl 15

    def test_e2e_deadline_verdict(self):
        assert analyze_distributed(
            _pipeline_system())["pipeline"].meets_deadline
        tight = _pipeline_system(deadline=80)
        assert not analyze_distributed(tight)["pipeline"].meets_deadline

    def test_budgets_sum_to_deadline(self):
        result = analyze_distributed(_pipeline_system())
        budgets = result["pipeline"].leg_budgets()
        assert sum(budgets) == pytest.approx(120)
        for budget, leg in zip(budgets, result["pipeline"].legs):
            assert budget >= leg.bcl

    def test_overloaded_resource_raises(self):
        hog = DistributedChain(
            "hog", [on("cpu0", Task("h.t", priority=9, wcet=60))],
            PeriodicModel(50))
        system = DistributedSystem(
            [_pipeline_system()["pipeline"], hog], name="hot")
        with pytest.raises(BusyWindowDivergence):
            analyze_distributed(system)

    def test_single_resource_matches_uniprocessor(self):
        """A distributed chain living on one resource must reproduce the
        plain uniprocessor analysis."""
        from repro import SystemBuilder, analyze_latency
        chain = DistributedChain(
            "mono",
            [on("cpu", Task("m.a", priority=2, wcet=10)),
             on("cpu", Task("m.b", priority=1, wcet=20))],
            PeriodicModel(100), deadline=100)
        other = DistributedChain(
            "other", [on("cpu", Task("o.t", priority=3, wcet=5))],
            PeriodicModel(40), deadline=40)
        result = analyze_distributed(
            DistributedSystem([chain, other], name="mono"))
        assert len(result["mono"].legs) == 1

        reference = (
            SystemBuilder("ref")
            .chain("mono", PeriodicModel(100), deadline=100)
            .task("m.a", priority=2, wcet=10)
            .task("m.b", priority=1, wcet=20)
            .chain("other", PeriodicModel(40), deadline=40)
            .task("o.t", priority=3, wcet=5)
            .build()
        )
        expected = analyze_latency(reference, reference["mono"]).wcl
        assert result["mono"].wcl == expected


class TestDistributedDmm:
    def test_meeting_chain_gets_zero(self):
        system = _pipeline_system()
        assert distributed_dmm(system, "pipeline", 10) == 0

    def test_overloaded_chain_gets_bounded_dmm(self):
        system = _pipeline_system(overload_wcet=60, deadline=95)
        analysis = analyze_distributed(system)
        assert not analysis["pipeline"].meets_deadline
        dmm = distributed_dmm(system, "pipeline", 10, analysis=analysis)
        assert 1 <= dmm <= 10

    def test_dmm_monotone_in_k(self):
        system = _pipeline_system(overload_wcet=60, deadline=95)
        analysis = analyze_distributed(system)
        values = [distributed_dmm(system, "pipeline", k,
                                  analysis=analysis)
                  for k in (1, 2, 5, 10)]
        assert values == sorted(values)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            distributed_dmm(_pipeline_system(), "pipeline", 0)


class TestMultiHopPropagation:
    def test_propagated_of_propagated(self):
        """Two hops over a curve model stack distortions correctly."""
        from oracles.curves import check_duality
        base = SporadicModel(100)
        hop1 = propagate(base, wcl=30, bcl=10, last_task_bcet=5)
        hop2 = propagate(hop1, wcl=50, bcl=20, last_task_bcet=8)
        # Total squeeze: (30-10) + (50-20) = 50.
        assert hop2.delta_minus(2) == 100 - 50
        check_duality(hop2)

    def test_floor_propagates(self):
        base = SporadicModel(100)
        hop1 = propagate(base, wcl=300, bcl=10, last_task_bcet=6)
        hop2 = propagate(hop1, wcl=400, bcl=10, last_task_bcet=9)
        # Both hops squeeze past zero; the final floor is the last
        # task's best case.
        assert hop2.delta_minus(2) == 9

    def test_three_resource_chain_converges(self):
        chain = DistributedChain(
            "triple",
            [on("a", Task("t0", priority=3, wcet=5, bcet=3)),
             on("b", Task("t1", priority=2, wcet=7, bcet=4)),
             on("c", Task("t2", priority=1, wcet=6, bcet=5))],
            PeriodicModel(50), deadline=60)
        side = DistributedChain(
            "side", [on("b", Task("s0", priority=9, wcet=4))],
            PeriodicModel(40), deadline=40)
        system = DistributedSystem([chain, side], name="three")
        result = analyze_distributed(system)
        assert len(result["triple"].legs) == 3
        assert result["triple"].wcl >= 18  # at least the summed WCETs
