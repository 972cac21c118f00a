"""Tests of the Theorem 1 busy-time fixed point, pinned against the
hand-computed case-study values (see DESIGN.md §3)."""


import dataclasses

import pytest

from repro import (BusyWindowDivergence, PeriodicModel, SporadicModel,
                   SystemBuilder)
from repro.analysis import (analyze_latency, analyze_twca, busy_time,
                            busy_times, criterion_load, criterion_loads,
                            typical_busy_time)
from repro.baselines import (AnalyzedTask, analyze_response_time,
                             busy_time_arbitrary)
from repro.model import ChainKind


class TestCaseStudyFixedPoints:
    """B values verified by hand from Eq. (1)."""

    def test_b_c_1_is_331(self, figure4):
        result = busy_time(figure4, figure4["sigma_c"], 1)
        assert result.total == 331

    def test_b_c_1_breakdown(self, figure4):
        result = busy_time(figure4, figure4["sigma_c"], 1)
        assert result.base == 51
        assert result.self_interference == 0  # synchronous chain
        # sigma_d interferes twice within 331 (ceil(331/200) = 2).
        assert result.arbitrary["sigma_d"] == 2 * 115
        assert result.arbitrary["sigma_a"] == 20
        assert result.arbitrary["sigma_b"] == 30
        assert result.deferred_async == {}
        assert result.deferred_sync == {}

    def test_b_c_2_is_382(self, figure4):
        assert busy_time(figure4, figure4["sigma_c"], 2).total == 382

    def test_b_d_1_is_175(self, figure4):
        result = busy_time(figure4, figure4["sigma_d"], 1)
        assert result.total == 175
        # sigma_c is deferred by sigma_d: its critical segment
        # (tau_c^1, tau_c^2) contributes 10 once.
        assert result.deferred_sync["sigma_c"] == 10
        assert result.arbitrary["sigma_a"] == 20
        assert result.arbitrary["sigma_b"] == 30

    def test_busy_time_monotone_in_q(self, figure4):
        chain = figure4["sigma_c"]
        values = [busy_time(figure4, chain, q).total for q in range(1, 6)]
        assert values == sorted(values)
        # And strictly grows by at least the chain WCET.
        for prev, cur in zip(values, values[1:]):
            assert cur - prev >= chain.total_wcet

    def test_rejects_q_zero(self, figure4):
        with pytest.raises(ValueError):
            busy_time(figure4, figure4["sigma_c"], 0)

    def test_rejects_foreign_chain(self, figure4, figure1):
        with pytest.raises(ValueError):
            busy_time(figure4, figure1["sigma_a"], 1)


#: Every entry point that builds an interference structure for a chain.
ENTRY_POINTS = {
    "busy_time": lambda system, chain: busy_time(system, chain, 1),
    "busy_times": lambda system, chain: busy_times(system, chain, (1, 2)),
    "criterion_loads": lambda system, chain: criterion_loads(
        system, chain, (1, 2)),
    "analyze_latency": analyze_latency,
    "analyze_twca": analyze_twca,
}


class TestMembership:
    """A chain the system does not hold is refused, whether its name is
    unknown or a member's name labels a different chain."""

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("case", ["unknown-name", "other-wcet"])
    def test_rejects_chain_outside_system(self, figure4, entry, case):
        chain = figure4["sigma_c"]
        if case == "unknown-name":
            foreign = dataclasses.replace(chain, name="sigma_x")
        else:
            header = dataclasses.replace(chain.header,
                                         wcet=chain.header.wcet + 1)
            foreign = dataclasses.replace(
                chain, tasks=(header,) + chain.tasks[1:])
            assert foreign.name in figure4
        with pytest.raises(ValueError, match="not in system"):
            ENTRY_POINTS[entry](figure4, foreign)


class TestTypicalBusyTime:
    def test_excludes_overload(self, figure4):
        result = typical_busy_time(figure4, figure4["sigma_c"], 1)
        assert "sigma_a" not in result.arbitrary
        assert "sigma_b" not in result.arbitrary
        # 51 + eta_d * 115 with the smaller fixed point 166 -> eta_d = 1.
        assert result.total == 51 + 115

    def test_combination_cost_added(self, figure4):
        base = typical_busy_time(figure4, figure4["sigma_c"], 1).total
        loaded = typical_busy_time(figure4, figure4["sigma_c"], 1,
                                   combination_cost=50)
        assert loaded.combination == 50
        # Adding 50 pushes the window past 200, pulling in one more
        # sigma_d activation: 51 + 2*115 + 50 = 331.
        assert loaded.total == 331
        assert loaded.total >= base + 50


class TestCriterionLoad:
    """L_b(q) of Eq. (4), the values behind Experiment 1."""

    def test_l_c_1_is_166(self, figure4):
        assert criterion_load(figure4, figure4["sigma_c"], 1) == 166

    def test_l_c_2_is_332(self, figure4):
        assert criterion_load(figure4, figure4["sigma_c"], 2) == 332

    def test_needs_finite_deadline(self, figure4):
        with pytest.raises(ValueError):
            criterion_load(figure4, figure4["sigma_a"], 1)


class TestAsynchronousSelfInterference:
    def test_async_chain_pays_header_backlog(self, async_system):
        # flow: period 50, tasks head(10) mid(10) tail(5); header prefix
        # is just (head,) because mid has the lowest priority.
        result = busy_time(async_system, async_system["flow"], 1)
        assert result.self_interference > 0

    def test_sync_variant_is_cheaper(self, async_system):
        from repro.model import System, TaskChain
        flow = async_system["flow"]
        sync_flow = TaskChain(flow.name, flow.tasks, flow.activation,
                              flow.deadline, ChainKind.SYNCHRONOUS,
                              flow.overload)
        sync_system = System(
            [sync_flow if c.name == "flow" else c
             for c in async_system.chains], name="sync-variant")
        async_total = busy_time(async_system, flow, 1).total
        sync_total = busy_time(sync_system, sync_system["flow"], 1).total
        assert sync_total <= async_total


class TestDivergence:
    def test_overloaded_system_raises(self):
        system = (
            SystemBuilder("hot")
            .chain("low", PeriodicModel(100), deadline=100)
            .task("low.t", priority=1, wcet=10)
            .chain("high", PeriodicModel(10))
            .task("high.t", priority=2, wcet=11)
            .build()
        )
        with pytest.raises(BusyWindowDivergence):
            busy_time(system, system["low"], 1)

    def test_divergence_reports_chain_and_q(self):
        system = (
            SystemBuilder("hot")
            .chain("low", PeriodicModel(100), deadline=100)
            .task("low.t", priority=1, wcet=10)
            .chain("high", PeriodicModel(10))
            .task("high.t", priority=2, wcet=11)
            .build()
        )
        with pytest.raises(BusyWindowDivergence) as info:
            busy_time(system, system["low"], 1)
        assert info.value.chain_name == "low"
        assert info.value.q == 1

    def test_overflow_is_a_divergence_of_its_q(self, figure4, monkeypatch):
        # A curve refusing a window becomes the divergence of the q whose
        # iteration asked for it; the other q keep their fixed points.
        from repro.analysis.busy_window import (_busy_times_block,
                                                _InterferenceModel)

        chain = figure4["sigma_c"]
        total = _InterferenceModel.total

        def refusing(self, q, horizon, combination_cost=0.0):
            if horizon > 500:
                raise OverflowError("window too wide")
            return total(self, q, horizon, combination_cost)

        monkeypatch.setattr(_InterferenceModel, "total", refusing)
        model = _InterferenceModel(figure4, chain, include_overload=True)
        outcomes = _busy_times_block(model, [1, 2, 3])
        assert (outcomes[1], outcomes[2]) == (331, 382)
        assert isinstance(outcomes[3], BusyWindowDivergence)
        assert outcomes[3].q == 3
        assert "window too wide" in str(outcomes[3])
        with pytest.raises(BusyWindowDivergence):
            busy_times(figure4, chain, [1, 2, 3])
        # The Theorem 2 scan closes at K = 2 and never asks for q = 3.
        assert analyze_latency(figure4, chain).max_queue == 2


class TestZeroBaseKleeneStart:
    """A zero base demand starts the Kleene iteration at the least
    positive window, not at a floor of 1 time unit: from 1, a
    ``SporadicModel(0.3)`` interferer counts 4 events and the iteration
    stops at the pre-fixed point 0.4 above the least fixed point 0.1."""

    @staticmethod
    def system():
        return (
            SystemBuilder("zero-base")
            .chain("idle", PeriodicModel(10), deadline=10)
            .task("idle.t", priority=1, wcet=0)
            .chain("irq", SporadicModel(0.3))
            .task("irq.t", priority=2, wcet=0.1)
            .build()
        )

    def test_busy_time_is_least_fixed_point(self):
        system = self.system()
        assert busy_time(system, system["idle"], 1).total == 0.1

    def test_latency_scan_is_least_fixed_point(self):
        system = self.system()
        assert analyze_latency(system, system["idle"]).busy_times == (0.1,)

    def test_baselines_start_at_base_demand(self):
        system = self.system()
        assert busy_time_arbitrary(system, system["idle"], 1).total == 0.1
        irq = AnalyzedTask("irq", 2, 0.1, SporadicModel(0.3))
        idle = AnalyzedTask("idle", 1, 0.0, PeriodicModel(10))
        assert analyze_response_time([irq, idle], idle).busy_times == (0.1,)


class TestWindowOverride:
    def test_fixed_window_evaluation(self, figure4):
        # At a fixed window of 200, sigma_d contributes exactly once.
        result = busy_time(figure4, figure4["sigma_c"], 1, window=200)
        assert result.arbitrary["sigma_d"] == 115
        assert result.total == 51 + 115 + 20 + 30

    def test_window_zero_means_no_interference(self, figure4):
        result = busy_time(figure4, figure4["sigma_c"], 1, window=0)
        assert result.total == 51


class TestCriterionLoadAsync:
    def test_async_target_pays_header_in_l(self, async_system):
        """Eq. (4) keeps the asynchronous self-interference term."""
        from repro.analysis import criterion_load
        flow = async_system["flow"]
        value = criterion_load(async_system, flow, 1)
        # Window = delta(1) + D = 120; eta_flow(120) = 3 activations,
        # backlog of 2 beyond q=1, header prefix costs 10 each.
        # Typical load: 25 (own) + 2 * 10 (backlog) = 45 (overload
        # chain excluded from Eq. 4).
        assert value == 25 + 2 * 10
