"""Tests of the Theorem 2 latency analysis — Table I of the paper."""

import pytest

from repro import BusyWindowDivergence, analyze_latency
from repro import PeriodicModel, SystemBuilder


class TestTableI:
    """Experiment 1, first analysis: WCL(sigma_c)=331, WCL(sigma_d)=175."""

    def test_wcl_sigma_c(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        assert result.wcl == 331

    def test_wcl_sigma_d(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_d"])
        assert result.wcl == 175

    def test_sigma_c_misses_its_deadline(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        assert not result.meets(figure4["sigma_c"].deadline)

    def test_sigma_d_meets_its_deadline(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_d"])
        assert result.meets(figure4["sigma_d"].deadline)

    def test_k_c_is_2(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        assert result.max_queue == 2
        assert result.latencies == (331, 182)
        assert result.critical_q == 1

    def test_k_d_is_1(self, figure4):
        assert analyze_latency(figure4, figure4["sigma_d"]).max_queue == 1

    def test_busy_time_accessor(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"])
        assert result.busy_time(1) == 331
        assert result.busy_time(2) == 382
        with pytest.raises(IndexError):
            result.busy_time(3)

    def test_deadline_miss_count_lemma3(self, figure4):
        # N_c = 1: only the q=1 position can miss (331 > 200; 182 <= 200).
        result = analyze_latency(figure4, figure4["sigma_c"])
        assert result.deadline_miss_count(200) == 1


class TestTypicalAnalysis:
    """Experiment 1, second analysis: without overload the system is
    schedulable."""

    def test_sigma_c_schedulable_without_overload(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_c"],
                                 include_overload=False)
        assert result.wcl <= 200
        assert not result.include_overload

    def test_sigma_d_schedulable_without_overload(self, figure4):
        result = analyze_latency(figure4, figure4["sigma_d"],
                                 include_overload=False)
        assert result.wcl <= 200

    def test_typical_never_exceeds_full(self, figure4):
        for name in ("sigma_c", "sigma_d"):
            full = analyze_latency(figure4, figure4[name]).wcl
            typical = analyze_latency(figure4, figure4[name],
                                      include_overload=False).wcl
            assert typical <= full


class TestStructuralProperties:
    def test_wcl_at_least_chain_wcet(self, figure4, figure1):
        for system in (figure4, figure1):
            for chain in system.chains:
                result = analyze_latency(system, chain)
                assert result.wcl >= chain.total_wcet

    def test_single_chain_system_wcl_is_wcet(self):
        system = (
            SystemBuilder("solo")
            .chain("only", PeriodicModel(100), deadline=100)
            .task("only.a", priority=2, wcet=10)
            .task("only.b", priority=1, wcet=15)
            .build()
        )
        result = analyze_latency(system, system["only"])
        assert result.wcl == 25
        assert result.max_queue == 1

    def test_max_q_guard(self, figure4):
        with pytest.raises(BusyWindowDivergence):
            analyze_latency(figure4, figure4["sigma_c"], max_q=1)

    def test_latencies_match_busy_minus_delta(self, figure4):
        chain = figure4["sigma_c"]
        result = analyze_latency(figure4, chain)
        for q, latency in enumerate(result.latencies, start=1):
            expected = (result.busy_time(q)
                        - chain.activation.delta_minus(q))
            assert latency == expected


class TestDeferredChainBenefit:
    """The segment machinery must beat all-arbitrary interference on
    systems with deferred chains (sigma_d's analysis benefits from
    sigma_c's segments)."""

    def test_segment_aware_beats_arbitrary_on_sigma_d(self, figure4):
        from repro.baselines import analyze_latency_arbitrary
        aware = analyze_latency(figure4, figure4["sigma_d"]).wcl
        blunt = analyze_latency_arbitrary(figure4, figure4["sigma_d"]).wcl
        assert aware < blunt

    def test_equal_when_no_deferred_chain(self, figure4):
        from repro.baselines import analyze_latency_arbitrary
        # All interferers of sigma_c are arbitrary already.
        aware = analyze_latency(figure4, figure4["sigma_c"]).wcl
        blunt = analyze_latency_arbitrary(figure4, figure4["sigma_c"]).wcl
        assert aware == blunt


class TestScanStopsAtClosure:
    """The queue scans compute no fixed point past the busy-window
    closure K: each ``q`` runs alone, so the largest ``q`` evaluated is
    ``max_queue``."""

    def test_latency_scan_evaluates_no_q_past_closure(self, monkeypatch):
        from repro.analysis.busy_window import _InterferenceModel
        from repro.synth.corpus import CorpusSpec, generate_entry

        system = generate_entry(
            CorpusSpec(count=2, seed=2017, family="waters",
                       utilization=(0.7, 0.9)), 1)
        chain = system["ecu_chain_1"]
        seen = []
        total = _InterferenceModel.total

        def recording(self, q, horizon, combination_cost=0.0):
            seen.append(q)
            return total(self, q, horizon, combination_cost)

        monkeypatch.setattr(_InterferenceModel, "total", recording)
        result = analyze_latency(system, chain)
        assert result.max_queue == 3
        assert max(seen) == result.max_queue

    def test_response_time_scan_evaluates_no_q_past_closure(
            self, monkeypatch):
        from repro.baselines import AnalyzedTask, analyze_response_time
        from repro.baselines import rta

        # hi (P=10, C=6), lo (P=13, C=5): the busy window of lo holds
        # three jobs.
        tasks = [
            AnalyzedTask("hi", priority=2, wcet=6,
                         activation=PeriodicModel(10)),
            AnalyzedTask("lo", priority=1, wcet=5,
                         activation=PeriodicModel(13)),
        ]
        seen = []
        demand = rta._demand

        def recording(higher, target, q, horizon, extra_load):
            seen.append(q)
            return demand(higher, target, q, horizon, extra_load)

        monkeypatch.setattr(rta, "_demand", recording)
        result = analyze_response_time(tasks, tasks[1])
        assert result.max_queue == 3
        assert max(seen) == result.max_queue
