"""Hand-checkable scenarios for the SPP chain simulator."""

import math

import pytest

from repro import ChainKind, PeriodicModel, SporadicModel, SystemBuilder
from repro.sim import Simulator, simulate_worst_case


def run(system, activations, horizon=10_000):
    return Simulator(system).run(activations, horizon)


class TestSingleChain:
    def _system(self):
        return (
            SystemBuilder("solo")
            .chain("c", PeriodicModel(100), deadline=100)
            .task("c.a", priority=2, wcet=10)
            .task("c.b", priority=1, wcet=5)
            .build()
        )

    def test_isolated_latency_is_sum_of_wcets(self):
        result = run(self._system(), {"c": [0.0]})
        assert result.latencies("c") == [15]

    def test_task_finish_times(self):
        result = run(self._system(), {"c": [0.0]})
        record = result.instances["c"][0]
        assert record.task_finishes["c.a"] == 10
        assert record.task_finishes["c.b"] == 15

    def test_back_to_back_instances(self):
        result = run(self._system(), {"c": [0.0, 100.0, 200.0]})
        assert result.latencies("c") == [15, 15, 15]

    def test_unsorted_activations_rejected(self):
        with pytest.raises(ValueError):
            run(self._system(), {"c": [100.0, 0.0]})


class TestPreemption:
    def _system(self):
        return (
            SystemBuilder("pre")
            .chain("low", PeriodicModel(1000), deadline=1000)
            .task("low.t", priority=1, wcet=50)
            .chain("high", PeriodicModel(1000))
            .task("high.t", priority=2, wcet=10)
            .build()
        )

    def test_high_priority_preempts(self):
        result = run(self._system(), {"low": [0.0], "high": [20.0]})
        # low runs [0,20), preempted, high [20,30), low resumes [30,60).
        assert result.latencies("low") == [60]
        assert result.latencies("high") == [10]
        low_slices = [s for s in result.slices if s.chain == "low"]
        assert [(s.start, s.end) for s in low_slices] == [(0, 20), (30, 60)]

    def test_lower_priority_waits(self):
        result = run(self._system(), {"low": [0.0], "high": [0.0]})
        assert result.latencies("high") == [10]
        assert result.latencies("low") == [60]


class TestSynchronousSemantics:
    def _system(self, kind):
        return (
            SystemBuilder("sem")
            .chain("c", PeriodicModel(10), deadline=100, kind=kind)
            .task("c.head", priority=2, wcet=8)
            .task("c.tail", priority=1, wcet=8)
            .build()
        )

    def test_sync_chain_serializes_instances(self):
        system = self._system(ChainKind.SYNCHRONOUS)
        result = run(system, {"c": [0.0, 10.0]})
        # Second instance must wait for the first to finish (t=16).
        first, second = result.instances["c"]
        assert first.finish == 16
        assert second.start == 16
        assert second.finish == 32
        assert result.latencies("c") == [16, 22]

    def test_async_chain_overlaps_instances(self):
        system = self._system(ChainKind.ASYNCHRONOUS)
        result = run(system, {"c": [0.0, 10.0]})
        # head of instance 1 (priority 2) preempts tail of instance 0
        # (priority 1): tail-0 runs [8,10), head-1 [10,18),
        # tail-0 resumes [18,24), tail-1 [24,32).
        first, second = result.instances["c"]
        assert first.finish == 24
        assert second.finish == 32

    def test_async_respects_per_task_fifo(self):
        system = self._system(ChainKind.ASYNCHRONOUS)
        result = run(system, {"c": [0.0, 0.0]})
        # Two simultaneous activations: head-1 cannot run before head-0
        # finished (FIFO), even though both are ready at t=0.
        head_slices = [s for s in result.slices if s.task == "c.head"]
        assert [s.instance for s in head_slices] == [0, 1]


class TestDeadlineAgnostic:
    def test_missing_instances_run_to_completion(self):
        system = (
            SystemBuilder("miss")
            .chain("c", PeriodicModel(10), deadline=5)
            .task("c.t", priority=1, wcet=8)
            .build()
        )
        result = run(system, {"c": [0.0, 10.0]})
        # Both instances finish despite missing deadline 5.
        assert result.latencies("c") == [8, 8]
        assert result.miss_count("c") == 2
        assert result.miss_flags("c") == [True, True]


class TestMetrics:
    def _missy_result(self):
        system = (
            SystemBuilder("m")
            .chain("c", PeriodicModel(10), deadline=12)
            .task("c.t", priority=1, wcet=9)
            .chain("noise", SporadicModel(50), overload=True)
            .task("noise.t", priority=2, wcet=6)
            .build()
        )
        acts = {"c": [0.0, 10.0, 20.0, 30.0, 40.0], "noise": [0.0]}
        return run(system, acts)

    def test_empirical_dmm_window(self):
        result = self._missy_result()
        flags = result.miss_flags("c")
        k = 2
        expected = max(sum(flags[i:i + k])
                       for i in range(len(flags) - k + 1))
        assert result.empirical_dmm("c", k) == expected

    def test_empirical_dmm_window_larger_than_run(self):
        result = self._missy_result()
        assert result.empirical_dmm("c", 99) == result.miss_count("c")

    def test_busy_windows_merge_overlaps(self):
        result = self._missy_result()
        windows = result.busy_windows("c")
        assert all(start < end for start, end in windows)
        for (s1, e1), (s2, e2) in zip(windows, windows[1:]):
            assert e1 < s2  # disjoint and sorted

    def test_max_latency(self):
        result = self._missy_result()
        assert result.max_latency("c") == max(result.latencies("c"))


class TestBcetMode:
    def test_bcet_runs_shorter(self):
        system = (
            SystemBuilder("b")
            .chain("c", PeriodicModel(100), deadline=100)
            .task("c.t", priority=1, wcet=10, bcet=4)
            .build()
        )
        wcet_result = Simulator(system).run({"c": [0.0]}, 100)
        bcet_result = Simulator(system, use_bcet=True).run({"c": [0.0]}, 100)
        assert wcet_result.latencies("c") == [10]
        assert bcet_result.latencies("c") == [4]


class TestBoundaryTieBreak:
    """Half-open window convention: completions at t precede arrivals
    at t.  Regression for fuzz seed 5091: a zero-wcet chain tail must
    complete at the instant the busy window closes, not be preempted by
    an arrival at exactly that instant."""

    def _system(self):
        return (
            SystemBuilder("tie")
            .chain("low", PeriodicModel(200), deadline=200)
            .task("low.work", priority=1, wcet=40)
            .task("low.signal", priority=3, wcet=0)
            .chain("high", PeriodicModel(40), deadline=40)
            .task("high.t", priority=2, wcet=10)
            .build()
        )

    def test_zero_wcet_tail_completes_at_boundary(self):
        system = self._system()
        result = run(system, {"low": [0.0],
                              "high": [0.0, 40.0, 80.0]})
        # low.work executes in the gaps [10,40) and [50,60); the
        # zero-wcet signal completes at t=60 immediately after it, and
        # the observed latency must respect the busy-window bound.
        from repro import analyze_latency
        bound = analyze_latency(system, system["low"]).wcl
        assert result.latencies("low") == [60]
        assert 60 <= bound

    def test_fuzz_seed_5091_shape(self):
        """Distilled seed-5091 scenario: the interferer's period equals
        the victim's one-event busy time, and the victim's tail has
        zero wcet."""
        system = (
            SystemBuilder("knife")
            .chain("victim", PeriodicModel(480), deadline=480)
            .task("victim.t0", priority=1, wcet=20)
            .task("victim.t1", priority=3, wcet=0)
            .chain("noise", PeriodicModel(40), deadline=40)
            .task("noise.t", priority=2, wcet=20)
            .build()
        )
        from repro import analyze_latency
        # B(1) = 20 + eta_noise(B) * 20 -> fixed point 40: the second
        # noise arrival lands exactly at 40.
        bound = analyze_latency(system, system["victim"]).wcl
        assert bound == 40
        result = run(system, {
            "victim": [0.0],
            "noise": [0.0, 40.0, 80.0, 120.0]})
        assert result.latencies("victim") == [40]


class TestInputValidation:
    """Bad simulator input is rejected at the boundary.  Every
    simulator reads its streams through ``release_times``, so the
    calendar behind ``run`` stands for all of them."""

    def _system(self):
        return (
            SystemBuilder("solo")
            .chain("c", PeriodicModel(100), deadline=100)
            .task("c.t", priority=1, wcet=10)
            .build()
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_activation_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            run(self._system(), {"c": [0.0, bad, 500.0]}, 1000)

    def test_nan_horizon_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            run(self._system(), {"c": [0.0, 100.0]}, math.nan)

    def test_infinite_horizon_keeps_every_activation(self):
        result = run(self._system(), {"c": [0.0, 100.0]}, math.inf)
        assert result.latencies("c") == [10, 10]

    @pytest.mark.parametrize("k", [0, -1])
    def test_empirical_dmm_rejects_k_below_one(self, k):
        result = run(self._system(), {"c": [0.0, 100.0]}, 1000)
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            result.empirical_dmm("c", k)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -5.0])
    def test_worst_case_needs_finite_positive_horizon(self, horizon):
        with pytest.raises(ValueError, match="finite and > 0"):
            simulate_worst_case(self._system(), horizon)
