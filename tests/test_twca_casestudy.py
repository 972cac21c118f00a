"""End-to-end TWCA on the case study: Experiment 1 and Table II."""


import pytest

from oracles.packing import (dmm_reference, scipy_available, solve_dp,
                             solve_scipy)

from repro import GuaranteeStatus, analyze_twca
from repro.analysis import NotAnalyzable, analyze_all


class TestExperiment1:
    """The in-text facts of Sec. VI, Experiment 1."""

    @pytest.fixture(scope="class")
    def result_c(self, figure4):
        return analyze_twca(figure4, figure4["sigma_c"])

    def test_sigma_c_is_weakly_hard(self, result_c):
        assert result_c.status is GuaranteeStatus.WEAKLY_HARD

    def test_sigma_d_is_schedulable_needs_no_dmm(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_d"])
        assert result.status is GuaranteeStatus.SCHEDULABLE
        assert result.dmm(10) == 0

    def test_three_combinations(self, result_c):
        # c1 = {(a1,a2)}, c2 = {(b1,b2,b3)}, c3 = both.
        assert len(result_c.combinations) == 3
        costs = sorted(c.cost for c in result_c.combinations)
        assert costs == [20, 30, 50]

    def test_only_c3_unschedulable(self, result_c):
        assert len(result_c.unschedulable) == 1
        combo = result_c.unschedulable[0]
        assert combo.cost == 50
        chains = {seg.chain_name for seg in combo.segments}
        assert chains == {"sigma_a", "sigma_b"}

    def test_slack_is_34(self, result_c):
        # S* = min_q (delta(q) + D - L(q)) = 200 - 166 = 34 at q=1.
        assert result_c.min_slack == 34

    def test_n_b_is_1(self, result_c):
        assert result_c.n_b == 1

    def test_active_segments_whole_chains(self, result_c):
        # Overload chains have one active segment each (tail priority of
        # sigma_c is 1, below all overload priorities).
        assert [s.task_names for s in
                result_c.active_segments["sigma_a"]] == [
            ("tau_a^1", "tau_a^2")]
        assert [s.task_names for s in
                result_c.active_segments["sigma_b"]] == [
            ("tau_b^1", "tau_b^2", "tau_b^3")]


class TestTableII:
    def test_printed_parameters_dmm3(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        assert result.dmm(3) == 3

    def test_printed_parameters_staircase(self, figure4):
        """With the printed sporadic models the staircase transitions
        land at k=7 and k=10 (documented deviation, DESIGN.md §4)."""
        result = analyze_twca(figure4, figure4["sigma_c"])
        assert result.dmm(6) == 3
        assert result.dmm(7) == 4
        assert result.dmm(9) == 4
        assert result.dmm(10) == 5

    def test_calibrated_reproduces_table2_exactly(self, figure4_calibrated):
        result = analyze_twca(figure4_calibrated,
                              figure4_calibrated["sigma_c"])
        assert result.dmm(3) == 3
        assert result.dmm(76) == 4
        assert result.dmm(250) == 5

    def test_calibrated_transition_points(self, figure4_calibrated):
        result = analyze_twca(figure4_calibrated,
                              figure4_calibrated["sigma_c"])
        assert result.dmm(75) == 3
        assert result.dmm(249) == 4

    def test_omega_lemma4(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        # Omega = eta_plus(delta_plus(3) + 331) + 1 = eta(731) + 1 = 3.
        assert result.omega("sigma_a", 3) == 3
        assert result.omega("sigma_b", 3) == 3

    def test_dmm_monotone_in_k(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        values = [result.dmm(k) for k in range(1, 40)]
        assert values == sorted(values)

    def test_dmm_never_exceeds_k(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        for k in (1, 2, 3, 5, 8, 13):
            assert result.dmm(k) <= k

    def test_dmm_curve_helper(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        assert result.dmm_curve([3, 7]) == {3: 3, 7: 4}


class TestGuards:
    def test_overload_chain_not_analyzable(self, figure4):
        with pytest.raises(NotAnalyzable):
            analyze_twca(figure4, figure4["sigma_a"])

    def test_infinite_deadline_not_analyzable(self, figure1):
        # figure1 chains have deadlines; build one without.
        from repro import PeriodicModel, SystemBuilder
        system = (
            SystemBuilder("nodl")
            .chain("c", PeriodicModel(10))
            .task("c.t", priority=1, wcet=1)
            .build()
        )
        with pytest.raises(NotAnalyzable):
            analyze_twca(system, system["c"])

    def test_analyze_all_covers_typical_chains(self, figure4):
        results = analyze_all(figure4)
        assert set(results) == {"sigma_c", "sigma_d"}

    def test_backends_agree(self, figure4):
        # dmm and the cold path through every exact solver agree.
        result = analyze_twca(figure4, figure4["sigma_c"])
        assert result.dmm(3) == 3
        assert result.dmm(10) == 5
        solvers = [solve_dp] + ([solve_scipy] if scipy_available() else [])
        for solver in solvers:
            assert dmm_reference(result, 3, solver) == 3
            assert dmm_reference(result, 10, solver) == 5


class TestNoGuaranteePath:
    def test_typically_unschedulable_system(self):
        from repro import PeriodicModel, SporadicModel, SystemBuilder
        system = (
            SystemBuilder("doomed")
            .chain("victim", PeriodicModel(100), deadline=20)
            .task("victim.a", priority=1, wcet=30)
            .chain("isr", SporadicModel(1000), overload=True)
            .task("isr.t", priority=2, wcet=5)
            .build()
        )
        result = analyze_twca(system, system["victim"])
        assert result.status is GuaranteeStatus.NO_GUARANTEE
        assert result.dmm(10) == 10  # vacuous

    def test_vacuous_dmm_equals_k(self):
        from repro import PeriodicModel, SporadicModel, SystemBuilder
        system = (
            SystemBuilder("doomed")
            .chain("victim", PeriodicModel(100), deadline=20)
            .task("victim.a", priority=1, wcet=30)
            .chain("isr", SporadicModel(1000), overload=True)
            .task("isr.t", priority=2, wcet=5)
            .build()
        )
        result = analyze_twca(system, system["victim"])
        for k in (1, 5, 100):
            assert result.dmm(k) == k


class TestExplain:
    def test_explain_contains_key_facts(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_c"])
        text = result.explain((3, 10))
        assert "weakly-hard" in text
        assert "WCL = 331" in text
        assert "dmm(3) = 3" in text
        assert "Omega" in text

    def test_explain_schedulable(self, figure4):
        result = analyze_twca(figure4, figure4["sigma_d"])
        text = result.explain((10,))
        assert "schedulable" in text
        assert "dmm(10) = 0" in text
