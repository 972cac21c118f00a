"""Tests for the DeadlineMissModel wrapper."""

import pytest

from repro import DeadlineMissModel
from repro.analysis.dmm import dominates


class TestBasics:
    def test_clamps_to_window(self):
        model = DeadlineMissModel(lambda k: 999)
        assert model(5) == 5

    def test_clamps_negative_to_zero(self):
        model = DeadlineMissModel(lambda k: -3)
        assert model(5) == 0

    def test_rejects_k_below_one(self):
        model = DeadlineMissModel(lambda k: 0)
        with pytest.raises(ValueError):
            model(0)

    def test_memoizes(self):
        calls = []

        def evaluator(k):
            calls.append(k)
            return 1

        model = DeadlineMissModel(evaluator)
        model(4)
        model(4)
        assert calls == [4]


class TestFromTable:
    def test_steps_between_samples(self):
        model = DeadlineMissModel.from_table({3: 3, 76: 4, 250: 5})
        assert model(3) == 3
        assert model(50) == 3
        assert model(76) == 4
        assert model(249) == 4
        assert model(250) == 5
        assert model(1000) == 5

    def test_below_first_sample_is_zero_clamped(self):
        model = DeadlineMissModel.from_table({5: 2})
        assert model(1) == 0
        assert model(2) == 0

    def test_bisect_matches_linear_interpolation(self):
        table = {3: 1, 9: 2, 27: 5, 81: 13, 243: 40}
        model = DeadlineMissModel.from_table(table)
        samples = sorted(table.items())
        for k in range(1, 300):
            expected = 0
            for sample_k, misses in samples:
                if sample_k <= k:
                    expected = misses
            assert model(k) == min(k, expected)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            DeadlineMissModel.from_table({})


class TestQueries:
    def _model(self):
        return DeadlineMissModel.from_table({1: 1, 3: 3, 7: 4, 10: 5})

    def test_any_n_in_m(self):
        model = self._model()
        assert model.satisfies_any_n_in_m(5, 10)
        assert not model.satisfies_any_n_in_m(4, 10)

    def test_m_k_firm(self):
        model = self._model()
        # dmm(10) = 5 -> at least 5 of 10 met.
        assert model.satisfies_m_k(5, 10)
        assert not model.satisfies_m_k(6, 10)

    def test_invalid_constraints_rejected(self):
        model = self._model()
        with pytest.raises(ValueError):
            model.satisfies_any_n_in_m(5, 4)
        with pytest.raises(ValueError):
            model.satisfies_m_k(11, 10)

    def test_miss_ratio(self):
        assert self._model().miss_ratio_bound(10) == pytest.approx(0.5)

    def test_first_violation(self):
        model = self._model()
        assert model.first_violation(0) == 1
        assert model.first_violation(3) == 7
        assert model.first_violation(5, k_max=50) is None

    def test_first_violation_bisect_matches_linear_scan(self):
        """The binary search over the staircase must agree with the
        historic linear scan for every threshold."""
        model = self._model()

        def linear(n, k_max=10_000):
            for k in range(1, k_max + 1):
                if model(k) > n:
                    return k
            return None

        for n in range(0, 8):
            assert model.first_violation(n) == linear(n)

    def test_first_violation_probes_log_many_points(self):
        calls = []

        def evaluator(k):
            calls.append(k)
            return k // 1000  # non-decreasing staircase

        model = DeadlineMissModel(evaluator)
        assert model.first_violation(3, k_max=100_000) == 4000
        assert len(set(calls)) < 40  # O(log answer), not O(k_max)

    def test_first_violation_early_answer_never_probes_far(self):
        """An early violation must be found without probing large k —
        evaluators can be expensive (or undefined) far out."""

        def evaluator(k):
            if k > 100:
                raise RuntimeError("probed past the violation")
            return k

        model = DeadlineMissModel(evaluator)
        assert model.first_violation(0) == 1
        assert model.first_violation(7, k_max=100_000) == 8

    def test_transitions(self):
        model = self._model()
        assert model.transitions(12) == [(1, 1), (3, 3), (7, 4), (10, 5)]

    def test_table(self):
        model = self._model()
        assert model.table([1, 3, 10]) == {1: 1, 3: 3, 10: 5}


class TestDominates:
    def test_dominance(self):
        tight = DeadlineMissModel.from_table({10: 2})
        loose = DeadlineMissModel.from_table({10: 5})
        ks = [1, 5, 10, 20]
        assert dominates(tight, loose, ks)
        assert not dominates(loose, tight, ks)


class TestAnalysisAdapter:
    def test_wraps_twca_result(self, figure4):
        from repro import analyze_twca
        result = analyze_twca(figure4, figure4["sigma_c"])
        model = DeadlineMissModel(result.dmm, name="sigma_c")
        assert model(3) == 3
        assert model.satisfies_m_k(0, 3)
        assert not model.satisfies_m_k(1, 3)

    def test_from_result_adapter(self, figure4):
        from repro import analyze_twca
        result = analyze_twca(figure4, figure4["sigma_c"])
        model = DeadlineMissModel.from_result(result)
        assert model.name == "dmm[sigma_c]"
        assert model.source == "twca"
        assert model.table([1, 3, 10]) == result.dmm_curve([1, 3, 10])
        # The adapter's queries run through the result's packing memo.
        assert result.packing_stats().get("resolves", 0) > 0
