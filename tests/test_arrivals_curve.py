"""Unit tests for explicit staircase arrival curves."""

import math

import pytest

from repro.arrivals import ArrivalCurve
from repro.synth import calibrated_overload_curves


class TestConstruction:
    def test_requires_zero_prefix(self):
        with pytest.raises(ValueError):
            ArrivalCurve([0, 5, 10])
        with pytest.raises(ValueError):
            ArrivalCurve([1, 0, 10])
        with pytest.raises(ValueError):
            ArrivalCurve([0])

    def test_rejects_decreasing_points(self):
        with pytest.raises(ValueError):
            ArrivalCurve([0, 0, 100, 50])

    def test_rejects_zero_tail_with_points(self):
        with pytest.raises(ValueError):
            ArrivalCurve([0, 0, 100], tail_distance=0)

    def test_rejects_inconsistent_delta_plus(self):
        with pytest.raises(ValueError):
            ArrivalCurve([0, 0, 100], delta_max_points=[0, 0, 50])

    def test_default_tail_is_last_increment(self):
        curve = ArrivalCurve([0, 0, 100, 250])
        assert curve.tail_distance == 150


class TestEvaluation:
    def test_stored_prefix(self):
        curve = ArrivalCurve([0, 0, 700, 15_200, 50_000])
        assert curve.delta_minus(2) == 700
        assert curve.delta_minus(3) == 15_200
        assert curve.delta_minus(4) == 50_000

    def test_extrapolation(self):
        curve = ArrivalCurve([0, 0, 100], tail_distance=40)
        assert curve.delta_minus(3) == 140
        assert curve.delta_minus(5) == 220

    def test_delta_plus_defaults_to_infinity(self):
        curve = ArrivalCurve([0, 0, 100])
        assert curve.delta_plus(2) == math.inf

    def test_explicit_delta_plus(self):
        curve = ArrivalCurve([0, 0, 100],
                             delta_max_points=[0, 0, 300, 700])
        assert curve.delta_plus(2) == 300
        assert curve.delta_plus(3) == 700
        assert curve.delta_plus(4) == math.inf

    def test_eta_plus_from_staircase(self):
        curve = ArrivalCurve([0, 0, 700, 15_200, 50_000])
        assert curve.eta_plus(700) == 1
        assert curve.eta_plus(701) == 2
        assert curve.eta_plus(15_200) == 2
        assert curve.eta_plus(15_201) == 3
        assert curve.eta_plus(50_001) == 4

    def test_validate_passes(self):
        ArrivalCurve([0, 0, 700, 15_200, 50_000]).validate()

    def test_duality(self):
        from oracles.curves import check_duality
        check_duality(ArrivalCurve([0, 0, 700, 15_200, 50_000]))


class TestFromTrace:
    def test_simple_periodic_trace(self):
        curve = ArrivalCurve.from_trace([0, 100, 200, 300, 400])
        assert curve.delta_minus(2) == 100
        assert curve.delta_minus(3) == 200
        assert curve.delta_plus(2) == 100

    def test_bursty_trace(self):
        # Two bursts of two close events.
        curve = ArrivalCurve.from_trace([0, 10, 500, 510])
        assert curve.delta_minus(2) == 10
        assert curve.delta_minus(3) == 500
        assert curve.delta_plus(2) == 490

    def test_trace_needs_two_events(self):
        with pytest.raises(ValueError):
            ArrivalCurve.from_trace([5])

    def test_unsorted_trace_is_sorted(self):
        curve = ArrivalCurve.from_trace([400, 0, 200, 100, 300])
        assert curve.delta_minus(2) == 100


class TestCalibratedCurves:
    """The Table II calibration (DESIGN.md §4)."""

    def test_keeps_printed_delta2(self):
        curves = calibrated_overload_curves()
        assert curves["sigma_a"].delta_minus(2) == 700
        assert curves["sigma_b"].delta_minus(2) == 600

    def test_transition_windows(self):
        # Omega = eta_plus(200 (k-1) + 331) + 1 must step exactly at
        # k = 76 and k = 250.
        for curve in calibrated_overload_curves().values():
            assert curve.eta_plus(200 * 74 + 331) == 2   # k = 75
            assert curve.eta_plus(200 * 75 + 331) == 3   # k = 76
            assert curve.eta_plus(200 * 248 + 331) == 3  # k = 249
            assert curve.eta_plus(200 * 249 + 331) == 4  # k = 250

    def test_curves_are_superadditive(self):
        from oracles.curves import superadditive_closure_defect
        for curve in calibrated_overload_curves().values():
            assert superadditive_closure_defect(curve, up_to=6) == 0.0
