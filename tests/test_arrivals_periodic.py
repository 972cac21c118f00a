"""Unit tests for the periodic event model."""

import math

import pytest

from repro.arrivals import PeriodicModel


class TestConstruction:
    def test_rejects_non_positive_period(self):
        with pytest.raises(ValueError):
            PeriodicModel(0)
        with pytest.raises(ValueError):
            PeriodicModel(-5)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError):
            PeriodicModel(10, jitter=-1)

    def test_rejects_min_distance_above_period(self):
        with pytest.raises(ValueError):
            PeriodicModel(10, min_distance=11)

    def test_rejects_jitter_ge_period_without_min_distance(self):
        with pytest.raises(ValueError):
            PeriodicModel(10, jitter=10)

    def test_jitter_ge_period_with_min_distance_allowed(self):
        model = PeriodicModel(10, jitter=25, min_distance=1)
        assert model.eta_plus(1) == 1

    def test_equality_and_hash(self):
        assert PeriodicModel(10) == PeriodicModel(10)
        assert PeriodicModel(10) != PeriodicModel(10, jitter=1)
        assert hash(PeriodicModel(10, 2, 1)) == hash(PeriodicModel(10, 2, 1))


class TestStrictlyPeriodic:
    def test_delta_minus_is_linear(self):
        model = PeriodicModel(200)
        assert [model.delta_minus(k) for k in range(6)] == [
            0, 0, 200, 400, 600, 800]

    def test_delta_plus_equals_delta_minus(self):
        model = PeriodicModel(200)
        for k in range(8):
            assert model.delta_plus(k) == model.delta_minus(k)

    def test_eta_plus_is_ceil(self):
        model = PeriodicModel(200)
        assert model.eta_plus(0) == 0
        assert model.eta_plus(1) == 1
        assert model.eta_plus(200) == 1
        assert model.eta_plus(201) == 2
        assert model.eta_plus(400) == 2
        assert model.eta_plus(401) == 3

    def test_eta_minus_is_floor(self):
        model = PeriodicModel(200)
        assert model.eta_minus(199) == 0
        assert model.eta_minus(200) == 1
        assert model.eta_minus(999) == 4

    def test_eta_plus_of_negative_window_is_zero(self):
        assert PeriodicModel(200).eta_plus(-3) == 0

    def test_eta_plus_of_infinite_window_raises(self):
        with pytest.raises(OverflowError):
            PeriodicModel(200).eta_plus(math.inf)

    def test_rate(self):
        assert PeriodicModel(200).rate() == pytest.approx(1 / 200)

    def test_validate_passes(self):
        PeriodicModel(200).validate()


class TestWithJitter:
    def test_delta_minus_shrinks_by_jitter(self):
        model = PeriodicModel(100, jitter=30)
        assert model.delta_minus(2) == 70
        assert model.delta_minus(3) == 170

    def test_delta_minus_never_negative(self):
        model = PeriodicModel(100, jitter=90)
        assert model.delta_minus(2) == 10

    def test_delta_plus_grows_by_jitter(self):
        model = PeriodicModel(100, jitter=30)
        assert model.delta_plus(2) == 130

    def test_eta_plus_includes_jitter(self):
        model = PeriodicModel(100, jitter=30)
        # ceil((dt + 30) / 100)
        assert model.eta_plus(1) == 1
        assert model.eta_plus(70) == 1
        assert model.eta_plus(71) == 2
        assert model.eta_plus(171) == 3

    def test_min_distance_caps_burst(self):
        model = PeriodicModel(100, jitter=250, min_distance=10)
        # Without the cap eta_plus(5) would be ceil(255/100) = 3; the
        # minimum distance only allows 1 event per started 10 units.
        assert model.eta_plus(5) == 1
        assert model.eta_plus(15) == 2

    def test_delta_minus_respects_min_distance_floor(self):
        model = PeriodicModel(100, jitter=250, min_distance=10)
        assert model.delta_minus(2) == 10
        assert model.delta_minus(3) == 20
        # At k = 4 the periodic term takes over: max(300 - 250, 30).
        assert model.delta_minus(4) == 50

    def test_validate_passes_with_jitter(self):
        PeriodicModel(100, jitter=30, min_distance=5).validate()


class TestDuality:
    @pytest.mark.parametrize("period,jitter,dmin", [
        (200, 0, 0), (100, 30, 0), (100, 90, 0), (100, 250, 10), (7, 3, 2),
    ])
    def test_eta_delta_duality(self, period, jitter, dmin):
        from oracles.curves import check_duality
        check_duality(PeriodicModel(period, jitter, dmin))

    def test_generic_eta_agrees_with_closed_form(self):
        from repro.arrivals.base import EventModel
        model = PeriodicModel(100, jitter=30)
        for dt in (1, 50, 70, 71, 100, 170, 171, 999):
            assert EventModel.eta_plus(model, dt) == model.eta_plus(dt)
