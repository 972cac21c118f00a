"""Unit tests for sporadic and bursty-sporadic event models."""

import math

import pytest

from repro.arrivals import SporadicBurstModel, SporadicModel


class TestSporadic:
    def test_rejects_non_positive_distance(self):
        with pytest.raises(ValueError):
            SporadicModel(0)

    def test_delta_minus_linear(self):
        model = SporadicModel(600)
        assert [model.delta_minus(k) for k in range(5)] == [
            0, 0, 600, 1200, 1800]

    def test_delta_plus_infinite(self):
        model = SporadicModel(600)
        assert model.delta_plus(2) == math.inf
        assert model.delta_plus(1) == 0

    def test_eta_plus(self):
        model = SporadicModel(700)
        assert model.eta_plus(700) == 1
        assert model.eta_plus(701) == 2
        assert model.eta_plus(731) == 2  # the Table II k=3 window
        assert model.eta_plus(1401) == 3

    def test_eta_minus_is_zero(self):
        model = SporadicModel(700)
        assert model.eta_minus(10_000) == 0

    def test_rate(self):
        assert SporadicModel(500).rate() == pytest.approx(1 / 500)

    def test_validate_passes(self):
        SporadicModel(600).validate()

    def test_equality(self):
        assert SporadicModel(600) == SporadicModel(600)
        assert SporadicModel(600) != SporadicModel(700)


class TestSporadicBurst:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SporadicBurstModel(0, 2, 100)
        with pytest.raises(ValueError):
            SporadicBurstModel(10, 0, 100)
        with pytest.raises(ValueError):
            SporadicBurstModel(10, 5, 40)  # outer < burst * inner

    def test_delta_minus_two_level(self):
        model = SporadicBurstModel(inner_distance=10, burst=3,
                                   outer_distance=100)
        # Events 1..3 are one burst (inner spacing), event 4 starts the
        # next burst after the outer distance.
        assert model.delta_minus(2) == 10
        assert model.delta_minus(3) == 20
        assert model.delta_minus(4) == 100
        assert model.delta_minus(5) == 110
        assert model.delta_minus(7) == 200

    def test_eta_plus_sees_bursts(self):
        model = SporadicBurstModel(inner_distance=10, burst=3,
                                   outer_distance=100)
        assert model.eta_plus(21) == 3
        assert model.eta_plus(100) == 3
        assert model.eta_plus(101) == 4

    def test_rate_is_burst_over_outer(self):
        model = SporadicBurstModel(10, 3, 100)
        assert model.rate() == pytest.approx(0.03)

    def test_validate_passes(self):
        SporadicBurstModel(10, 3, 100).validate()

    def test_duality(self):
        from oracles.curves import check_duality
        check_duality(SporadicBurstModel(10, 3, 100))
        check_duality(SporadicModel(600))

    def test_burst_of_one_is_plain_sporadic(self):
        burst = SporadicBurstModel(5, 1, 50)
        plain = SporadicModel(50)
        for k in range(8):
            assert burst.delta_minus(k) == plain.delta_minus(k)
