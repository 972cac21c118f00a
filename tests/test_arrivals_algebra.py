"""Unit tests for curve combinators and checks."""


import pytest
from oracles.curves import check_duality, superadditive_closure_defect

from repro.arrivals import PeriodicModel, SporadicModel
from repro.arrivals.algebra import scaled, tightest


class TestScaled:
    def test_stretches_distances(self):
        model = scaled(SporadicModel(100), 3)
        assert model.delta_minus(2) == 300
        assert model.delta_minus(4) == 900

    def test_compresses_with_factor_below_one(self):
        model = scaled(PeriodicModel(100), 0.5)
        assert model.delta_minus(3) == 100

    def test_rejects_non_positive_factor(self):
        with pytest.raises(ValueError):
            scaled(SporadicModel(100), 0)

    def test_eta_follows(self):
        model = scaled(SporadicModel(100), 2)
        assert model.eta_plus(200) == 1
        assert model.eta_plus(201) == 2

    def test_scaled_duality(self):
        check_duality(scaled(PeriodicModel(50, jitter=20), 1.5))


class TestTightest:
    def test_takes_max_of_delta_minus(self):
        combined = tightest(SporadicModel(100), SporadicModel(250))
        assert combined.delta_minus(2) == 250

    def test_takes_min_of_delta_plus(self):
        combined = tightest(PeriodicModel(100), SporadicModel(50))
        assert combined.delta_plus(2) == 100  # sporadic would be inf

    def test_tightest_with_self_is_identity(self):
        model = PeriodicModel(100, jitter=10)
        combined = tightest(model, model)
        for k in range(6):
            assert combined.delta_minus(k) == model.delta_minus(k)
            assert combined.delta_plus(k) == model.delta_plus(k)


class TestSuperadditivity:
    def test_periodic_is_superadditive(self):
        assert superadditive_closure_defect(PeriodicModel(100)) == 0.0

    def test_sporadic_is_superadditive(self):
        assert superadditive_closure_defect(SporadicModel(70)) == 0.0

    def test_jittery_model_has_defect(self):
        # delta(2) = 10, delta(3) = 110: gluing two 2-windows promises
        # 2 * 10 = 20 > delta(3)?  No — 110 > 20, no defect.  A defect
        # needs delta to *flatten*: craft one with ArrivalCurve.
        from repro.arrivals import ArrivalCurve
        flat = ArrivalCurve([0, 0, 100, 101], tail_distance=1)
        # delta(3)=101 < delta(2)+delta(2)=200 -> defect 99.
        assert superadditive_closure_defect(flat) == pytest.approx(99)


class TestCheckDuality:
    def test_accepts_well_formed(self):
        check_duality(PeriodicModel(100))
        check_duality(SporadicModel(60))

    def test_rejects_broken_eta(self):
        class Broken(PeriodicModel):
            def eta_plus(self, dt):
                return super().eta_plus(dt) + 2  # over-counts

        with pytest.raises(AssertionError):
            check_duality(Broken(100))
