"""Coverage probability bounds, sample-count inversion, reach constant."""

import math

import numpy as np
import pytest

from covergeo import (
    CoverageBound,
    bound_U_minus_A,
    bound_flatnorm,
    bound_reach,
    bound_regions,
    invert_for_N,
    reach_constant,
)
from covergeo.errors import CovergeoError, RemovedSetTooLarge, SymDiffTooLarge

from oracles import reach_constant_scan


class TestCoverageBound:
    def test_reach_rate(self):
        b = bound_reach(88, 2, 8.0, 3209.0)
        assert b.rates == ((88.0, pytest.approx(64.0 / (2 * 3209.0))),)
        assert b.evaluate(1000) == pytest.approx(0.9958911704219835, abs=1e-12)

    def test_clamped_at_zero(self):
        b = bound_reach(88, 2, 8.0, 3209.0)
        assert b.evaluate(100) == 0.0
        assert b.evaluate_raw(100) == pytest.approx(-31.464313065607314, abs=1e-9)

    def test_monotone_in_samples(self):
        b = bound_reach(31, 2, 12.0, 3209.0)
        grid = np.linspace(1, 5000, 200)
        vals = [b.evaluate_raw(n) for n in grid]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))

    def test_underflow_is_exact_one(self):
        b = bound_reach(88, 2, 8.0, 3209.0)
        n_uf = math.ceil(745.0 / b.rates[0][1])
        assert b.underflows_at(n_uf)
        assert b.evaluate(n_uf) == 1.0
        d = b.describe(n_uf)
        assert d["underflow"] is True and d["value"] == 1.0
        assert not b.underflows_at(n_uf - 1000)

    def test_describe_fields(self):
        b = bound_reach(10, 2, 6.0, 500.0)
        d = b.describe(200)
        assert set(d) == {"kind", "N", "value", "raw", "underflow"}
        assert d["kind"] == "reach"

    def test_three_dimensional_coefficient(self):
        b = bound_reach(5, 3, 4.0, 1000.0)
        # delta^3 / 3^(3/2) / |E|
        assert b.rates[0][1] == pytest.approx(64.0 / (3**1.5 * 1000.0))

    def test_bad_dimension(self):
        with pytest.raises(CovergeoError):
            bound_reach(5, 4, 4.0, 1000.0)

    def test_positivity_checks(self):
        with pytest.raises(CovergeoError):
            bound_reach(0, 2, 4.0, 1000.0)
        with pytest.raises(CovergeoError):
            bound_reach(5, 2, -1.0, 1000.0)


class TestBoundRegions:
    def test_one_rate_per_region(self):
        measures = [25.0, 30.0, 45.0]
        b = bound_regions(measures, 100.0)
        assert len(b.rates) == 3
        assert b.rates[0] == (1.0, pytest.approx(0.25))

    def test_tighter_than_uniform_floor(self):
        # per-region rates dominate the all-regions-at-the-minimum bound
        measures = [25.0, 30.0, 45.0]
        b = bound_regions(measures, 100.0)
        floor = min(measures) / 100.0
        for n in (10, 50, 200):
            uniform = 1 - len(measures) * math.exp(-floor * n)
            assert b.evaluate_raw(n) >= uniform - 1e-12

    def test_measures_must_fit(self):
        with pytest.raises(CovergeoError):
            bound_regions([60.0, 60.0], 100.0)


class TestBoundUMinusA:
    def test_reduced_floor(self):
        b = bound_U_minus_A(82, 2, 8.0, 16.0, 3193.0)
        assert b.rates[0][1] == pytest.approx((32.0 - 16.0) / 3193.0)
        assert b.rates[0][0] == 82.0

    def test_rejects_large_removed_set(self):
        with pytest.raises(RemovedSetTooLarge, match=r"32\.0"):
            bound_U_minus_A(82, 2, 8.0, 32.0, 3193.0)

    def test_boundary_exact(self):
        # exactly at delta^2/2 the floor is zero: rejected
        with pytest.raises(RemovedSetTooLarge):
            bound_U_minus_A(10, 2, 10.0, 50.0, 1000.0)
        b = bound_U_minus_A(10, 2, 10.0, 49.999, 1000.0)
        assert b.rates[0][1] > 0


class TestBoundFlatnorm:
    def test_accepts_small_residual(self):
        b = bound_flatnorm(1289, 4.5, 4.0, 12829.0)
        assert b.kind == "flatnorm-almost"
        assert b.rates[0][1] == pytest.approx((4.5**2 / 2 - 4.0) / 12829.0)

    def test_rejects_large_residual(self):
        with pytest.raises(SymDiffTooLarge):
            bound_flatnorm(100, 4.5, 10.2, 12829.0)  # 10.2 >= 4.5^2/2


class TestInvertForN:
    def test_frozen_examples(self):
        b = bound_reach(88, 2, 8.0, 3209.0)
        assert invert_for_N(b, 0.5) == 519
        assert invert_for_N(b, 0.95) == 750
        assert invert_for_N(b, 0.99) == 911

    def test_exact_minimality(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            m = int(rng.integers(1, 500))
            delta = float(rng.uniform(1.0, 20.0))
            measure = float(rng.uniform(delta**2, 1e5))
            p = float(rng.uniform(0.01, 0.999))
            b = bound_reach(m, 2, delta, measure)
            n = invert_for_N(b, p)
            assert b.evaluate(n) >= p
            assert n == 1 or b.evaluate(n - 1) < p

    def test_closed_form_agreement(self):
        # N = ceil(log(M / (1-p)) / coef) up to the integer boundary
        b = bound_reach(88, 2, 8.0, 3209.0)
        coef = b.rates[0][1]
        n_formula = math.ceil(math.log(88 / 0.05) / coef)
        assert abs(invert_for_N(b, 0.95) - n_formula) <= 1

    def test_unreachable_target_raises(self):
        # coefficient 5e-201: no N up to 2^62 lifts the bound off zero
        b = bound_reach(1, 2, 1e-100, 1.0)
        assert b.rates[0][1] == pytest.approx(5e-201)
        with pytest.raises(CovergeoError, match="failed to reach the target"):
            invert_for_N(b, 0.95)

    def test_target_validation(self):
        b = bound_reach(1, 2, 4.0, 100.0)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(CovergeoError):
                invert_for_N(b, bad)


class TestReachConstant:
    def test_frozen_values(self):
        rc = reach_constant()
        assert rc.c_hat == pytest.approx(0.2217, abs=5e-4)
        assert rc.theta_star == pytest.approx(5.231, abs=5e-3)

    def test_tight_frozen_values(self):
        rc = reach_constant()
        assert rc.c_hat == pytest.approx(0.22170223348545184, abs=1e-9)
        assert rc.theta_star == pytest.approx(5.231180305239908, abs=1e-9)

    def test_is_the_max_of_the_profile(self):
        rc = reach_constant()
        thetas = np.array([t for t, _ in rc.profile])
        vals = np.array([v for _, v in rc.profile])
        assert vals.max() <= rc.c_hat + 1e-9
        assert thetas.min() > 3 * math.pi / 2 and thetas.max() < 2 * math.pi

    def test_profile_formula(self):
        rc = reach_constant()
        for theta, val in rc.profile[:: max(1, len(rc.profile) // 40)]:
            c, s = math.cos(theta), math.sin(theta)
            expected = (2 * c - (1 + s) * (c + 2)) / (2 * (c + 1))
            assert val == pytest.approx(expected, abs=1e-12)

    def test_numpy_scan_equals_the_math_scan(self):
        # the same thetas, the same profile values at the same argmax, and so
        # the same refinement: every field is == to the one-at-a-time scan
        rc = reach_constant()
        c_hat, theta_star, profile = reach_constant_scan()
        assert rc.c_hat == c_hat
        assert rc.theta_star == theta_star
        assert rc.profile == profile
        assert all(type(x) is float for pair in rc.profile for x in pair)

    def test_runtime(self):
        import time

        reach_constant.cache_clear()
        t0 = time.perf_counter()
        reach_constant()
        assert time.perf_counter() - t0 < 1.0

    def test_computed_once_per_process(self):
        rc = reach_constant()
        assert reach_constant() is rc
        # frozen, with a tuple profile: no caller can change the cached value
        with pytest.raises(AttributeError):
            rc.c_hat = 0.0
        assert isinstance(rc.profile, tuple)
