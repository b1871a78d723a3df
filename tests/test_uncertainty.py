"""Quantiles, robust margins, and EV-fleet statistics against scipy."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.stats as stats
from hypothesis import given, settings
from hypothesis import strategies as st

from gridxpand import (NormalApprox, RobustParams, binomial_normal_approx,
                       binomial_pmf, inverse_normal_cdf, normal_cdf,
                       omega_from_reliability, robust_margin)


class TestNormal:
    def test_cdf_matches_scipy(self):
        xs = np.linspace(-8.0, 8.0, 401)
        for x in xs:
            assert normal_cdf(float(x)) == pytest.approx(
                stats.norm.cdf(x), rel=1e-13, abs=1e-300)

    def test_quantile_matches_scipy(self):
        for p in (1e-10, 1e-6, 0.01, 0.02425, 0.3, 0.5, 0.8, 0.95,
                  0.975, 0.999):
            assert inverse_normal_cdf(p) == pytest.approx(
                stats.norm.ppf(p), rel=1e-12, abs=1e-12)

    def test_quantile_extreme_upper_tail(self):
        # Polishing against the CDF loses resolution where the CDF
        # saturates toward 1; a few 1e-10 absolute is the honest limit.
        assert inverse_normal_cdf(1 - 1e-9) == pytest.approx(
            stats.norm.ppf(1 - 1e-9), abs=5e-9)

    @given(st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
    @settings(max_examples=200)
    def test_quantile_round_trip(self, p):
        assert normal_cdf(inverse_normal_cdf(p)) == pytest.approx(
            p, rel=1e-11, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_quantile_domain(self, p):
        with pytest.raises(ValueError):
            inverse_normal_cdf(p)


class TestOmega:
    def test_standard_level(self):
        assert omega_from_reliability(0.05) == pytest.approx(
            1.6448536269514722, rel=1e-12)

    def test_definition(self):
        # Phi(omega) = 1 - R by construction.
        for r in (0.001, 0.01, 0.05, 0.2, 0.5):
            assert normal_cdf(omega_from_reliability(r)) == pytest.approx(
                1.0 - r, abs=1e-12)

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.2])
    def test_domain(self, r):
        with pytest.raises(ValueError):
            omega_from_reliability(r)


class TestRobustParams:
    def test_omega_derived(self):
        params = RobustParams(phi=0.05, mu=0.01, reliability=0.05)
        assert params.omega == pytest.approx(1.6448536269514722, rel=1e-12)

    @pytest.mark.parametrize("kwargs", [
        dict(phi=-0.1, mu=0.0, reliability=0.05),
        dict(phi=0.0, mu=-0.1, reliability=0.05),
        dict(phi=0.0, mu=0.0, reliability=0.0),
        dict(phi=0.0, mu=0.0, reliability=0.9),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RobustParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field_name", ["phi", "mu", "reliability"])
    def test_rejects_nonfinite_values(self, field_name, value):
        kwargs = dict(phi=0.05, mu=0.01, reliability=0.05)
        kwargs[field_name] = value
        with pytest.raises(ValueError, match=field_name):
            RobustParams(**kwargs)

    def test_zero_protection_allowed(self):
        params = RobustParams(phi=0.0, mu=0.0, reliability=0.05)
        assert robust_margin(123.0, params) == (0.0, 0.0)


class TestRobustMargin:
    def test_reference_values(self):
        params = RobustParams(phi=0.05, mu=0.01, reliability=0.05)
        tighten, relax = robust_margin(90.0, params)
        assert tighten == pytest.approx(0.05 * params.omega * 90.0, rel=1e-12)
        assert tighten == pytest.approx(7.40184, abs=5e-6)
        assert relax == pytest.approx(0.9, rel=1e-12)

    def test_unit_floor_on_relax(self):
        params = RobustParams(phi=0.05, mu=0.01, reliability=0.05)
        _, relax = robust_margin(0.5, params)
        assert relax == pytest.approx(0.01)
        _, relax = robust_margin(-0.25, params)
        assert relax == pytest.approx(0.01)

    def test_tighten_is_signed(self):
        params = RobustParams(phi=0.1, mu=0.0, reliability=0.05)
        tighten, _ = robust_margin(-40.0, params)
        assert tighten < 0.0

    @given(st.floats(min_value=-1e4, max_value=1e4),
           st.floats(min_value=0.0, max_value=0.3))
    @settings(max_examples=100)
    def test_margin_scales_linearly_in_phi(self, forecast, phi):
        base = RobustParams(phi=1.0, mu=0.02, reliability=0.05)
        scaled = RobustParams(phi=phi, mu=0.02, reliability=0.05)
        t1, r1 = robust_margin(forecast, base)
        t2, r2 = robust_margin(forecast, scaled)
        assert t2 == pytest.approx(phi * t1, rel=1e-9, abs=1e-12)
        assert r2 == r1


class TestBinomialPmf:
    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(0, 200))
            x = int(rng.integers(0, n + 1))
            rho = float(rng.uniform(0.0, 1.0))
            assert binomial_pmf(n, x, rho) == pytest.approx(
                stats.binom.pmf(x, n, rho), rel=1e-10, abs=1e-300)

    @given(st.integers(min_value=0, max_value=80),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80)
    def test_normalization(self, n, rho):
        total = sum(binomial_pmf(n, x, rho) for x in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=60),
           st.integers(min_value=0, max_value=64))
    @settings(max_examples=80)
    def test_mirror_identity(self, n, sixtyfourths):
        # Dyadic rho keeps 1 - rho exact, where the identity is exact too.
        rho = sixtyfourths / 64.0
        for x in range(n + 1):
            assert binomial_pmf(n, x, rho) == pytest.approx(
                binomial_pmf(n, n - x, 1.0 - rho), rel=1e-12, abs=1e-300)

    def test_degenerate_probabilities(self):
        assert binomial_pmf(5, 0, 0.0) == 1.0
        assert binomial_pmf(5, 3, 0.0) == 0.0
        assert binomial_pmf(5, 5, 1.0) == 1.0
        assert binomial_pmf(5, 2, 1.0) == 0.0

    def test_large_fleet_does_not_overflow(self):
        value = binomial_pmf(500, 250, 0.5)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(stats.binom.pmf(250, 500, 0.5), rel=1e-10)

    @pytest.mark.parametrize("args", [(-1, 0, 0.5), (5, 6, 0.5), (5, -1, 0.5),
                                      (5, 2, -0.1), (5, 2, 1.1)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            binomial_pmf(*args)


class TestNormalApprox:
    def test_moments(self):
        approx = binomial_normal_approx(400, 0.3)
        assert approx.mean == pytest.approx(120.0)
        assert approx.std_dev == pytest.approx(math.sqrt(400 * 0.3 * 0.7))

    def test_degenerate_has_no_density(self):
        # A certain (rho in {0, 1}) fleet collapses to a point mass: no spread.
        for rho, mean in ((0.0, 0.0), (1.0, 10.0)):
            approx = binomial_normal_approx(10, rho)
            assert approx.std_dev == 0.0
            assert approx.mean == pytest.approx(mean)

    def test_rejects_negative_spread(self):
        with pytest.raises(ValueError):
            NormalApprox(mean=0.0, std_dev=-1.0)

    @pytest.mark.parametrize("spread", [math.nan, math.inf])
    def test_rejects_nonfinite_spread(self, spread):
        with pytest.raises(ValueError, match="std_dev"):
            NormalApprox(mean=0.0, std_dev=spread)

    @pytest.mark.parametrize("args", [(-1, 0.5), (10, -0.1), (10, 1.1)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            binomial_normal_approx(*args)
