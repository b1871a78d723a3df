"""Conductor heat-balance physics against closed forms and scipy roots."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize as sopt
from hypothesis import given, settings
from hypothesis import strategies as st

from gridxpand import (WeatherRecord, ampacity, convection_coefficients,
                       heat_balance_breakdown, line_convection,
                       radiation_log_fit, radiation_loss, reynolds_number,
                       steady_state_temperature)
from gridxpand.thermal import TEMPERATURE_CAP, forced_convection
from support import DEFAULT_CONDUCTOR, DEFAULT_WEATHER

R_PER_M = 2.0e-4     # ohm/m at the temperature ceiling


class TestReynolds:
    def test_reference_conditions(self):
        re = reynolds_number(0.035, 2.23, 1.293, 1.81e-5)
        assert re == pytest.approx(0.035 * 2.23 * 1.293 / 1.81e-5, rel=1e-14)
        assert re == pytest.approx(5575.6, rel=1e-3)

    def test_still_air(self):
        assert reynolds_number(0.035, 0.0, 1.293, 1.81e-5) == 0.0

    @pytest.mark.parametrize("args", [(0.0, 1.0, 1.0, 1.0),
                                      (1.0, -1.0, 1.0, 1.0),
                                      (1.0, 1.0, 0.0, 1.0),
                                      (1.0, 1.0, 1.0, 0.0)])
    def test_domain(self, args):
        with pytest.raises(ValueError):
            reynolds_number(*args)


class TestConvectionCoefficients:
    def test_reference_conditions(self):
        coeffs = convection_coefficients(1.0, 5575.616022099448, 0.028)
        assert coeffs.k_prime == pytest.approx(
            (1.01 + 1.35 * 5575.616022099448 ** 0.52) * 0.028, rel=1e-14)
        assert coeffs.k_double_prime == pytest.approx(
            0.754 * 5575.616022099448 ** 0.5 * 0.028, rel=1e-14)
        assert coeffs.k_prime == pytest.approx(3.38229, abs=1e-5)
        assert coeffs.k_double_prime == pytest.approx(1.57643, abs=1e-5)
        assert coeffs.governing == coeffs.k_prime

    def test_low_reynolds_branch_always_governs(self):
        # 1.01 + 1.35*Re^0.52 > 0.754*Re^0.5 for every Re >= 0, so the
        # k'' branch can never carry the heat with the shipped correlations.
        for re in (0.0, 1.0, 100.0, 1e4, 1e7, 1e12):
            coeffs = convection_coefficients(1.0, re, 0.028)
            assert coeffs.governing == coeffs.k_prime
            assert coeffs.k_prime > coeffs.k_double_prime

    def test_line_convection_composes(self):
        coeffs = line_convection(DEFAULT_CONDUCTOR, DEFAULT_WEATHER)
        re = reynolds_number(DEFAULT_CONDUCTOR.diameter,
                             DEFAULT_WEATHER.wind_speed,
                             DEFAULT_CONDUCTOR.air_density,
                             DEFAULT_CONDUCTOR.air_viscosity)
        want = convection_coefficients(DEFAULT_CONDUCTOR.wind_angle_coeff, re,
                                       DEFAULT_CONDUCTOR.thermal_conductivity)
        assert coeffs == want

    def test_domain(self):
        with pytest.raises(ValueError):
            convection_coefficients(0.0, 100.0, 0.028)
        with pytest.raises(ValueError):
            convection_coefficients(1.0, -1.0, 0.028)


class TestLossTerms:
    def test_radiation_reference_value(self):
        value = radiation_loss(0.75, 2.5e-9, 373.0, 298.0)
        assert value == pytest.approx(0.75 * 2.5e-9 * (373.0 ** 4 - 298.0 ** 4),
                                      rel=1e-14)
        assert value == pytest.approx(21.507, rel=1e-3)

    def test_radiation_vanishes_at_ambient(self):
        assert radiation_loss(0.75, 2.5e-9, 298.0, 298.0) == 0.0

    def test_forced_convection_is_linear(self):
        assert forced_convection(3.5, 350.0, 300.0) == pytest.approx(175.0)

    def test_below_ambient_rejected(self):
        with pytest.raises(ValueError, match="below ambient"):
            radiation_loss(0.75, 2.5e-9, 290.0, 298.0)
        with pytest.raises(ValueError, match="below ambient"):
            forced_convection(3.5, 290.0, 298.0)


class TestSteadyState:
    def test_matches_scipy_root(self):
        coeffs = line_convection(DEFAULT_CONDUCTOR, DEFAULT_WEATHER)
        k = coeffs.governing
        eps_kr = (DEFAULT_CONDUCTOR.emissivity
                  * DEFAULT_WEATHER.radiation_coeff)
        for current in (0.0, 200.0, 600.0, 1100.0):
            gain = current * current * R_PER_M + DEFAULT_WEATHER.solar_gain

            def balance(t):
                return (k * (t - 298.0) + eps_kr * (t ** 4 - 298.0 ** 4)
                        - gain)

            want = sopt.brentq(balance, 298.0, TEMPERATURE_CAP, xtol=1e-10)
            got = steady_state_temperature(current, DEFAULT_WEATHER,
                                           DEFAULT_CONDUCTOR, R_PER_M)
            assert got == pytest.approx(want, abs=1e-5)

    def test_no_gain_sits_at_ambient(self):
        weather = dataclasses.replace(DEFAULT_WEATHER, solar_gain=0.0)
        assert steady_state_temperature(0.0, weather, DEFAULT_CONDUCTOR,
                                        R_PER_M) == 298.0

    def test_runaway_current_rejected(self):
        with pytest.raises(ValueError, match="no steady state"):
            steady_state_temperature(1e6, DEFAULT_WEATHER, DEFAULT_CONDUCTOR,
                                     R_PER_M)

    def test_domain(self):
        with pytest.raises(ValueError):
            steady_state_temperature(-1.0, DEFAULT_WEATHER,
                                     DEFAULT_CONDUCTOR, R_PER_M)
        with pytest.raises(ValueError):
            steady_state_temperature(10.0, DEFAULT_WEATHER,
                                     DEFAULT_CONDUCTOR, 0.0)

    @given(st.floats(min_value=0.0, max_value=1200.0),
           st.floats(min_value=1.0, max_value=300.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_current(self, current, extra):
        t1 = steady_state_temperature(current, DEFAULT_WEATHER,
                                      DEFAULT_CONDUCTOR, R_PER_M)
        t2 = steady_state_temperature(current + extra, DEFAULT_WEATHER,
                                      DEFAULT_CONDUCTOR, R_PER_M)
        assert t2 > t1


class TestAmpacity:
    def test_reference_value(self):
        amp = ampacity(373.0, DEFAULT_WEATHER, DEFAULT_CONDUCTOR, R_PER_M)
        assert amp == pytest.approx(1142.58, abs=0.01)

    def test_round_trip(self):
        for ambient in (278.0, 298.0, 313.0):
            for wind in (0.5, 2.23, 5.0):
                weather = WeatherRecord(ambient, wind, 14.08, 2.5e-9)
                amp = ampacity(373.0, weather, DEFAULT_CONDUCTOR, R_PER_M)
                back = steady_state_temperature(amp, weather,
                                                DEFAULT_CONDUCTOR, R_PER_M)
                assert back == pytest.approx(373.0, abs=1e-4)

    def test_solar_overwhelm_gives_zero(self):
        weather = dataclasses.replace(DEFAULT_WEATHER, solar_gain=1e4)
        assert ampacity(300.0, weather, DEFAULT_CONDUCTOR, R_PER_M) == 0.0

    def test_monotone_in_ceiling(self):
        amps = [ampacity(t, DEFAULT_WEATHER, DEFAULT_CONDUCTOR, R_PER_M)
                for t in (330.0, 350.0, 373.0, 400.0)]
        assert amps == sorted(amps)
        assert amps[0] < amps[-1]

    def test_domain(self):
        with pytest.raises(ValueError):
            ampacity(373.0, DEFAULT_WEATHER, DEFAULT_CONDUCTOR, 0.0)
        with pytest.raises(ValueError, match="below ambient"):
            ampacity(290.0, DEFAULT_WEATHER, DEFAULT_CONDUCTOR, R_PER_M)


class TestHeatBalanceBreakdown:
    def test_identity(self):
        hbe = heat_balance_breakdown(600.0, 350.0, DEFAULT_WEATHER,
                                     DEFAULT_CONDUCTOR, R_PER_M)
        assert hbe.ohmic == pytest.approx(600.0 ** 2 * R_PER_M)
        assert hbe.solar == 14.08
        assert hbe.residual == pytest.approx(
            hbe.ohmic + hbe.solar - hbe.convection - hbe.radiation)

    def test_residual_closes_at_steady_state(self):
        t_ss = steady_state_temperature(600.0, DEFAULT_WEATHER,
                                        DEFAULT_CONDUCTOR, R_PER_M)
        hbe = heat_balance_breakdown(600.0, t_ss, DEFAULT_WEATHER,
                                     DEFAULT_CONDUCTOR, R_PER_M)
        assert hbe.residual == pytest.approx(0.0, abs=1e-4)


class TestConductorAndWeatherValidation:
    def test_conductor_rejects_nonpositive_constants(self):
        with pytest.raises(ValueError, match="diameter"):
            dataclasses.replace(DEFAULT_CONDUCTOR, diameter=0.0)
        with pytest.raises(ValueError, match="emissivity"):
            dataclasses.replace(DEFAULT_CONDUCTOR, emissivity=1.5)
        with pytest.raises(ValueError, match="thermal resistivity"):
            dataclasses.replace(DEFAULT_CONDUCTOR, thermal_resistivity=-0.1)

    def test_weather_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WeatherRecord(0.0, 1.0, 1.0, 2.5e-9)
        with pytest.raises(ValueError):
            WeatherRecord(298.0, -1.0, 1.0, 2.5e-9)
        with pytest.raises(ValueError):
            WeatherRecord(298.0, 1.0, -1.0, 2.5e-9)
        with pytest.raises(ValueError):
            WeatherRecord(298.0, 1.0, 1.0, 0.0)


    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field_name", [
        f.name for f in dataclasses.fields(DEFAULT_CONDUCTOR)])
    def test_conductor_rejects_nonfinite_values(self, field_name, value):
        with pytest.raises(ValueError):
            dataclasses.replace(DEFAULT_CONDUCTOR, **{field_name: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field_name", [
        f.name for f in dataclasses.fields(WeatherRecord)])
    def test_weather_rejects_nonfinite_values(self, field_name, value):
        with pytest.raises(ValueError):
            dataclasses.replace(DEFAULT_WEATHER, **{field_name: value})


class TestRadiationLogFit:
    def test_band_is_the_assembled_link_error(self):
        fit = radiation_log_fit(0.75, 2.5e-9)
        a, b = fit.link_coefficients(298.0)
        ts = np.linspace(273.0, 373.0, 20001)
        exact = 0.75 * 2.5e-9 * (ts ** 4 - 298.0 ** 4)
        err = np.abs(exact - (a * ts + b))
        assert float(err.max()) == pytest.approx(fit.band, rel=1e-9)

    def test_band_reference_value(self):
        fit = radiation_log_fit(0.75, 2.5e-9)
        assert fit.band == pytest.approx(1.4809, abs=2e-4)
        assert fit.temp_fit.max_rel_err <= 0.0025
        assert fit.max_rel_err == max(fit.temp_fit.max_rel_err,
                                      fit.flux_fit.max_rel_err)

    def test_link_is_ambient_invariant_in_slope(self):
        fit = radiation_log_fit(0.75, 2.5e-9)
        a1, b1 = fit.link_coefficients(280.0)
        a2, b2 = fit.link_coefficients(310.0)
        assert a1 == a2 == fit.link_slope
        assert b1 > b2          # hotter ambient radiates less net power

    def test_linear_radiation_tracks_exact_loss(self):
        fit = radiation_log_fit(0.75, 2.5e-9)
        for t in (300.0, 340.0, 373.0):
            exact = radiation_loss(0.75, 2.5e-9, t, 298.0)
            a, b = fit.link_coefficients(298.0)
            assert abs(a * t + b - exact) <= fit.band

    def test_temperature_side_coefficients(self):
        fit = radiation_log_fit(0.75, 2.5e-9)
        assert fit.temp_fit.slope == pytest.approx(0.00312, rel=0.1)
        assert fit.flux_fit.lo == pytest.approx(0.75 * 2.5e-9 * 273.0 ** 4)
        assert fit.flux_fit.hi == pytest.approx(0.75 * 2.5e-9 * 373.0 ** 4)

    def test_equal_arguments_share_one_fit(self):
        fit = radiation_log_fit(0.75, 2.5e-9, 273.0, 373.0)
        assert radiation_log_fit(0.75, 2.5e-9, 273.0, 373.0) is fit
        assert radiation_log_fit(0.75, 2.5e-9, 273.0, 380.0) is not fit
        assert radiation_log_fit.__wrapped__(0.75, 2.5e-9, 273.0,
                                             373.0) == fit

    def test_domain(self):
        with pytest.raises(ValueError):
            radiation_log_fit(0.75, 2.5e-9, t_lo=300.0, t_hi=300.0)
        with pytest.raises(ValueError):
            radiation_log_fit(0.0, 2.5e-9)
        with pytest.raises(ValueError):
            radiation_log_fit(0.75, 0.0)
