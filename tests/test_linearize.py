"""Certified fits and exact gadgets.

The minimax fitter is checked against the chord construction: for a convex
(or concave) function the optimal single line is the chord shifted by half
its worst deviation, so the optimal error has a closed form the fitter must
reach.  Gadget exactness is probed through the enumeration oracle — see
``support.py`` for the probe protocol.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from gridxpand import (ModelIR, Segment, certify_segment, fit_line_minimax,
                       trig_segments)
from gridxpand.ir import BINARY, CONTINUOUS, EQ
from gridxpand.linearize import CERT_GRID, gadget_switched_dc_flow


def chord_minimax_error(f, lo: float, hi: float, n: int = 200001) -> float:
    """Optimal worst-case error of any line on [lo, hi] for one-sided f.

    For a function whose chord deviation keeps one sign (convex or concave),
    the best line is the chord moved halfway toward the function, so the
    optimum equals half the chord's worst deviation.
    """
    xs = np.linspace(lo, hi, n)
    slope = (f(hi) - f(lo)) / (hi - lo)
    chord = f(lo) + slope * (xs - lo)
    dev = chord - f(xs)
    assert float(dev.min()) * float(dev.max()) >= -1e-12, "not one-sided"
    return float(np.abs(dev).max()) / 2.0


class TestCertifySegment:
    def test_certificate_is_dense_grid_error(self):
        seg = certify_segment(np.exp, 1.0, 1.0, -0.5, 0.5)
        xs = np.linspace(-0.5, 0.5, CERT_GRID)
        err = np.abs(np.exp(xs) - (xs + 1.0))
        assert seg.max_abs_err == pytest.approx(float(err.max()), rel=1e-12)
        assert seg.max_rel_err == pytest.approx(
            float((err / np.exp(xs)).max()), rel=1e-12)

    def test_sign_crossing_uses_range_relative(self):
        # sin crosses zero, so the relative certificate divides by the range.
        seg = certify_segment(np.sin, 0.95, 0.0, -0.6, 0.6)
        span = 2 * math.sin(0.6)
        assert seg.max_rel_err == pytest.approx(seg.max_abs_err / span,
                                                rel=1e-9)

    def test_exact_line_has_zero_error(self):
        seg = certify_segment(lambda x: 2.0 * x + 3.0, 2.0, 3.0, 1.0, 4.0)
        assert seg.max_abs_err == 0.0
        assert seg.max_rel_err == 0.0

    def test_value(self):
        seg = Segment(2.0, -1.0, 0.0, 1.0, 0.0, 0.0)
        assert seg.value(0.5) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            certify_segment(np.exp, 1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Segment(1.0, 0.0, 2.0, 1.0, 0.0, 0.0)


class TestFitLineMinimax:
    def test_reaches_chord_optimum_on_log(self):
        fit = fit_line_minimax(np.log, 273.0, 373.0)
        best = chord_minimax_error(np.log, 273.0, 373.0)
        assert fit.max_abs_err >= best * (1.0 - 1e-9)
        assert fit.max_abs_err <= best * 1.01

    def test_reaches_chord_optimum_on_exp(self):
        fit = fit_line_minimax(np.exp, -1.0, 2.0)
        best = chord_minimax_error(np.exp, -1.0, 2.0)
        assert fit.max_abs_err == pytest.approx(best, rel=1e-2)

    def test_log_window_coefficients(self):
        fit = fit_line_minimax(np.log, 273.0, 373.0)
        assert fit.slope == pytest.approx(0.00312, rel=0.1)
        assert fit.intercept == pytest.approx(4.75824, rel=0.005)
        assert fit.max_rel_err <= 0.0025

    def test_anchor_pins_intercept(self):
        fit = fit_line_minimax(np.cos, 0.0, 0.6, anchor=1.0)
        assert fit.intercept == 1.0
        # The anchored fit can only be worse than the free one.
        free = fit_line_minimax(np.cos, 0.0, 0.6)
        assert fit.max_abs_err >= free.max_abs_err - 1e-12

    def test_linear_function_recovered(self):
        fit = fit_line_minimax(lambda x: 3.0 * x - 2.0, 0.0, 5.0)
        assert fit.slope == pytest.approx(3.0, abs=1e-6)
        assert fit.max_abs_err < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fit_line_minimax(np.exp, 2.0, 2.0)

    @given(st.floats(min_value=0.2, max_value=2.0),
           st.floats(min_value=-1.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_never_worse_than_chord(self, width, center):
        lo, hi = center - width, center + width
        fit = fit_line_minimax(np.exp, lo, hi)
        xs = np.linspace(lo, hi, 4001)
        slope = (math.exp(hi) - math.exp(lo)) / (hi - lo)
        chord_err = float(np.abs(np.exp(xs)
                                 - (math.exp(lo) + slope * (xs - lo))).max())
        assert fit.max_abs_err <= chord_err + 1e-12


class TestTrigSegments:
    def test_published_window_coefficients(self):
        trig = trig_segments()
        assert trig.sin.slope == 0.95
        assert trig.sin.intercept == 0.0
        assert trig.cos_pos.slope == -0.24
        assert trig.cos_neg.slope == 0.24
        assert trig.cos_pos.intercept == 1.0

    def test_published_window_certificates(self):
        trig = trig_segments()
        assert trig.sin.max_rel_err == pytest.approx(0.009358, abs=1e-5)
        assert trig.cos_max_rel_err == pytest.approx(0.037154, abs=1e-5)
        assert trig.cos_max_abs_err == pytest.approx(
            max(trig.cos_neg.max_abs_err, trig.cos_pos.max_abs_err))

    def test_custom_window_stays_continuous_and_odd(self):
        trig = trig_segments(half_range=0.4)
        assert trig.cos_neg.value(0.0) == pytest.approx(trig.cos_pos.value(0.0))
        assert trig.sin.intercept == 0.0
        assert trig.cos_neg.slope == pytest.approx(-trig.cos_pos.slope)
        # Tighter window, tighter certificates.
        wide = trig_segments()
        assert trig.cos_max_rel_err < wide.cos_max_rel_err
        assert trig.sin.max_rel_err < wide.sin.max_rel_err

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            trig_segments(half_range=0.0)

    def test_each_window_is_certified_once(self):
        """Repeated calls share one frozen result per window, equal to a
        fresh fit and certification; a bad window raises on every call."""
        assert trig_segments() is trig_segments()
        narrow = trig_segments(half_range=0.4)
        assert trig_segments(half_range=0.4) is narrow
        assert trig_segments.__wrapped__(0.4) == narrow
        assert trig_segments.__wrapped__() == trig_segments()
        with pytest.raises(dataclasses.FrozenInstanceError):
            narrow.half_range = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            narrow.sin.slope = 1.0
        for _ in range(2):
            with pytest.raises(ValueError):
                trig_segments(half_range=-1.0)

    def test_cos_selection_reproduces_surrogate(self):
        """The side rows evaluate the cosine surrogate through the positive
        part: ``cos_neg(x) + (cos_pos.slope - cos_neg.slope) * p``."""
        trig = trig_segments()
        rise = trig.cos_pos.slope - trig.cos_neg.slope
        for x_val in (-0.55, -0.2, 0.0, 0.3, 0.6):
            ir = ModelIR()
            x = ir.add_variable("x", CONTINUOUS, -0.6, 0.6)
            ir.add_row("pin", {x: 1.0}, EQ, x_val)
            sel = trig.attach_cos_selection(ir, x, "w")
            cos_expr = ir.add_variable("cosx", CONTINUOUS, 0.0, 2.0)
            ir.add_row("compose", {cos_expr: 1.0, x: -trig.cos_neg.slope,
                                   sel.side_times_x: -rise},
                       EQ, trig.cos_neg.intercept)
            span = support.minmax_output(ir, cos_expr)
            assert span is not None
            want = (trig.cos_neg if x_val < 0 else trig.cos_pos).value(x_val)
            assert span[0] == pytest.approx(want, abs=1e-8)
            assert span[1] == pytest.approx(want, abs=1e-8)


class TestCosSide:
    def test_scan(self):
        bad = support.scan_cos_side(np.random.default_rng(101), 12)
        assert bad == []

    @pytest.mark.parametrize("lo, hi", [(0.1, 0.5), (-0.5, -0.1),
                                        (-0.7, 0.3), (-0.3, 0.7)])
    def test_rejects_bounds_off_zero_or_window(self, lo, hi):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, lo, hi)
        with pytest.raises(ValueError, match="contain 0"):
            trig_segments().attach_cos_selection(ir, x, "g")


class TestGadgetSwitchedDcFlow:
    def test_scan(self):
        bad = support.scan_switched_dc_flow(np.random.default_rng(104), 12)
        assert bad == []

    def test_parameter_validation(self):
        ir = ModelIR()
        u = ir.add_variable("u", BINARY)
        pf = ir.add_variable("pf", CONTINUOUS, -1.0, 1.0)
        a = ir.add_variable("a", CONTINUOUS, -1.0, 1.0)
        b = ir.add_variable("b", CONTINUOUS, -1.0, 1.0)
        with pytest.raises(ValueError, match="susceptance"):
            gadget_switched_dc_flow(ir, u, pf, 0.0, a, b, 1.0, "g")
        with pytest.raises(ValueError, match="limit"):
            gadget_switched_dc_flow(ir, u, pf, 2.0, a, b, 0.0, "g")
