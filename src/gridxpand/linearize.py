"""Certified linear surrogates for the nonlinear planning constraints.

Two families live here.  The first is curve fitting: single line segments
with a certified worst-case error over a stated domain, used for the trig
terms of the linearized AC power flow and for the log-domain radiation link.
The second is exact MILP gadgets: binary-continuous products and switched
DC flow.  Gadget builders only append to the
model they are handed and return the output variable and the bound
constants they used as a :class:`~gridxpand.ir.GadgetFragment`.

Error certificates
------------------
``max_abs_err`` is the largest absolute deviation on a dense grid.
``max_rel_err`` is pointwise ``|err|/|f|`` when the function keeps one sign
on the domain; for a function that crosses or touches zero (sine, squares)
the pointwise ratio degenerates near the root, so the certificate reports the
deviation relative to the function's range ``max f - min f`` instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ir import BINARY, CONTINUOUS, GE, LE, GadgetFragment, ModelIR

DEFAULT_CERT_GRID = 20001
TRIG_HALF_RANGE = 0.6


@dataclass(frozen=True)
class Segment:
    """A line ``s*x + m`` approximating some function on ``[lo, hi]``."""

    slope: float
    intercept: float
    lo: float
    hi: float
    max_abs_err: float
    max_rel_err: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"segment domain [{self.lo}, {self.hi}] is empty")

    def value(self, x):
        return self.slope * x + self.intercept


def certify_segment(f: Callable[[np.ndarray], np.ndarray], slope: float,
                    intercept: float, lo: float, hi: float,
                    n: int = DEFAULT_CERT_GRID) -> Segment:
    """Evaluate a candidate line against ``f`` on a dense grid.

    Returns a :class:`Segment` carrying the certified absolute and relative
    errors (see module docstring for the relative-error convention).
    """
    if not lo < hi:
        raise ValueError(f"empty certification domain [{lo}, {hi}]")
    if n < 2:
        raise ValueError("certification grid needs at least 2 points")
    xs = np.linspace(lo, hi, n)
    fx = np.asarray(f(xs), dtype=float)
    err = np.abs(fx - (slope * xs + intercept))
    max_abs = float(err.max())
    fmin, fmax = float(fx.min()), float(fx.max())
    if fmin * fmax <= 0.0:
        span = fmax - fmin
        max_rel = 0.0 if max_abs == 0.0 else (math.inf if span == 0.0
                                              else max_abs / span)
    else:
        max_rel = float((err / np.abs(fx)).max())
    return Segment(float(slope), float(intercept), float(lo), float(hi),
                   max_abs, max_rel)


def fit_line_minimax(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                     *, anchor: float | None = None, n_grid: int = 2001,
                     n_slopes: int = 201, refinements: int = 2,
                     n_certify: int = DEFAULT_CERT_GRID) -> Segment:
    """Best line under the worst-case absolute deviation criterion.

    For a fixed slope the optimal free intercept has a closed form (midpoint
    of the residual envelope), so only the slope is searched: a bracket
    spanning the function's local slopes is scanned on a grid and narrowed
    around the incumbent, twice by default.  With ``anchor`` set, the
    intercept is pinned to that value instead of optimized; this is how the
    trig fits keep both cosine pieces continuous at the knot.

    The returned segment is re-certified on an independent dense grid.
    """
    if not lo < hi:
        raise ValueError(f"empty fit domain [{lo}, {hi}]")
    xs = np.linspace(lo, hi, n_grid)
    fx = np.asarray(f(xs), dtype=float)

    local = np.diff(fx) / np.diff(xs)
    s_lo, s_hi = float(local.min()), float(local.max())
    if s_hi - s_lo < 1e-12:
        pad = max(1e-9, 1e-9 * max(abs(s_lo), 1.0))
        s_lo, s_hi = s_lo - pad, s_hi + pad

    def objective(s: float) -> tuple[float, float]:
        resid = fx - s * xs
        if anchor is None:
            r_lo, r_hi = float(resid.min()), float(resid.max())
            return 0.5 * (r_hi - r_lo), 0.5 * (r_hi + r_lo)
        return float(np.abs(resid - anchor).max()), anchor

    best_s, (best_err, best_m) = s_lo, objective(s_lo)
    span_lo, span_hi = s_lo, s_hi
    for _ in range(refinements + 1):
        grid = np.linspace(span_lo, span_hi, n_slopes)
        for s in grid:
            err, m = objective(float(s))
            if err < best_err:
                best_err, best_m, best_s = err, m, float(s)
        step = (span_hi - span_lo) / (n_slopes - 1)
        span_lo, span_hi = best_s - step, best_s + step
    return certify_segment(f, best_s, best_m, lo, hi, n=n_certify)


# ---------------------------------------------------------------------------
# Trig segments for the linearized AC flow


@dataclass(frozen=True)
class CosSelection:
    """Handles for one attached cosine window.

    ``coeffs``/``constant`` spell out the piecewise cosine surrogate
    ``cos(x) ~ constant + sum(coeffs[var] * var)`` in terms of the angle
    difference, the side binary and their product.
    """

    side: int
    side_times_x: int
    coeffs: dict[int, float]
    constant: float


@dataclass(frozen=True)
class TrigSegments:
    """Certified small-angle surrogates: two cosine pieces and one sine line."""

    cos_neg: Segment
    cos_pos: Segment
    sin: Segment
    half_range: float

    @property
    def cos_max_rel_err(self) -> float:
        return max(self.cos_neg.max_rel_err, self.cos_pos.max_rel_err)

    @property
    def cos_max_abs_err(self) -> float:
        return max(self.cos_neg.max_abs_err, self.cos_pos.max_abs_err)

    def attach_cos_selection(self, ir: ModelIR, x: int, tag: str) -> CosSelection:
        """Emit the side-selection rows for one angle-difference variable.

        Adds the side binary ``l`` (0 on the negative half, 1 on the
        positive), the window rows ``-h*(1-l) <= x <= h*l`` and the product
        ``l*x``, then returns the affine cosine surrogate built from them.
        """
        h = self.half_range
        side = ir.add_variable(f"{tag}.cos_side", BINARY)
        ir.add_row(f"{tag}.cos_window_hi", {x: 1.0, side: -h}, LE, 0.0)
        ir.add_row(f"{tag}.cos_window_lo", {x: 1.0, side: -h}, GE, -h)
        prod = gadget_binary_product(ir, side, x, h, f"{tag}.cos_side_x")
        s1, m1 = self.cos_neg.slope, self.cos_neg.intercept
        s2, m2 = self.cos_pos.slope, self.cos_pos.intercept
        coeffs = {x: s1, prod.output: s2 - s1}
        if m2 != m1:
            coeffs[side] = m2 - m1
        return CosSelection(side=side, side_times_x=prod.output,
                            coeffs=coeffs, constant=m1)


# Published coefficients for the +/-0.6 rad window.  These are the anchored
# minimax fits rounded to two figures; certificates are recomputed on every
# call rather than trusted.
_COS_SLOPE = 0.24
_COS_INTERCEPT = 1.0
_SIN_SLOPE = 0.95


def trig_segments(half_range: float = TRIG_HALF_RANGE,
                  n_certify: int = DEFAULT_CERT_GRID) -> TrigSegments:
    """Cosine pair and sine line for angle differences within the window.

    For the standard 0.6 rad half range the published slopes (cos +/-0.24
    with unit intercept, sin 0.95 through the origin) are pinned; any other
    window is fitted fresh with the intercept anchored so the cosine pieces
    stay continuous at zero and the sine stays odd.
    """
    if half_range <= 0:
        raise ValueError(f"half_range must be > 0, got {half_range}")
    if half_range == TRIG_HALF_RANGE:
        cos_neg = certify_segment(np.cos, _COS_SLOPE, _COS_INTERCEPT,
                                  -half_range, 0.0, n=n_certify)
        cos_pos = certify_segment(np.cos, -_COS_SLOPE, _COS_INTERCEPT,
                                  0.0, half_range, n=n_certify)
        sin_seg = certify_segment(np.sin, _SIN_SLOPE, 0.0,
                                  -half_range, half_range, n=n_certify)
    else:
        cos_pos = fit_line_minimax(np.cos, 0.0, half_range, anchor=1.0,
                                   n_certify=n_certify)
        cos_neg = certify_segment(np.cos, -cos_pos.slope, cos_pos.intercept,
                                  -half_range, 0.0, n=n_certify)
        sin_seg = fit_line_minimax(np.sin, -half_range, half_range, anchor=0.0,
                                   n_certify=n_certify)
    return TrigSegments(cos_neg=cos_neg, cos_pos=cos_pos, sin=sin_seg,
                        half_range=half_range)


# ---------------------------------------------------------------------------
# Exact gadgets


def _operand_bound(ir: ModelIR, operand: int) -> float:
    v = ir.variables[operand]
    return max(abs(v.lower), abs(v.upper))


def gadget_binary_product(ir: ModelIR, binary: int, operand: int,
                          bound: float, tag: str) -> GadgetFragment:
    """Exact product ``theta = y * delta`` of a binary and a bounded variable.

    ``bound`` must dominate ``|delta|``; the four standard envelope rows are
    tight for binary ``y``, so the output is the product exactly, not a
    relaxation.
    """
    if ir.variables[binary].kind != BINARY:
        raise ValueError(f"{tag}: product driver must be a binary variable")
    if bound <= 0 or not math.isfinite(bound):
        raise ValueError(f"{tag}: product bound must be finite and > 0, got {bound}")
    need = _operand_bound(ir, operand)
    if need > bound * (1 + 1e-12):
        raise ValueError(
            f"{tag}: operand bounds exceed certified product bound "
            f"({need} > {bound})")
    ov = ir.variables[operand]
    theta = ir.add_variable(f"{tag}.prod", CONTINUOUS,
                            min(0.0, ov.lower), max(0.0, ov.upper))
    ir.add_row(f"{tag}.prod_lo", {theta: 1.0, binary: bound}, GE, 0.0)
    ir.add_row(f"{tag}.prod_hi", {theta: 1.0, binary: -bound}, LE, 0.0)
    ir.add_row(f"{tag}.prod_track_lo",
               {theta: 1.0, operand: -1.0, binary: -bound}, GE, -bound)
    ir.add_row(f"{tag}.prod_track_hi",
               {theta: 1.0, operand: -1.0, binary: bound}, LE, bound)
    return GadgetFragment(output=theta, big_m={"product_bound": bound})


def gadget_switched_dc_flow(ir: ModelIR, built: int, flow: int, susceptance: float,
                            angle_from: int, angle_to: int, flow_limit: float,
                            tag: str, window: float = 1.2) -> GadgetFragment:
    """Disjunctive DC flow for a switchable line.

    Emits ``|pf| <= u * pf_max`` plus the relaxed flow definition
    ``|pf - beta*(a_s - a_r)| <= (1-u) * X`` with ``X = beta * window`` so
    that a built line obeys Ohm's law and an unbuilt one is electrically
    absent.  ``window`` is the angle-difference span the relaxation must
    cover, in radians.
    """
    if susceptance <= 0:
        raise ValueError(f"{tag}: susceptance must be > 0, got {susceptance}")
    if flow_limit <= 0:
        raise ValueError(f"{tag}: flow limit must be > 0, got {flow_limit}")
    big_x = susceptance * window
    ir.add_row(f"{tag}.cap_hi", {flow: 1.0, built: -flow_limit}, LE, 0.0)
    ir.add_row(f"{tag}.cap_lo", {flow: 1.0, built: flow_limit}, GE, 0.0)
    ir.add_row(f"{tag}.ohm_hi",
               {flow: 1.0, angle_from: -susceptance, angle_to: susceptance,
                built: big_x}, LE, big_x)
    ir.add_row(f"{tag}.ohm_lo",
               {flow: 1.0, angle_from: -susceptance, angle_to: susceptance,
                built: -big_x}, GE, -big_x)
    return GadgetFragment(output=flow,
                          big_m={"ohm_relax": big_x, "flow_limit": flow_limit})
