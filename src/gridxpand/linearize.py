"""Certified linear surrogates for the nonlinear planning constraints.

Two families live here.  The first is curve fitting: single line segments
with a certified worst-case error over a stated domain, used for the trig
terms of the linearized AC power flow and for the log-domain radiation link.
The second is exact MILP gadgets: the cosine side selection, the convex
hull of the two halves of an angle difference's own bounds
(:meth:`TrigSegments.attach_cos_selection`), and switched DC flow.  Gadget
builders only append to the model they are handed and return the handles
they added, or the big-M constant they used.

Error certificates
------------------
``max_abs_err`` is the largest absolute deviation on a dense grid of
:data:`CERT_GRID` points.
``max_rel_err`` is pointwise ``|err|/|f|`` when the function keeps one sign
on the domain; for a function that crosses or touches zero (sine, squares)
the pointwise ratio degenerates near the root, so the certificate reports the
deviation relative to the function's range ``max f - min f`` instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ir import BINARY, CONTINUOUS, GE, LE, ModelIR

CERT_GRID = 20001                 # points of every certification grid
FIT_GRID = 2001                   # points a minimax fit is scored on
FIT_SLOPES = 201                  # slopes per scan of a minimax fit
FIT_REFINEMENTS = 2               # narrowed rescans after the first
TRIG_HALF_RANGE = 0.6
ANGLE_SPAN = 1.2                  # rad, disjunction coverage for DC flow


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
                    intercept: float, lo: float, hi: float) -> Segment:
    """Evaluate a candidate line against ``f`` on a dense grid.

    Returns a :class:`Segment` carrying the certified absolute and relative
    errors (see module docstring for the relative-error convention).
    """
    if not lo < hi:
        raise ValueError(f"empty certification domain [{lo}, {hi}]")
    xs = np.linspace(lo, hi, CERT_GRID)
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
                     *, anchor: float | None = None) -> Segment:
    """Best line under the worst-case absolute deviation criterion.

    For a fixed slope the optimal free intercept has a closed form (midpoint
    of the residual envelope), so only the slope is searched: a bracket
    spanning the function's local slopes is scanned on a grid and narrowed
    around the incumbent, :data:`FIT_REFINEMENTS` times.  With ``anchor``
    set, the intercept is pinned to that value instead of optimized; this is
    how the trig fits keep both cosine pieces continuous at the knot.

    The returned segment is re-certified on an independent dense grid.
    """
    if not lo < hi:
        raise ValueError(f"empty fit domain [{lo}, {hi}]")
    xs = np.linspace(lo, hi, FIT_GRID)
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
    for _ in range(FIT_REFINEMENTS + 1):
        grid = np.linspace(span_lo, span_hi, FIT_SLOPES)
        for s in grid:
            err, m = objective(float(s))
            if err < best_err:
                best_err, best_m, best_s = err, m, float(s)
        step = (span_hi - span_lo) / (FIT_SLOPES - 1)
        span_lo, span_hi = best_s - step, best_s + step
    return certify_segment(f, best_s, best_m, lo, hi)


# ---------------------------------------------------------------------------
# Trig segments for the linearized AC flow


@dataclass(frozen=True)
class CosSelection:
    """Handles for one attached cosine side: the side binary ``l`` and the
    positive part ``p`` of the angle difference, ``p = l*x = max(x, 0)`` at
    integral ``l``."""

    side: int
    side_times_x: int


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
        positive) and the positive part ``p`` in ``[0, hi]``, tied by the
        convex hull of the two sides over ``x``'s own bounds ``[lo, hi]``
        (Balas' disjunctive hull): ``p <= hi*l``, ``p >= x`` and
        ``x - p >= lo*(1 - l)``.  At integral ``l`` this is exactly
        ``p = l*x`` with ``x`` on the chosen side, so, as the two pieces
        meet at 0, the cosine surrogate is ``cos_neg(x) + (cos_pos.slope -
        cos_neg.slope)*p``; a fractional ``l`` cannot reach past the bounds.  The bounds must contain 0 and
        lie inside the window the segments are certified on.
        """
        v = ir.variables[x]
        lo, hi = v.lower, v.upper
        h = self.half_range
        if not -h <= lo <= 0.0 <= hi <= h:
            raise ValueError(
                f"{tag}: angle bounds [{lo}, {hi}] must contain 0 and lie in "
                f"the certified window [-{h}, {h}]")
        side = ir.add_variable(f"{tag}.cos_side", BINARY)
        pos = ir.add_variable(f"{tag}.cos_pos", CONTINUOUS, 0.0, hi)
        ir.add_row(f"{tag}.cos_pos_hi", {pos: 1.0, side: -hi}, LE, 0.0)
        ir.add_row(f"{tag}.cos_pos_lo", {pos: 1.0, x: -1.0}, GE, 0.0)
        ir.add_row(f"{tag}.cos_neg_lo", {x: 1.0, pos: -1.0, side: lo}, GE, lo)
        return CosSelection(side=side, side_times_x=pos)


# Published coefficients for the +/-0.6 rad window.  These are the anchored
# minimax fits rounded to two figures; certificates are computed from the
# function rather than trusted.
_COS_SLOPE = 0.24
_COS_INTERCEPT = 1.0
_SIN_SLOPE = 0.95


@functools.lru_cache(maxsize=16)
def trig_segments(half_range: float = TRIG_HALF_RANGE) -> TrigSegments:
    """Cosine pair and sine line for angle differences within the window.

    For the standard 0.6 rad half range the published slopes (cos +/-0.24
    with unit intercept, sin 0.95 through the origin) are pinned; any other
    window is fitted fresh with the intercept anchored so the cosine pieces
    stay continuous at zero and the sine stays odd.  Each window is fitted
    and certified once per process; the segments are frozen, so every
    caller shares them.
    """
    if half_range <= 0:
        raise ValueError(f"half_range must be > 0, got {half_range}")
    if half_range == TRIG_HALF_RANGE:
        cos_neg = certify_segment(np.cos, _COS_SLOPE, _COS_INTERCEPT,
                                  -half_range, 0.0)
        cos_pos = certify_segment(np.cos, -_COS_SLOPE, _COS_INTERCEPT,
                                  0.0, half_range)
        sin_seg = certify_segment(np.sin, _SIN_SLOPE, 0.0,
                                  -half_range, half_range)
    else:
        cos_pos = fit_line_minimax(np.cos, 0.0, half_range, anchor=1.0)
        cos_neg = certify_segment(np.cos, -cos_pos.slope, cos_pos.intercept,
                                  -half_range, 0.0)
        sin_seg = fit_line_minimax(np.sin, -half_range, half_range, anchor=0.0)
    return TrigSegments(cos_neg=cos_neg, cos_pos=cos_pos, sin=sin_seg,
                        half_range=half_range)


# ---------------------------------------------------------------------------
# Exact gadgets


def gadget_switched_dc_flow(ir: ModelIR, built: int, flow: int, susceptance: float,
                            angle_from: int, angle_to: int, flow_limit: float,
                            tag: str) -> float:
    """Disjunctive DC flow for a switchable line; returns the big-M ``X``.

    Emits ``|pf| <= u * pf_max`` plus the relaxed flow definition
    ``|pf - beta*(a_s - a_r)| <= (1-u) * X`` with
    ``X = beta * ANGLE_SPAN`` so that a built line obeys Ohm's law and an
    unbuilt one is electrically absent.  :data:`ANGLE_SPAN` is the
    angle-difference span the relaxation covers, in radians.
    """
    if susceptance <= 0:
        raise ValueError(f"{tag}: susceptance must be > 0, got {susceptance}")
    if flow_limit <= 0:
        raise ValueError(f"{tag}: flow limit must be > 0, got {flow_limit}")
    big_x = susceptance * ANGLE_SPAN
    ir.add_row(f"{tag}.cap_hi", {flow: 1.0, built: -flow_limit}, LE, 0.0)
    ir.add_row(f"{tag}.cap_lo", {flow: 1.0, built: flow_limit}, GE, 0.0)
    ir.add_row(f"{tag}.ohm_hi",
               {flow: 1.0, angle_from: -susceptance, angle_to: susceptance,
                built: big_x}, LE, big_x)
    ir.add_row(f"{tag}.ohm_lo",
               {flow: 1.0, angle_from: -susceptance, angle_to: susceptance,
                built: -big_x}, GE, -big_x)
    return big_x
