"""Certified error bands for every nonlinearity the planner linearizes.

The planning model is a mixed-integer *linear* program, so the nonlinear
pieces of the physics — sin and cos of the angle difference, and the T^4
radiation loss — are replaced by fitted linear surrogates.  Each fit
ships with a certificate: the worst error measured on a dense grid over
the operating window.  This script prints those certificates and shows
how they tighten or loosen as the angle window changes, so the bands
quoted in a plan's audit trail can be traced back to first principles.

Run:  python3 demos/linearization_quality.py
"""

from __future__ import annotations

import numpy as np

from gridxpand import radiation_log_fit, trig_segments

EMISSIVITY = 0.75
RADIATION_COEFF = 2.5e-9  # W/(m*K^4) before the emissivity factor
AMBIENT = 298.0


def main() -> None:
    print("Trig surrogates on the angle-difference window [-w, w]:")
    print(f"  {'w (rad)':>8} {'sin chord err':>14} {'cos chord err':>14}")
    for window in (0.3, 0.45, 0.6, 0.75):
        ts = trig_segments(window)
        print(f"  {window:8.2f} {ts.sin.max_rel_err:14.4%} "
              f"{ts.cos_neg.max_rel_err:14.4%}")
    ts = trig_segments(0.6)
    print("  (cos uses one chord per sign of the angle; by symmetry the")
    print(f"   positive-side chord certifies the same band: "
          f"{ts.cos_pos.max_rel_err:.4%} at w=0.60)")

    print("\nRadiation surrogate, conductor between 273 and 373 K:")
    fit = radiation_log_fit(EMISSIVITY, RADIATION_COEFF)
    print(f"  ln T fit:     slope {fit.temp_fit.slope:.6f}  "
          f"intercept {fit.temp_fit.intercept:.5f}  "
          f"err {fit.temp_fit.max_rel_err:.4%}")
    print(f"  ln flux fit:  slope {fit.flux_fit.slope:.4f}  "
          f"intercept {fit.flux_fit.intercept:.4f}  "
          f"err {fit.flux_fit.max_rel_err:.4%}")
    a, b = fit.link_coefficients(AMBIENT)
    print(f"  assembled link at {AMBIENT:.0f} K ambient: "
          f"radiation ~ {a:.4f}*T {b:+.2f}")
    print(f"  certified band: +/- {fit.band:.4f} W/m on the loss itself")

    eps_kr = EMISSIVITY * RADIATION_COEFF
    grid = np.linspace(273.0, 373.0, 9)
    exact = eps_kr * (grid ** 4 - AMBIENT ** 4)
    approx = a * grid + b
    print(f"\n  {'T (K)':>6} {'exact (W/m)':>12} {'linear (W/m)':>13} "
          f"{'error':>8}")
    for t, e, p in zip(grid, exact, approx):
        print(f"  {t:6.1f} {e:12.3f} {p:13.3f} {p - e:8.3f}")
    print(f"\n  worst gap on this coarse grid: "
          f"{np.abs(approx - exact).max():.3f} W/m, inside the certified")
    print(f"  band of {fit.band:.3f} W/m.  The planner folds that band into")
    print("  its heat-balance margins, so a certified fit can never make a")
    print("  line look cooler than it really is.")


if __name__ == "__main__":
    main()
