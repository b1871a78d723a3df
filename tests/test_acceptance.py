"""Acceptance battery: eight system-level criteria, one summary line each.

Every test computes its evidence first, emits a single ``[PASS]``/``[FAIL]``
line naming the tolerances it applied, and only then asserts.  The lines are
echoed into the terminal summary by a conftest hook, so they are visible in
a plain ``pytest -v`` run; ``pytest -s`` shows them inline as well.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import support
from gridxpand import (RobustParams, SolveConfig, SweepSpec, ampacity,
                       binomial_normal_approx, binomial_pmf, build_igtep,
                       external_solve, fit_line_minimax, normal_cdf,
                       omega_from_reliability, oracle_solve, radiation_loss,
                       reynolds_number, run_plan, run_sweep, scale_to_peak,
                       steady_state_temperature, trig_segments, WeatherRecord)
from support import (DEFAULT_CONDUCTOR, assert_row_equivalent,
                     random_instance, scan_cos_side,
                     scan_governing_convection, scan_switched_dc_flow)

R_PER_M = 2.0e-4


def report(ok: bool, number: int, title: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({title}): {detail}"
    print(line)
    support.ACCEPTANCE_LINES.append(line)
    return line


def test_criterion_1_linearization_certificates():
    start = time.perf_counter()
    trig = trig_segments()
    ln_fit = fit_line_minimax(np.log, 273.0, 373.0)
    elapsed = time.perf_counter() - start

    sin_err = trig.sin.max_rel_err
    cos_err = trig.cos_max_rel_err
    ok = (abs(sin_err - 0.0094) <= 0.003
          and abs(cos_err - 0.0358) <= 0.010
          and ln_fit.max_rel_err <= 0.0025
          and abs(ln_fit.slope - 0.00312) <= 0.10 * 0.00312
          and abs(ln_fit.intercept - 4.75824) <= 0.005 * 4.75824
          and elapsed < 5.0)
    line = report(ok, 1, "linearization certificates",
                  f"sin {sin_err:.4%} (0.94%+/-0.30pp), "
                  f"cos {cos_err:.4%} (3.58%+/-1.00pp), "
                  f"ln {ln_fit.max_rel_err:.4%} (<=0.25%), "
                  f"slope {ln_fit.slope:.7f} (0.00312+/-10%), "
                  f"intercept {ln_fit.intercept:.5f} (4.75824+/-0.5%), "
                  f"{elapsed:.2f}s (<5s)")
    assert ok, line


def test_criterion_2_thermal_physics():
    start = time.perf_counter()
    re = reynolds_number(0.035, 2.23, 1.293, 1.81e-5)
    rad = radiation_loss(0.75, 2.5e-9, 373.0, 298.0)

    worst = 0.0
    n_points = 0
    for ambient in np.linspace(278.0, 318.0, 5):
        for wind in np.linspace(0.5, 5.0, 5):
            for solar in np.linspace(0.0, 25.0, 5):
                weather = WeatherRecord(float(ambient), float(wind),
                                        float(solar), 2.5e-9)
                amp = ampacity(373.0, weather, DEFAULT_CONDUCTOR, R_PER_M)
                back = steady_state_temperature(amp, weather,
                                                DEFAULT_CONDUCTOR, R_PER_M)
                worst = max(worst, abs(back - 373.0))
                n_points += 1
    elapsed = time.perf_counter() - start

    ok = (abs(re - 5575.6) <= 0.001 * 5575.6
          and abs(rad - 21.507) <= 0.001 * 21.507
          and n_points == 125
          and worst <= 1e-4
          and elapsed < 10.0)
    line = report(ok, 2, "thermal rating physics",
                  f"Re {re:.1f} (5575.6+/-0.1%), "
                  f"radiation {rad:.3f} W/m (21.507+/-0.1%), "
                  f"round-trip worst {worst:.2e} K over {n_points} weather "
                  f"points (<=1e-4 K), {elapsed:.2f}s (<10s)")
    assert ok, line


def test_criterion_3_gadget_exactness():
    start = time.perf_counter()
    n = 60
    mismatches = []
    mismatches += scan_cos_side(np.random.default_rng(9302), n)
    mismatches += scan_switched_dc_flow(np.random.default_rng(9304), n)
    mismatches += scan_governing_convection(np.random.default_rng(9305), n)
    elapsed = time.perf_counter() - start

    ok = not mismatches and elapsed < 60.0
    line = report(ok, 3, "MILP gadget exactness",
                  f"{len(mismatches)} mismatches over 3x{n} enumeration "
                  f"probes incl. the governing-branch rating through "
                  f"build_igtep (tol {support.PROBE_TOL:g}), "
                  f"{elapsed:.2f}s (<60s)")
    assert ok, line
    assert mismatches == []


def test_criterion_4_robust_reduction(six_bus, six_bus_robust):
    start = time.perf_counter()
    det_ir, _ = build_igtep(six_bus, None, "dc_det")
    zero = RobustParams(phi=0.0, mu=0.0,
                        reliability=six_bus_robust.reliability)
    rob_ir, _ = build_igtep(six_bus, zero, "dc_robust")
    try:
        assert_row_equivalent(det_ir, rob_ir)
        equivalent = True
    except AssertionError:
        equivalent = False

    config = SolveConfig(time_limit=120.0, mip_gap=1e-6)
    objectives = []
    for phi in (0.0, 0.02, 0.05, 0.1):
        params = RobustParams(phi=phi, mu=six_bus_robust.mu,
                              reliability=0.05)
        plan = run_plan(six_bus, params, "dc_robust", config)
        objectives.append(plan.objective)
    feasible = all(o is not None for o in objectives)
    slack = 2e-6 * max(1.0, abs(objectives[-1] or 1.0))
    nondecreasing = feasible and all(
        b >= a - slack for a, b in zip(objectives, objectives[1:]))
    elapsed = time.perf_counter() - start

    ok = equivalent and nondecreasing and elapsed < 120.0
    line = report(ok, 4, "robust reduction",
                  f"phi=mu=0 rows match dc_det: {equivalent}; objectives "
                  f"over phi {{0,0.02,0.05,0.1}} at R=0.05 nondecreasing "
                  f"within gap slack {slack:.2g}: "
                  f"{[round(o, 2) for o in objectives]}, "
                  f"{elapsed:.1f}s (<120s)")
    assert ok, line


def _mode_rows(rows, mode):
    return [r for r in rows if r["mode"] == mode]


def _first_infeasible(rows):
    for row in rows:
        if row["status"] == "infeasible":
            return row["peak_mw"]
    return None


def _strictly_increasing(rows, slack):
    feasible = [r for r in rows if r["status"] == "optimal"]
    return all(b["objective"] > a["objective"] + slack
               for a, b in zip(feasible, feasible[1:]))


def test_criterion_5_expansion_sweep(six_bus, six_bus_robust, rts24,
                                     six_bus_scenario, rts24_scenario):
    start = time.perf_counter()
    config = SolveConfig(time_limit=240.0, mip_gap=1e-4)
    six_rows = run_sweep(
        six_bus, six_bus_robust,
        SweepSpec(peaks=(300.0, 400.0, 500.0, 600.0, 700.0, 750.0, 800.0,
                         850.0, 900.0),
                  modes=("dc_det", "dc_robust", "dtlr_robust")),
        config, parallel=False)
    rts_rows = run_sweep(
        rts24, rts24_scenario.robust,
        SweepSpec(peaks=(4000.0, 4200.0),
                  modes=("dc_robust", "dtlr_robust")),
        config, parallel=False)
    elapsed = time.perf_counter() - start

    rows = six_rows + rts_rows
    no_errors = all(r["status"] in ("optimal", "infeasible") for r in rows)

    increasing = True
    for batch, modes in ((six_rows, ("dc_det", "dc_robust", "dtlr_robust")),
                         (rts_rows, ("dc_robust", "dtlr_robust"))):
        for mode in modes:
            mode_rows = _mode_rows(batch, mode)
            slack = 2e-4 * max((r["objective"] or 0.0 for r in mode_rows),
                               default=1.0)
            if not _strictly_increasing(mode_rows, slack):
                increasing = False

    never_worse = True
    for batch in (six_rows, rts_rows):
        dc = {r["peak_mw"]: r for r in _mode_rows(batch, "dc_robust")}
        for row in _mode_rows(batch, "dtlr_robust"):
            other = dc.get(row["peak_mw"])
            if (other is None or row["status"] != "optimal"
                    or other["status"] != "optimal"):
                continue
            tol = 2e-4 * max(1.0, abs(other["objective"]))
            if row["objective"] > other["objective"] + tol:
                never_worse = False

    onset_dc = _first_infeasible(_mode_rows(six_rows, "dc_robust"))
    onset_dtlr = _first_infeasible(_mode_rows(six_rows, "dtlr_robust"))
    onsets_ok = (onset_dc == 800.0 and onset_dtlr == 900.0
                 and onset_dtlr >= onset_dc)

    ok = (no_errors and increasing and never_worse and onsets_ok
          and elapsed < 600.0)
    line = report(ok, 5, "expansion sweep shape",
                  f"{len(rows)} rows at gap 1e-4; objectives strictly "
                  f"increase with peak per mode: {increasing}; dtlr_robust "
                  f"<= dc_robust at shared feasible peaks (2e-4 rel): "
                  f"{never_worse}; six-bus infeasibility onset dc_robust "
                  f"{onset_dc:.0f} MW vs dtlr_robust {onset_dtlr:.0f} MW "
                  f"(expect 800 vs 900), {elapsed:.0f}s (<600s)")
    assert ok, line


def test_criterion_6_audited_thermal_plan(rts24, rts24_scenario):
    plan = run_plan(rts24, rts24_scenario.robust, "dtlr_robust",
                    SolveConfig(time_limit=120.0, mip_gap=1e-4))
    solve_s = plan.audit["runtime_s"]
    final_gap = plan.audit["solver"]["mip_gap"]
    hbe = plan.audit.get("hbe", {})
    n_audited = len(hbe.get("residuals_w_per_m", {}))
    worst_margin = hbe.get("worst_margin_w_per_m", -1.0)

    ok = (plan.status == "optimal"
          and solve_s < 120.0
          and n_audited > 0
          and worst_margin >= -1e-9)
    line = report(ok, 6, "24-bus thermal plan audit",
                  f"status {plan.status} in {solve_s:.1f}s (<120s, gap 1e-4), "
                  f"final gap {final_gap:.2e}; "
                  f"{n_audited} heat balances audited against the exact "
                  f"physics; worst certified headroom {worst_margin:.4f} W/m "
                  f"(>= -1e-9)")
    assert ok, line


def test_criterion_7_oracle_agreement():
    start = time.perf_counter()
    rng = np.random.default_rng(778899)
    n_instances = 100
    status_agree = 0
    n_optimal = 0
    n_infeasible = 0
    max_rel = 0.0
    small = True
    for _ in range(n_instances):
        case, params, mode = random_instance(rng)
        ir, _ = build_igtep(case, params, mode)
        if len(ir.free_binaries()) > 10:
            small = False
        ext = external_solve(ir, SolveConfig(time_limit=60.0))
        orc = oracle_solve(ir, SolveConfig(backend="oracle", time_limit=60.0))
        if ext.status == orc.status:
            status_agree += 1
        if ext.status == "optimal" and orc.status == "optimal":
            n_optimal += 1
            rel = (abs(ext.objective - orc.objective)
                   / max(1.0, abs(orc.objective)))
            max_rel = max(max_rel, rel)
        elif orc.status == "infeasible":
            n_infeasible += 1
    elapsed = time.perf_counter() - start

    ok = (status_agree == n_instances and small and max_rel <= 1e-6
          and elapsed < 300.0)
    line = report(ok, 7, "backend vs enumeration oracle",
                  f"statuses {status_agree}/{n_instances} "
                  f"({n_optimal} optimal, {n_infeasible} infeasible, "
                  f"<=10 free binaries each), max rel objective diff "
                  f"{max_rel:.2e} (<=1e-6), {elapsed:.0f}s (<300s)")
    assert ok, line


def test_criterion_8_uncertainty_model():
    quantile_err = 0.0
    for r in np.linspace(0.01, 0.49, 49):
        omega = omega_from_reliability(float(r))
        quantile_err = max(quantile_err,
                           abs(normal_cdf(omega) - (1.0 - float(r))))

    norm_err = 0.0
    for n in (1, 7, 64, 255, 500):
        for rho in (0.2, 0.5, 0.731):
            total = sum(binomial_pmf(n, k, rho) for k in range(n + 1))
            norm_err = max(norm_err, abs(total - 1.0))

    n, rho = 1000, 0.5
    approx = binomial_normal_approx(n, rho)
    tv = 0.0
    for k in range(n + 1):
        z_hi = (k + 0.5 - approx.mean) / approx.std_dev
        z_lo = (k - 0.5 - approx.mean) / approx.std_dev
        cell = normal_cdf(z_hi) - normal_cdf(z_lo)
        tv += abs(binomial_pmf(n, k, rho) - cell)
    tv *= 0.5

    ok = quantile_err <= 1e-7 and norm_err <= 1e-12 and tv < 0.02
    line = report(ok, 8, "uncertainty model",
                  f"max |(1-R) - Phi(omega)| {quantile_err:.2e} (<=1e-7, "
                  f"49 levels); pmf normalization error {norm_err:.2e} "
                  f"(<=1e-12, n up to 500); binomial-vs-normal total "
                  f"variation {tv:.5f} at n=1000 rho=0.5 (<0.02)")
    assert ok, line
