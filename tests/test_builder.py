"""Model assembly, plan extraction and the heat-balance audits."""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from gridxpand import (ModelIR, RobustParams, SolveConfig, WeatherRecord,
                       build_igtep, extract_plan, external_solve,
                       hbe_certificate_bound, hbe_residual_audit,
                       line_convection, oracle_solve, radiation_log_fit,
                       robust_margin)
from gridxpand.builder import MODES, SQUARE_CUTS, reference_bus
from gridxpand.errors import ExtractionError, ModelBuildError
from gridxpand.ir import CONTINUOUS, EQ, GE, LE
from gridxpand.solve import simplex_lp
from support import (PROBE_TOL, STANDARD_ROBUST, UNRATED, angle_window_span,
                     assert_row_equivalent, build_window_form,
                     corridor_count,
                     heat_balance_lp, minmax_output, name_tag_counts,
                     random_instance, scan_governing_convection, toy_case,
                     toy_dc_det_objective, toy_robust_objective, with_line)

ZERO_PROTECTION = RobustParams(phi=0.0, mu=0.0, reliability=0.05)


def solved_plan(case, params, mode):
    ir, vm = build_igtep(case, params, mode)
    solution = external_solve(ir, SolveConfig(time_limit=60.0))
    return extract_plan(solution, vm, case), ir, vm, solution


def stressed_case(*, with_weather: bool = True):
    """Toy variant whose optimum must build the candidate line."""
    case = toy_case(with_weather=with_weather, peak=150.0)
    gens = (dataclasses.replace(case.generators[0], p_max=200.0),
            case.generators[1])
    return dataclasses.replace(case, generators=gens)


class TestReferenceBus:
    def test_numeric_ids_sort_numerically(self):
        case = toy_case()
        buses = tuple(dataclasses.replace(case.buses[0], id=i,
                                          load_weight=w)
                      for i, w in (("10", 0.5), ("2", 0.5)))
        assert reference_bus(dataclasses.replace(case, buses=buses)) == "2"

    def test_alphabetic_fallback(self):
        case = toy_case()
        buses = tuple(dataclasses.replace(case.buses[0], id=i, load_weight=w)
                      for i, w in (("beta", 0.5), ("alpha", 0.5)))
        assert reference_bus(dataclasses.replace(case, buses=buses)) == "alpha"

    def test_numbers_beat_names(self):
        case = toy_case()
        buses = tuple(dataclasses.replace(case.buses[0], id=i, load_weight=w)
                      for i, w in (("zz", 0.5), ("7", 0.5)))
        assert reference_bus(dataclasses.replace(case, buses=buses)) == "7"


class TestBuildErrors:
    def test_unknown_mode(self):
        with pytest.raises(ModelBuildError, match="unknown mode"):
            build_igtep(toy_case(), None, "ac_opf")

    def test_robust_modes_need_params(self):
        for mode in ("dc_robust", "dtlr_robust"):
            with pytest.raises(ModelBuildError, match="robustness parameters"):
                build_igtep(toy_case(), None, mode)

    def test_thermal_mode_needs_weather(self):
        with pytest.raises(ModelBuildError, match="needs weather"):
            build_igtep(toy_case(with_weather=False), STANDARD_ROBUST,
                        "dtlr_robust")

    def test_invalid_case_rejected(self):
        case = toy_case()
        buses = (case.buses[0],
                 dataclasses.replace(case.buses[1], load_weight=0.5))
        with pytest.raises(ModelBuildError, match="fails validation"):
            build_igtep(dataclasses.replace(case, buses=buses), None, "dc_det")

    def test_t_max_at_or_below_coldest_ambient_rejected(self):
        case = toy_case()   # ambient 298 K on both lines
        lines = tuple(dataclasses.replace(c, t_max=298.0) for c in case.lines)
        with pytest.raises(ModelBuildError, match="coldest ambient"):
            build_igtep(dataclasses.replace(case, lines=lines),
                        STANDARD_ROBUST, "dtlr_robust")
        # one line rated above the coldest ambient is enough
        lines = (lines[0], dataclasses.replace(lines[1], t_max=299.0))
        ir, _ = build_igtep(dataclasses.replace(case, lines=lines),
                            STANDARD_ROBUST, "dtlr_robust")
        assert ir.num_variables > 0

    def test_excessive_uncertainty_rejected(self):
        params = RobustParams(phi=0.7, mu=0.01, reliability=0.05)
        with pytest.raises(ModelBuildError, match="convection caps"):
            build_igtep(toy_case(), params, "dtlr_robust")


class TestModelShape:
    def test_free_binary_counts(self):
        case = toy_case()
        for mode, params, expected in (("dc_det", None, 2),
                                       ("dc_robust", STANDARD_ROBUST, 2),
                                       # L runs along E: one cosine side
                                       ("dtlr_robust", STANDARD_ROBUST, 3)):
            ir, _ = build_igtep(case, params, mode)
            assert len(ir.free_binaries()) == expected, mode

    def test_every_column_is_bounded(self, six_bus, six_bus_robust, rts24,
                                     rts24_scenario):
        """Finite bounds on every column of the shipped cases in each mode
        and of random draws, so no negative reduced cost can fall on an
        unbounded column and leave the oracle's dual bound without a
        floor."""
        models = [build_igtep(case, params, mode)[0]
                  for case, params in ((six_bus, six_bus_robust),
                                       (rts24, rts24_scenario.robust))
                  for mode in MODES]
        rng = np.random.default_rng(606)
        models += [build_igtep(*random_instance(rng))[0] for _ in range(60)]
        for ir in models:
            unbounded = [v.name for v in ir.variables
                         if not np.isfinite([v.lower, v.upper]).all()]
            assert unbounded == [], ir.metadata["mode"]

    @pytest.mark.parametrize("case_name, shape", [
        ("six_bus", (387, 500, 75)),
        ("rts24", (1242, 1300, 206)),
    ])
    def test_shipped_thermal_model_shape(self, request, case_name, shape):
        """Columns, rows and free binaries of the shipped thermal models.

        Per corridor (the lines between one pair of buses) and period: the
        angle difference, its cosine side and positive part, with the
        angle's defining row and the side's three hull rows.  Per line and
        period: the flow.  The heat balance is a build-time rating, so no
        temperature, convection, radiation or current column and no square
        cut is left; the rating bounds an existing line's flow column and
        sits in a candidate's ``accap`` rows.  No window or product row of
        the earlier side selection remains.
        """
        case = request.getfixturevalue(case_name)
        params = request.getfixturevalue(f"{case_name}_scenario").robust
        ir, _ = build_igtep(case, params, "dtlr_robust")
        assert (ir.num_variables, ir.num_rows,
                len(ir.free_binaries())) == shape
        columns, rows = name_tag_counts(ir)
        n_lp = len(case.lines) * len(case.periods)
        n_cp = len({frozenset((c.from_bus, c.to_bus))
                    for c in case.lines}) * len(case.periods)
        n_cand = sum(c.candidate for c in case.lines) * len(case.periods)
        for name in ("adiff", "trig.cos_side", "trig.cos_pos"):
            assert columns[name] == n_cp, name
        assert columns["flow"] == n_lp
        for name in ("adiff_def", "trig.cos_pos_hi", "trig.cos_pos_lo",
                     "trig.cos_neg_lo"):
            assert rows[name] == n_cp, name
        assert rows["acflow"] == n_lp - n_cand
        for name in ("acflow_hi", "acflow_lo", "accap_hi", "accap_lo"):
            assert rows[name] == n_cand, name
        gone = ("hbe", "conv", "rad", "temp", "current")
        for counts in (columns, rows):
            assert not [t for t in counts
                        if t.split(".")[0] in gone or t.endswith(".sq_cut")
                        or "cos_window" in t or ".prod" in t]

    @pytest.mark.parametrize("case_name, n_sides", [("six_bus", 55),
                                                     ("rts24", 170)])
    def test_one_cosine_side_per_corridor(self, request, case_name,
                                          n_sides):
        """One cosine-side binary per corridor and period, named after the
        corridor's first line in case order and recorded in ``VarMap``
        under that line's buses; every line's flow reads its corridor's
        angle difference and positive part."""
        case = request.getfixturevalue(case_name)
        params = request.getfixturevalue(f"{case_name}_scenario").robust
        ir, vm = build_igtep(case, params, "dtlr_robust")
        sides = [v for v in ir.variables if v.name.endswith(".cos_side")]
        assert len(sides) == len(vm.cos_side) == n_sides
        first = {}
        for c in case.lines:
            first.setdefault(frozenset((c.from_bus, c.to_bus)), c)
        assert n_sides == len(first) * len(case.periods)
        for d in case.periods:
            for c in case.lines:
                lead = first[frozenset((c.from_bus, c.to_bus))]
                tag = f"{lead.id},{d.id}"
                side = ir.variable(f"trig[{tag}].cos_side").index
                assert vm.cos_side[lead.from_bus, lead.to_bus, d.id] == side
                pos = ir.variable(f"trig[{tag}].cos_pos").index
                x = ir.variable(f"adiff[{tag}]").index
                name = ("acflow_hi" if c.candidate else "acflow")
                row = next(r for r in ir.rows
                           if r.name == f"{name}[{c.id},{d.id}]")
                assert x in row.coeffs and pos in row.coeffs, (c.id, d.id)

    def test_metadata_records_mode_and_big_m(self):
        ir, _ = build_igtep(toy_case(), None, "dc_det")
        assert ir.metadata["mode"] == "dc_det"
        assert "robust" not in ir.metadata
        assert "switch[L,p1].ohm_relax" in ir.metadata["big_m"]

    def test_metadata_records_certificates(self):
        ir, _ = build_igtep(toy_case(), STANDARD_ROBUST, "dtlr_robust")
        assert ir.metadata["robust"]["omega"] == STANDARD_ROBUST.omega
        certs = ir.metadata["certificates"]
        assert certs["trig"]["cos_max_rel_err"] < 0.05
        assert set(certs["square_gap_w_per_m"]) == {"E,p1", "L,p1"}
        assert set(certs["radiation_band_w_per_m"]) == {"E,p1", "L,p1"}

    def test_radiation_bands_match_a_fresh_fit(self, six_bus,
                                               six_bus_robust):
        """Memoized fits leave every radiation certificate as it was."""
        fresh = functools.lru_cache(radiation_log_fit.__wrapped__)
        for _ in range(2):
            ir, _ = build_igtep(six_bus, six_bus_robust, "dtlr_robust")
            bands = ir.metadata["certificates"]["radiation_band_w_per_m"]
            assert len(bands) == len(six_bus.lines) * len(six_bus.periods)
            for d in six_bus.periods:
                for c in six_bus.lines:
                    weather = d.weather[c.id]
                    fit = fresh(c.conductor.emissivity,
                                weather.radiation_coeff,
                                min(273.0, weather.ambient_temp),
                                max(373.0, c.t_max))
                    assert bands[f"{c.id},{d.id}"] == fit.band

    def test_angle_diff_window(self):
        """A corridor's angle difference is bounded by its existing lines'
        ratings; a candidate leaves the trig window, so a corridor of
        candidates keeps it.  In the toy, candidate L runs along E and
        shares E's angle difference."""
        case = toy_case()
        ir, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        amps = vm.ratings["E", "p1"].amps
        line = case.line("E")
        x = ir.variable("adiff[E,p1]")
        assert x.upper == min(0.6, amps / (0.95 * line.susceptance
                                           + 0.24 * line.conductance))
        assert x.lower == -min(0.6, amps / abs(0.95 * line.susceptance
                                               - 0.24 * line.conductance))
        assert -0.6 < x.lower < 0.0 < x.upper < 0.6
        assert not any(v.name == "adiff[L,p1]" for v in ir.variables)
        ir, _ = build_igtep(with_line(case, "E", candidate=True,
                                      install_cost=1e5),
                            STANDARD_ROBUST, "dtlr_robust")
        x = ir.variable("adiff[E,p1]")
        assert (x.lower, x.upper) == (-0.6, 0.6)

    def test_reversed_member_takes_the_mirrored_bounds(self):
        """A member that runs against its corridor bounds the shared angle
        difference by its own bounds negated and swapped: with L an
        existing line from bus 2 to bus 1 beside E, the corridor's bounds
        are the intersection of E's and of L's mirrored.  L's resistance is
        high, so its asymmetric bounds are the tighter ones."""
        case = toy_case()
        case = with_line(case, "L", candidate=False, install_cost=0.0,
                         from_bus="2", to_bus="1", conductance=3.0,
                         resistance_at_tmax=40.0)
        ir, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        x = ir.variable("adiff[E,p1]")
        bounds = {}
        for c in case.lines:
            amps = vm.ratings[c.id, "p1"].amps
            slope_up = 0.95 * c.susceptance + 0.24 * c.conductance
            slope_down = abs(0.95 * c.susceptance - 0.24 * c.conductance)
            bounds[c.id] = (-min(0.6, amps / slope_down),
                            min(0.6, amps / slope_up))
        (e_lo, e_hi), (l_lo, l_hi) = bounds["E"], bounds["L"]
        assert (x.lower, x.upper) == (max(e_lo, -l_hi), min(e_hi, -l_lo))
        assert (x.lower, x.upper) == (-l_hi, -l_lo) != (l_lo, l_hi)

    def test_weather_optional_outside_thermal_mode(self):
        ir, _ = build_igtep(toy_case(with_weather=False), None, "dc_det")
        assert ir.num_variables > 0


class TestRobustReduction:
    def test_zero_protection_matches_deterministic_rows(self):
        case = toy_case()
        det_ir, _ = build_igtep(case, None, "dc_det")
        rob_ir, _ = build_igtep(case, ZERO_PROTECTION, "dc_robust")
        assert_row_equivalent(det_ir, rob_ir)

    def test_balance_sense_is_the_only_difference(self):
        case = toy_case()
        det_ir, _ = build_igtep(case, None, "dc_det")
        rob_ir, _ = build_igtep(case, ZERO_PROTECTION, "dc_robust")
        det_senses = {r.name: r.sense for r in det_ir.rows}
        for row in rob_ir.rows:
            if row.name.startswith("balance"):
                assert row.sense == GE and det_senses[row.name] == EQ
            else:
                assert row.sense == det_senses[row.name]

    def test_balance_rhs_uses_robust_margin(self):
        case = toy_case()
        ir, _ = build_igtep(case, STANDARD_ROBUST, "dc_robust")
        rows = {r.name: r for r in ir.rows}
        for bus_id in ("1", "2"):
            net = case.net_demand_forecast(bus_id, "p1")
            tighten, relax = robust_margin(net, STANDARD_ROBUST)
            assert rows[f"balance[{bus_id},p1]"].rhs == net + tighten - relax


class TestPlanExtraction:
    def test_deterministic_toy_plan(self):
        plan, _, _, _ = solved_plan(toy_case(), None, "dc_det")
        assert plan.status == "optimal"
        assert plan.objective == pytest.approx(toy_dc_det_objective(),
                                               rel=1e-9)
        assert plan.added_units == ("U1",)
        assert plan.added_lines == ()
        assert plan.element_count == 1
        assert plan.has_plan
        assert plan.dispatch["EG", "p1"] == pytest.approx(80.0)
        assert plan.flows["E", "p1"] == pytest.approx(0.8)

    def test_robust_toy_plan(self):
        plan, _, _, _ = solved_plan(toy_case(), STANDARD_ROBUST, "dc_robust")
        assert plan.objective == pytest.approx(
            toy_robust_objective(STANDARD_ROBUST), rel=1e-9)

    def test_candidate_line_built_when_needed(self):
        plan, _, _, _ = solved_plan(stressed_case(), None, "dc_det")
        assert plan.added_lines == ("L",)
        assert plan.added_units == ()
        assert plan.objective == pytest.approx(5e5 + 150.0 * 10.0 * 100.0)
        assert plan.flows["E", "p1"] == pytest.approx(0.75)
        assert plan.flows["L", "p1"] == pytest.approx(0.75)

    def test_unbuilt_candidate_is_electrically_absent(self):
        plan, _, _, _ = solved_plan(toy_case(), None, "dc_det")
        assert plan.flows["L", "p1"] == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_solution_gives_empty_plan(self):
        case = toy_case(peak=1000.0)   # far beyond all capacity
        plan, _, _, _ = solved_plan(case, None, "dc_det")
        assert plan.status == "infeasible"
        assert not plan.has_plan
        assert plan.objective is None
        assert plan.dispatch == {}

    def test_fractional_binary_rejected(self):
        case = toy_case()
        ir, vm = build_igtep(case, None, "dc_det")
        solution = external_solve(ir)
        solution.values[vm.line_built["L"]] = 0.4
        with pytest.raises(ExtractionError, match="fractional"):
            extract_plan(solution, vm, case)

    def test_objective_mismatch_rejected(self):
        case = toy_case()
        ir, vm = build_igtep(case, None, "dc_det")
        solution = external_solve(ir)
        solution.objective += 50.0
        with pytest.raises(ExtractionError, match="disagrees"):
            extract_plan(solution, vm, case)

    def test_no_binding_relaxations_on_sound_toy(self):
        plan, _, _, _ = solved_plan(toy_case(), None, "dc_det")
        assert plan.audit["binding_relaxations"] == []
        assert "switch[L,p1].ohm_relax" in plan.audit["big_m_log"]


class TestThermalPlans:
    def test_toy_thermal_matches_robust_dc(self):
        plan, _, _, _ = solved_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust")
        # Neither the static limit nor the thermal cap binds at this peak,
        # so the rating machinery must not move the optimum.
        assert plan.objective == pytest.approx(
            toy_robust_objective(STANDARD_ROBUST), rel=1e-8)

    def test_temperatures_within_physical_range(self):
        case = toy_case()
        plan, _, _, _ = solved_plan(case, STANDARD_ROBUST, "dtlr_robust")
        temp = plan.temperatures["E", "p1"]
        weather = case.period("p1").weather["E"]
        assert weather.ambient_temp <= temp <= case.line("E").t_max
        # the unbuilt candidate's temperature is gated to zero
        assert plan.temperatures["L", "p1"] == pytest.approx(0.0, abs=1e-7)

    def test_residuals_within_certificate(self):
        case = stressed_case()
        plan, _, _, _ = solved_plan(case, STANDARD_ROBUST, "dtlr_robust")
        assert plan.added_lines == ("L",)
        residuals = hbe_residual_audit(plan, case)
        bounds = hbe_certificate_bound(case, STANDARD_ROBUST)
        assert set(residuals) == {("E", "p1"), ("L", "p1")}
        for key, residual in residuals.items():
            assert residual <= bounds[key] + 1e-9, key

    def test_audit_reports_the_exact_heat_balance(self):
        case = stressed_case()
        plan, _, _, _ = solved_plan(case, STANDARD_ROBUST, "dtlr_robust")
        residuals = hbe_residual_audit(plan, case)
        assert set(residuals) == {("E", "p1"), ("L", "p1")}
        for (line_id, period_id), residual in residuals.items():
            c = case.line(line_id)
            weather = case.period(period_id).weather[line_id]
            k = line_convection(c.conductor, weather).governing
            current = abs(plan.flows[line_id, period_id]) * case.current_base
            t = plan.temperatures[line_id, period_id]
            t_env = weather.ambient_temp
            expected = (current ** 2 * c.resistance_per_meter
                        + weather.solar_gain
                        - k * (t - t_env)
                        - c.conductor.emissivity * weather.radiation_coeff
                        * (t ** 4 - t_env ** 4))
            assert residual == pytest.approx(expected, rel=1e-12), line_id

    def test_audit_skips_unbuilt_lines(self):
        case = toy_case()
        plan, _, _, _ = solved_plan(case, STANDARD_ROBUST, "dtlr_robust")
        assert set(hbe_residual_audit(plan, case)) == {("E", "p1")}

    def test_audit_requires_thermal_mode(self):
        case = toy_case()
        plan, _, _, _ = solved_plan(case, None, "dc_det")
        with pytest.raises(ExtractionError, match="dtlr_robust"):
            hbe_residual_audit(plan, case)

    @pytest.mark.parametrize("case_name", ["six_bus", "rts24"])
    def test_certificate_bound_restates_the_model(self, request, case_name):
        """The audit bound is, bit for bit, the square-cut gap plus the
        radiation band the model was built with plus the two tolerance
        terms, and the gap and band are those of the stated formulas."""
        case = request.getfixturevalue(case_name)
        params = request.getfixturevalue(f"{case_name}_scenario").robust
        ir, _ = build_igtep(case, params, "dtlr_robust")
        certs = ir.metadata["certificates"]
        bounds = hbe_certificate_bound(case, params)
        i_base = case.current_base
        for d in case.periods:
            for c in case.lines:
                weather = d.weather[c.id]
                x_ac = angle_window_span(c.susceptance, c.conductance)
                c2 = c.resistance_per_meter * i_base * i_base
                gap = c2 * (x_ac / (SQUARE_CUTS - 1) / 2.0) ** 2
                band = radiation_log_fit(c.conductor.emissivity,
                                         weather.radiation_coeff,
                                         min(273.0, weather.ambient_temp),
                                         max(373.0, c.t_max)).band
                tag = f"{c.id},{d.id}"
                assert certs["square_gap_w_per_m"][tag] == gap, tag
                assert certs["radiation_band_w_per_m"][tag] == band, tag
                _, relax = robust_margin(weather.solar_gain, params)
                tol = params.mu + relax
                assert bounds[c.id, d.id] == gap + band + tol, tag

    def test_rating_follows_governing_convection(self):
        bad = scan_governing_convection(np.random.default_rng(105), 12)
        assert bad == []

    def test_oracle_confirms_external_on_thermal_toy(self):
        case = toy_case()
        ir, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        ext = external_solve(ir, SolveConfig(time_limit=60.0))
        orc = oracle_solve(ir, SolveConfig(backend="oracle", time_limit=60.0))
        assert ext.status == orc.status == "optimal"
        assert orc.objective == pytest.approx(ext.objective, rel=1e-6)


class TestThermalRating:
    """The build-time rating against the heat-balance rows it replaced."""

    def test_rating_matches_heat_balance_lp(self):
        rng = np.random.default_rng(2024)
        base = toy_case()
        below_cap = unrated = 0
        for k in range(30):
            t_env = float(rng.uniform(268.0, 318.0))
            weather = WeatherRecord(
                ambient_temp=t_env, wind_speed=float(rng.uniform(0.3, 6.0)),
                solar_gain=float(rng.uniform(0.0, 40.0)),
                radiation_coeff=float(rng.uniform(2e-9, 3e-9)))
            conductor = dataclasses.replace(
                base.line("E").conductor,
                diameter=float(rng.uniform(0.015, 0.04)),
                emissivity=float(rng.uniform(0.3, 0.95)))
            case = with_line(
                base, "E", weather, conductor=conductor,
                t_max=max(274.0, t_env + float(rng.uniform(5.0, 110.0))),
                resistance_at_tmax=float(rng.uniform(0.3, 4.0)),
                susceptance=float(rng.uniform(2.0, 8.0)),
                conductance=float(rng.uniform(0.2, 1.5)))
            params = RobustParams(phi=float(rng.uniform(0.0, 0.3)),
                                  mu=float(rng.uniform(0.0, 0.05)),
                                  reliability=float(rng.uniform(0.01, 0.3)))
            line = case.line("E")
            _, vm = build_igtep(case, params, "dtlr_robust")
            rating = vm.ratings["E", "p1"]
            want = heat_balance_lp(line, weather, params, case.current_base)
            if want is None:
                assert rating.amps is None, k
                unrated += 1
                continue
            assert rating.amps == pytest.approx(want, abs=PROBE_TOL), k
            below_cap += rating.amps < rating.cut_range
            # The reported temperature is the lowest the rows admit.
            amps = float(rng.uniform(0.0, rating.amps))
            lowest = heat_balance_lp(line, weather, params,
                                     case.current_base, current=amps)
            assert rating.temperature(amps) == pytest.approx(lowest,
                                                             abs=1e-6), k
        assert 0 < below_cap < 30 - unrated

    def test_angle_bounds_are_the_lp_extremes(self):
        """An existing line's angle bounds are the max and min of ``x`` in
        the trig window under ``|s_sin*B*x + s_cos*G*|x|| <= amps``, solved
        as one LP per side.  Candidate L shares E's corridor and leaves the
        window, so the corridor's angle difference ``adiff[E,p1]`` carries
        exactly E's bounds."""
        rng = np.random.default_rng(4242)
        base = toy_case()
        binding = steep_neg = 0
        for k in range(24):
            # Every other draw has s_sin*B < s_cos*G: the flow then grows
            # with |x| on the negative side too.
            conductance = float(rng.uniform(0.2, 6.0))
            ratio = rng.uniform(0.05, 0.25) if k % 2 else rng.uniform(0.26, 3.0)
            case = with_line(
                base, "E", resistance_at_tmax=float(rng.uniform(0.3, 80.0)),
                susceptance=conductance * float(ratio),
                conductance=conductance)
            line = case.line("E")
            ir, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
            amps = vm.ratings["E", "p1"].amps
            x = ir.variable("adiff[E,p1]")
            extremes = []
            for lo, hi, abs_sign in ((-0.6, 0.0, -1.0), (0.0, 0.6, 1.0)):
                lp = ModelIR()
                xv = lp.add_variable("x", CONTINUOUS, lo, hi)
                slope = (0.95 * line.susceptance
                         + abs_sign * 0.24 * line.conductance)
                lp.add_row("cap_hi", {xv: slope}, LE, amps)
                lp.add_row("cap_lo", {xv: slope}, GE, -amps)
                extremes.append(minmax_output(lp, xv))
            assert x.lower == pytest.approx(extremes[0][0], abs=PROBE_TOL), k
            assert x.upper == pytest.approx(extremes[1][1], abs=PROBE_TOL), k
            binding += x.lower > -0.6 or x.upper < 0.6
            steep_neg += (0.95 * line.susceptance < 0.24 * line.conductance
                          and x.lower > -0.6)
        assert 0 < binding < 24 and steep_neg > 0

    @pytest.mark.parametrize("edge", sorted(UNRATED))
    def test_unrated_existing_line_makes_plan_infeasible(self, edge):
        case = with_line(toy_case(), "E", **UNRATED[edge])
        assert heat_balance_lp(case.line("E"), case.periods[0].weather["E"],
                               STANDARD_ROBUST, case.current_base) is None
        plan, _, vm, _ = solved_plan(case, STANDARD_ROBUST, "dtlr_robust")
        assert vm.ratings["E", "p1"].amps is None
        assert plan.status == "infeasible"

    @pytest.mark.parametrize("edge", sorted(UNRATED))
    def test_unrated_candidate_is_never_built(self, edge):
        case = with_line(stressed_case(), "L", **UNRATED[edge])
        plan, ir, vm, _ = solved_plan(case, STANDARD_ROBUST, "dtlr_robust")
        assert vm.ratings["L", "p1"].amps is None
        assert "L" not in plan.added_lines
        status, _, _ = simplex_lp(ir, bounds_override={vm.line_built["L"]:
                                                       (1.0, 1.0)})
        assert status == "infeasible"

    @pytest.mark.parametrize("edge", sorted(UNRATED))
    def test_unrated_candidate_is_unbuilt_in_the_rated_dc_model(self, edge):
        """The DC model under the thermal ratings fixes an unrated candidate
        unbuilt by the thermal model's ``unrated`` row; the line never
        reaches the switched-flow gadget, which refuses a zero limit."""
        case = with_line(stressed_case(), "L", **UNRATED[edge])
        _, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        ir, dc_vm = build_igtep(case, STANDARD_ROBUST, "dc_robust",
                                _ratings=vm.ratings)
        names = {row.name for row in ir.rows}
        assert "unrated[L,p1]" in names
        assert not any(name.startswith("switch[L,") for name in names)
        flow = ir.variable("flow[L,p1]")
        assert flow.lower == flow.upper == 0.0
        status, _, _ = simplex_lp(ir, bounds_override={dc_vm.line_built["L"]:
                                                       (1.0, 1.0)})
        assert status == "infeasible"

    def test_rated_dc_model_limits_flows_by_the_ratings(self):
        """Existing lines bound their flow column, candidates their switch
        rows, by the thermal rating of each line-period."""
        case = stressed_case()
        _, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        ir, dc_vm = build_igtep(case, STANDARD_ROBUST, "dc_robust",
                                _ratings=vm.ratings)
        static, _ = build_igtep(case, STANDARD_ROBUST, "dc_robust")
        amps = {c.id: vm.ratings[c.id, "p1"].amps for c in case.lines}
        for c in case.lines:
            assert amps[c.id] not in (None, c.flow_limit), c.id
        assert ir.variable("flow[E,p1]").upper == amps["E"]
        assert ir.variable("flow[E,p1]").lower == -amps["E"]
        row = next(r for r in ir.rows if r.name == "switch[L,p1].cap_hi")
        assert row.coeffs[dc_vm.line_built["L"]] == -amps["L"]
        assert [r.name for r in ir.rows] == [r.name for r in static.rows]


class TestCosSideHull:
    def test_window_form_gives_the_same_optimum(self):
        """The side rows of the disjunctive hull over the rating-implied
        angle bounds against the earlier window and product rows over the
        whole trig window: same status and optimum on seeded thermal draws.
        Each draw is solved as drawn and with its lines' resistance scaled
        up, so that ratings, and with them the angle bounds, bind."""
        rng = np.random.default_rng(9090)
        config = SolveConfig(time_limit=60.0)
        n_thermal = n_optimal = n_binding = 0
        while n_thermal < 24:
            drawn, params, mode = random_instance(rng)
            if mode != "dtlr_robust":
                continue
            n_thermal += 1
            scale = float(rng.uniform(4.0, 40.0))
            stressed = dataclasses.replace(drawn, lines=tuple(
                dataclasses.replace(c, resistance_at_tmax=scale
                                    * c.resistance_at_tmax)
                for c in drawn.lines))
            for case in (drawn, stressed):
                ir, _ = build_igtep(case, params, mode)
                window_ir, _ = build_window_form(case, params)
                assert window_ir.num_rows == (ir.num_rows
                                              + 3 * corridor_count(ir))
                got = external_solve(ir, config)
                want = external_solve(window_ir, config)
                assert got.status == want.status, n_thermal
                if want.status != "optimal":
                    continue
                n_optimal += 1
                assert got.objective == pytest.approx(want.objective,
                                                      rel=1e-7), n_thermal
                n_binding += any(
                    min(v.upper - got.values[v.index],
                        got.values[v.index] - v.lower) <= 1e-7
                    and (v.lower, v.upper) != (-0.6, 0.6)
                    for v in ir.variables if v.name.startswith("adiff"))
        assert n_optimal >= 20 and n_binding >= 3


class TestModes:
    def test_mode_tuple_is_public_contract(self):
        assert MODES == ("dc_det", "dc_robust", "dtlr_robust")
