"""Planning runs, sweeps and their deterministic result documents."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridxpand.runner as runner_module
from gridxpand import (PlanResult, SolveConfig, SweepSpec, build_igtep,
                       external_solve, hbe_certificate_bound,
                       hbe_residual_audit, oracle_solve, plan_document,
                       plan_table, run_plan, run_sweep, scale_to_peak,
                       sweep_table, write_document)
from gridxpand.ir import GE
from support import (CORRIDOR_KINDS, STANDARD_ROBUST, UNRATED,
                     build_per_line_form, corridor_count, corridor_direction,
                     corridor_instance, random_instance,
                     reverse_rated_instance, toy_case, toy_dc_det_objective,
                     toy_robust_objective, with_line)

FAST = SolveConfig(time_limit=60.0)


class TestRunPlan:
    def test_audit_carries_backend_and_runtime(self):
        plan = run_plan(toy_case(), None, "dc_det", FAST)
        assert plan.audit["backend"] == "external"
        assert plan.audit["runtime_s"] > 0.0

    def test_thermal_run_attaches_hbe_audit(self):
        plan = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust", FAST)
        hbe = plan.audit["hbe"]
        assert set(hbe["residuals_w_per_m"]) == {"E,p1"}
        assert hbe["max_residual_w_per_m"] <= hbe["residuals_w_per_m"]["E,p1"] \
            + 1e-12
        assert hbe["worst_margin_w_per_m"] > 0.0
        assert set(hbe["bounds_w_per_m"]) == {"E,p1"}

    def test_dc_run_has_no_hbe_block(self):
        plan = run_plan(toy_case(), STANDARD_ROBUST, "dc_robust", FAST)
        assert "hbe" not in plan.audit
        assert plan.objective == pytest.approx(
            toy_robust_objective(STANDARD_ROBUST), rel=1e-9)

    def test_infeasible_run_skips_audits(self):
        plan = run_plan(toy_case(peak=1000.0), STANDARD_ROBUST,
                        "dtlr_robust", FAST)
        assert plan.status == "infeasible"
        assert "hbe" not in plan.audit

    def test_audit_carries_solver_statistics(self):
        plan = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust", FAST)
        solver = plan.audit["solver"]
        assert 0.0 <= solver["mip_gap"] <= FAST.mip_gap
        assert solver["mip_dual_bound"] == pytest.approx(plan.objective,
                                                         rel=1e-6)
        assert solver["mip_node_count"] >= 0
        assert solver["seeded"] is True
        assert solver["sub_mips"] is False

    def test_only_external_thermal_runs_are_seeded(self):
        dc = run_plan(toy_case(), STANDARD_ROBUST, "dc_robust", FAST)
        oracle = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust",
                          SolveConfig(backend="oracle", time_limit=60.0))
        assert dc.audit["solver"]["seeded"] is False
        assert oracle.audit["solver"]["seeded"] is False
        assert oracle.audit["solver"]["mip_gap"] is None

    def test_static_solves_run_without_sub_mip_heuristics(self,
                                                           monkeypatch):
        calls = []

        def recording(name):
            inner = getattr(runner_module, name)

            def wrapper(*args, **kwargs):
                calls.append((name, kwargs.get("sub_mips", True)))
                return inner(*args, **kwargs)
            monkeypatch.setattr(runner_module, name, wrapper)

        recording("external_solve")
        recording("solve")
        dc = run_plan(toy_case(), STANDARD_ROBUST, "dc_det", FAST)
        assert calls == [("solve", False)]
        assert dc.audit["solver"]["sub_mips"] is False
        calls.clear()
        thermal = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust", FAST)
        # the rated DC seed, then the seeded full solve
        assert calls == [("external_solve", False), ("solve", False)]
        assert thermal.audit["solver"]["sub_mips"] is False

    def test_cold_solve_when_the_rated_seed_finds_no_plan(self):
        plan = run_plan(toy_case(peak=1000.0), STANDARD_ROBUST,
                        "dtlr_robust", FAST)
        assert plan.audit["solver"]["seeded"] is False
        assert plan.audit["solver"]["sub_mips"] is True

    def test_seed_past_the_time_limit_gives_a_limit_plan(self, monkeypatch,
                                                         rts24,
                                                         rts24_scenario):
        """A seed that uses up the limit leaves the final solve a floor of
        time, and HiGHS reports the limit; no negative limit is raised."""
        def slow_seed(*args):
            time.sleep(0.05)
            return None
        monkeypatch.setattr(runner_module, "_thermal_start", slow_seed)
        plan = run_plan(scale_to_peak(rts24, 4000.0), rts24_scenario.robust,
                        "dtlr_robust", SolveConfig(time_limit=0.01))
        assert plan.status == "limit"
        assert plan.audit["solver"]["seeded"] is False


class TestSeededThermalRuns:
    def test_start_never_changes_the_optimum(self):
        """Seeded ``run_plan`` against the enumeration oracle, cold."""
        rng = np.random.default_rng(31337)
        n_thermal = n_seeded = n_optimal = 0
        while n_thermal < 12:
            case, params, mode = random_instance(rng)
            if mode != "dtlr_robust":
                continue
            n_thermal += 1
            plan = run_plan(case, params, mode, FAST)
            ir, _ = build_igtep(case, params, mode)
            ref = oracle_solve(ir, SolveConfig(backend="oracle",
                                               time_limit=60.0))
            assert plan.status == ref.status
            n_seeded += plan.audit["solver"]["seeded"]
            if ref.status == "optimal":
                n_optimal += 1
                assert abs(plan.objective - ref.objective) <= \
                    1e-6 * max(1.0, abs(ref.objective))
        # the draws must exercise the seeded path on feasible instances
        assert n_seeded >= 5 and n_optimal >= 5

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_thermal_draws_match_the_oracle_within_the_hbe_bound(self, seed):
        """On any thermal draw of ``random_instance``, the seeded
        ``run_plan`` and an unseeded solve match the oracle, and every heat
        balance of the plan stays within the certified bound."""
        rng = np.random.default_rng(seed)
        mode = None
        while mode != "dtlr_robust":
            case, params, mode = random_instance(rng)
        plan = run_plan(case, params, mode, FAST)
        ir, _ = build_igtep(case, params, mode)
        cold = external_solve(ir, FAST)
        ref = oracle_solve(ir, SolveConfig(backend="oracle", time_limit=60.0))
        assert plan.status == cold.status == ref.status
        if ref.status != "optimal":
            return
        for objective in (plan.objective, cold.objective):
            assert abs(objective - ref.objective) <= \
                1e-6 * max(1.0, abs(ref.objective))
        bounds = hbe_certificate_bound(case, params)
        residuals = hbe_residual_audit(plan, case)
        assert residuals
        assert all(r <= bounds[key] + 1e-9 for key, r in residuals.items())

    def test_reverse_rated_lines_match_the_oracle(self):
        """Seeded ``run_plan`` against the oracle on draws where an existing
        line's rating binds against its flow direction.  The oracle solves
        the earlier per-line window form, whose angle differences span the
        whole trig window, one per line, so a rating-implied angle bound
        that cuts off feasible flow, or a corridor's intersection of
        bounds, shows as a worse plan."""
        rng = np.random.default_rng(2024)
        n_optimal = n_seeded = n_on_lower = 0
        for _ in range(16):
            case, params, mode = reverse_rated_instance(rng)
            plan = run_plan(case, params, mode, FAST)
            ir, _ = build_igtep(case, params, mode)
            window_ir, _ = build_per_line_form(case, params, window=True)
            ref = oracle_solve(window_ir, SolveConfig(backend="oracle",
                                                      time_limit=60.0))
            assert plan.status == ref.status
            n_seeded += plan.audit["solver"]["seeded"]
            if ref.status != "optimal":
                continue
            n_optimal += 1
            assert abs(plan.objective - ref.objective) <= \
                1e-6 * max(1.0, abs(ref.objective))
            for d in case.periods:
                name = f"adiff[E0,{d.id}]"
                lower = ir.variable(name).lower
                n_on_lower += (lower > -0.6 and abs(
                    ref.value(window_ir, name) - lower) <= 1e-7)
        assert n_optimal >= 10 and n_seeded >= 8 and n_on_lower >= 5

    def test_seed_pins_every_free_binary(self, monkeypatch):
        """The start passed to the full solve gives a 0/1 value to every
        binary the thermal model leaves free, each corridor's one cosine
        side the sign of the rated DC model's angle difference in the
        corridor's direction.  The toy's L runs along E, so the two share
        E's side."""
        calls = []

        def recording(name):
            inner = getattr(runner_module, name)

            def wrapper(ir, config, **kwargs):
                sol = inner(ir, config, **kwargs)
                calls.append((ir, kwargs.get("start"), sol))
                return sol
            monkeypatch.setattr(runner_module, name, wrapper)

        recording("external_solve")
        recording("solve")
        case = toy_case()
        plan = run_plan(case, STANDARD_ROBUST, "dtlr_robust", FAST)
        assert plan.audit["solver"]["seeded"] is True
        (dc_ir, no_start, dc), (ir, start, _) = calls
        assert no_start is None
        binaries = {v.index for v in ir.variables if v.kind == "binary"}
        free = {v.index for v in ir.variables
                if v.kind == "binary" and not v.is_fixed}
        assert free <= set(start) <= binaries
        assert set(start.values()) <= {0.0, 1.0}
        sides = {v.index for v in ir.variables
                 if v.name.endswith(".cos_side")}
        assert len(sides) == corridor_count(ir) == len(case.periods)
        assert sides <= free
        for d in case.periods:
            a_from, a_to = corridor_direction(ir, f"E,{d.id}")
            diff = dc.value(dc_ir, a_from) - dc.value(dc_ir, a_to)
            idx = ir.variable(f"trig[E,{d.id}].cos_side").index
            assert start[idx] == (1.0 if diff >= 0.0 else 0.0)

    @pytest.mark.parametrize("edge", sorted(UNRATED))
    def test_unrated_existing_line_skips_the_seed(self, monkeypatch, edge):
        """An existing line with no rating makes the thermal model
        infeasible: no rated DC model is built and the solve runs cold."""
        modes = []
        inner = runner_module.build_igtep

        def recording(case, params, mode, **kwargs):
            modes.append(mode)
            return inner(case, params, mode, **kwargs)
        monkeypatch.setattr(runner_module, "build_igtep", recording)
        plan = run_plan(with_line(toy_case(), "E", **UNRATED[edge]),
                        STANDARD_ROBUST, "dtlr_robust", FAST)
        assert modes == ["dtlr_robust"]
        assert plan.status == "infeasible"
        assert plan.audit["solver"]["seeded"] is False
        assert plan.audit["solver"]["sub_mips"] is True

    @pytest.mark.parametrize("edge", sorted(UNRATED))
    def test_unrated_candidate_line_keeps_the_seed(self, edge):
        """A candidate with no rating stays unbuilt in the rated DC model
        instead of reaching the switched-flow gadget, and the others still
        seed the thermal solve."""
        case = with_line(toy_case(), "L", **UNRATED[edge])
        plan = run_plan(case, STANDARD_ROBUST, "dtlr_robust", FAST)
        ir, _ = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        cold = external_solve(ir, FAST)
        assert plan.audit["solver"]["seeded"] is True
        assert plan.status == cold.status == "optimal"
        assert plan.added_lines == ()
        assert plan.objective == pytest.approx(cold.objective, rel=1e-6)

    def test_row_past_the_dc_robust_onset_is_seeded(self, six_bus,
                                                    six_bus_robust):
        """Six-bus 800 MW has no ``dc_robust`` plan, but its rated DC model
        has one, so the thermal solve is seeded and proves without
        sub-MIPs; the optimum is HiGHS's at its defaults, within the gap."""
        case = scale_to_peak(six_bus, 800.0)
        config = SolveConfig(time_limit=120.0, mip_gap=1e-4)
        assert run_plan(case, six_bus_robust, "dc_robust",
                        config).status == "infeasible"
        plan = run_plan(case, six_bus_robust, "dtlr_robust", config)
        ir, _ = build_igtep(case, six_bus_robust, "dtlr_robust")
        ref = external_solve(ir, config)
        assert plan.audit["solver"]["seeded"] is True
        assert plan.audit["solver"]["sub_mips"] is False
        assert plan.status == ref.status == "optimal"
        assert abs(plan.objective - ref.objective) <= \
            config.mip_gap * abs(ref.objective)

    def test_worse_start_is_overruled(self, monkeypatch):
        # On small draws the seed is usually optimal already; this start
        # builds the candidate line the optimum leaves out.  A second build
        # with rows pinning it shows that the start is worse.
        case = toy_case()
        ir, vm = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        start = {vm.line_built["L"]: 1.0, vm.unit_built["U1"]: 1.0}
        pinned, _ = build_igtep(case, STANDARD_ROBUST, "dtlr_robust")
        for idx in start:
            pinned.add_row(f"pin[{idx}]", {idx: 1.0}, GE, 1.0)
        worse = external_solve(pinned, FAST)
        ref = oracle_solve(ir, SolveConfig(backend="oracle", time_limit=60.0))
        assert worse.objective > ref.objective + 1e5
        monkeypatch.setattr(runner_module, "_thermal_start",
                            lambda *args: start)
        plan = run_plan(case, STANDARD_ROBUST, "dtlr_robust", FAST)
        assert plan.audit["solver"]["seeded"] is True
        assert plan.added_lines == ()
        assert plan.objective == pytest.approx(ref.objective, rel=1e-6)


class TestCorridors:
    """Parallel lines share one angle difference and one cosine side; the
    per-line model of ``support.per_line_thermal_flows`` is the
    reference."""

    @pytest.mark.parametrize("kind", CORRIDOR_KINDS)
    def test_corridor_form_matches_the_per_line_form(self, monkeypatch,
                                                     kind):
        """On random draws of each corridor kind, a seeded ``run_plan``, a
        cold ``external_solve`` and ``oracle_solve`` on the corridor form
        match ``oracle_solve`` on the per-line form in status and
        optimum.  The seed gives each shared cosine side one value: the
        sign of the rated DC model's angle difference in the corridor's
        own direction, read from the ``adiff_def`` row.  Enough optima
        build the corridor's second member (which runs against the
        corridor unless ``kind`` is ``parallel``) that a sign error on its
        angle difference shows."""
        calls = []
        for name in ("external_solve", "solve"):
            inner = getattr(runner_module, name)

            def wrapper(ir, config, _inner=inner, **kwargs):
                sol = _inner(ir, config, **kwargs)
                calls.append((ir, kwargs.get("start"), sol))
                return sol
            monkeypatch.setattr(runner_module, name, wrapper)
        oracle = SolveConfig(backend="oracle", time_limit=60.0)
        second = "L1" if kind == "two candidates" else "L0"
        rng = np.random.default_rng(1800 + CORRIDOR_KINDS.index(kind))
        n_optimal = n_seeded = n_second = 0
        for k in range(10):
            case, params, mode = corridor_instance(rng, kind)
            calls.clear()
            plan = run_plan(case, params, mode, FAST)
            ir, _ = build_igtep(case, params, mode)
            cold = external_solve(ir, FAST)
            own = oracle_solve(ir, oracle)
            ref_ir, _ = build_per_line_form(case, params)
            assert corridor_count(ref_ir) == len(case.lines) > \
                corridor_count(ir)
            ref = oracle_solve(ref_ir, oracle)
            assert plan.status == cold.status == own.status == ref.status, k
            if plan.audit["solver"]["seeded"]:
                n_seeded += 1
                (dc_ir, _, dc), (th_ir, start, _) = calls
                sides = [v for v in th_ir.variables
                         if v.name.endswith(".cos_side")]
                assert len(sides) == corridor_count(th_ir)
                for v in sides:
                    tag = v.name[len("trig["):-len("].cos_side")]
                    a_from, a_to = corridor_direction(th_ir, tag)
                    diff = dc.value(dc_ir, a_from) - dc.value(dc_ir, a_to)
                    assert start[v.index] == (1.0 if diff >= 0.0 else 0.0)
            if ref.status != "optimal":
                continue
            n_optimal += 1
            n_second += second in plan.added_lines
            for objective in (plan.objective, cold.objective,
                              own.objective):
                assert abs(objective - ref.objective) <= \
                    1e-6 * max(1.0, abs(ref.objective)), k
        assert n_optimal >= 8 and n_seeded >= 8 and n_second >= 2


class TestStaticSolves:
    """Static modes run without HiGHS's sub-MIP heuristics and root
    restarts; the optimum must be the one HiGHS finds with them."""

    @pytest.mark.parametrize("peak", [500.0, 600.0, 700.0])
    @pytest.mark.parametrize("mode", ["dc_det", "dc_robust"])
    def test_six_bus_rows_that_branch(self, six_bus, six_bus_robust, peak,
                                      mode):
        assert_matches_default_heuristics(scale_to_peak(six_bus, peak),
                                          six_bus_robust, mode)

    @pytest.mark.parametrize("mode,peak", [("dc_det", 4000.0),
                                           ("dc_robust", 4200.0),
                                           ("dc_robust", 4600.0)])
    def test_rts24_slowest_static_row(self, rts24, rts24_scenario, mode,
                                      peak):
        """The slowest RTS24 static row, and the rows where HiGHS's root
        restarts cost most."""
        assert_matches_default_heuristics(scale_to_peak(rts24, peak),
                                          rts24_scenario.robust, mode)

    def test_heuristics_never_change_the_optimum(self):
        """Static ``run_plan`` against the enumeration oracle."""
        rng = np.random.default_rng(4242)
        n_static = n_optimal = 0
        while n_static < 12:
            case, params, mode = random_instance(rng)
            if mode == "dtlr_robust":
                continue
            n_static += 1
            plan = run_plan(case, params, mode, FAST)
            assert plan.audit["solver"]["sub_mips"] is False
            ir, _ = build_igtep(case, params, mode)
            ref = oracle_solve(ir, SolveConfig(backend="oracle",
                                               time_limit=60.0))
            assert plan.status == ref.status
            if ref.status == "optimal":
                n_optimal += 1
                assert abs(plan.objective - ref.objective) <= \
                    1e-6 * max(1.0, abs(ref.objective))
        assert n_optimal >= 5


def assert_matches_default_heuristics(case, params, mode):
    """``run_plan`` and a solve at HiGHS's defaults agree within the gap."""
    config = SolveConfig(time_limit=120.0, mip_gap=1e-4)
    plan = run_plan(case, params, mode, config)
    ir, _ = build_igtep(case, params, mode)
    ref = external_solve(ir, config)
    assert plan.audit["solver"]["sub_mips"] is False
    assert plan.status == ref.status == "optimal"
    assert abs(plan.objective - ref.objective) <= \
        config.mip_gap * abs(ref.objective)


class TestQuietSolves:
    def test_no_solver_output_on_stdout(self, capfd):
        """HiGHS prints a raw MIP message to file descriptor 1 while
        ``run_plan`` solves this draw's model."""
        rng = np.random.default_rng(1)
        draws = [random_instance(rng) for _ in range(27)]
        case, params, mode = draws[26]
        assert mode == "dc_robust"
        plan = run_plan(case, params, mode, FAST)
        assert plan.status == "optimal"
        assert capfd.readouterr().out == ""


class TestPlanDocument:
    def test_drops_runtime_keeps_backend(self):
        plan = run_plan(toy_case(), None, "dc_det", FAST)
        doc = plan_document(plan)
        assert "runtime_s" not in doc["audit"]
        assert "solver" not in doc["audit"]
        assert doc["audit"]["backend"] == "external"
        assert doc["objective"] == pytest.approx(toy_dc_det_objective())
        assert doc["added_units"] == ["U1"]
        assert doc["dispatch_mw"]["EG,p1"] == pytest.approx(80.0)
        assert "temperatures_k" not in doc

    def test_thermal_document_has_temperatures(self):
        plan = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust", FAST)
        doc = plan_document(plan)
        assert "E,p1" in doc["temperatures_k"]

    def test_documents_are_byte_identical_across_runs(self):
        docs = []
        for _ in range(2):
            plan = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust", FAST)
            docs.append(json.dumps(plan_document(plan), sort_keys=True))
        assert docs[0] == docs[1]


class TestPlanTable:
    def test_optimal_plan_lines(self):
        plan = run_plan(toy_case(), None, "dc_det", FAST)
        text = plan_table(plan)
        assert "mode:       dc_det" in text
        assert "status:     optimal" in text
        assert "added units: U1" in text
        assert "objective:   0.118 ($ x 10^7)" in text
        assert "WARNING" not in text
        assert "proven gap" not in text

    def test_thermal_table_reports_residual(self):
        plan = run_plan(toy_case(), STANDARD_ROBUST, "dtlr_robust", FAST)
        assert "max HBE residual" in plan_table(plan)

    def test_infeasible_table_is_short(self):
        plan = run_plan(toy_case(peak=1000.0), None, "dc_det", FAST)
        text = plan_table(plan)
        assert "status:     infeasible" in text
        assert "objective" not in text

    def test_limit_plan_states_its_proven_gap(self):
        plan = PlanResult(status="limit", mode="dtlr_robust",
                          objective=310_390_162.88, added_lines=("L1",),
                          audit={"solver": {"mip_gap": 0.0123}})
        lines = plan_table(plan).splitlines()
        assert lines[1:3] == ["status:     limit", "proven gap: 1.23e-02"]
        assert "objective:   31.039 ($ x 10^7)" in lines

    @pytest.mark.parametrize("audit", [{"solver": {"mip_gap": None}}, {}])
    def test_limit_plan_without_a_gap_says_unknown(self, audit):
        plan = PlanResult(status="limit", mode="dc_det", objective=1.5e7,
                          audit=audit)
        assert "proven gap: unknown" in plan_table(plan)


class TestSweepSpec:
    def test_valid(self):
        spec = SweepSpec(peaks=(100.0, 200.0), modes=("dc_det",))
        assert spec.peaks == (100.0, 200.0)

    @pytest.mark.parametrize("kwargs,fragment", [
        ({"peaks": (), "modes": ("dc_det",)}, "at least one peak"),
        ({"peaks": (200.0, 100.0), "modes": ("dc_det",)},
         "strictly increasing"),
        ({"peaks": (100.0, 100.0), "modes": ("dc_det",)},
         "strictly increasing"),
        ({"peaks": (-5.0, 100.0), "modes": ("dc_det",)}, "positive"),
        ({"peaks": (100.0,), "modes": ()}, "at least one mode"),
        ({"peaks": (100.0,), "modes": ("ac_opf",)}, "unknown mode"),
        ({"peaks": (300.0, float("nan")), "modes": ("dc_det",)}, "finite"),
        ({"peaks": (300.0, float("inf")), "modes": ("dc_det",)}, "finite"),
    ])
    def test_rejects(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            SweepSpec(**kwargs)


class TestRunSweep:
    def test_serial_rows_in_declared_order(self):
        spec = SweepSpec(peaks=(80.0, 120.0),
                         modes=("dc_det", "dc_robust"))
        rows = run_sweep(toy_case(), STANDARD_ROBUST, spec, FAST,
                         parallel=False)
        assert [(r["peak_mw"], r["mode"]) for r in rows] == [
            (80.0, "dc_det"), (80.0, "dc_robust"),
            (120.0, "dc_det"), (120.0, "dc_robust")]
        assert all(r["status"] == "optimal" for r in rows)
        # objectives grow with peak within each mode
        assert rows[2]["objective"] > rows[0]["objective"]
        assert rows[3]["objective"] > rows[1]["objective"]

    def test_infeasible_rows_are_kept(self):
        spec = SweepSpec(peaks=(100.0, 1000.0), modes=("dc_det",))
        rows = run_sweep(toy_case(), None, spec, FAST, parallel=False)
        assert rows[0]["status"] == "optimal"
        assert rows[1]["status"] == "infeasible"
        assert rows[1]["objective"] is None
        assert rows[1]["element_count"] == 0

    def test_row_failures_is_isolated(self):
        # dtlr_robust without weather fails in the builder; the sweep
        # records the error and carries on with the remaining rows.
        spec = SweepSpec(peaks=(100.0,), modes=("dc_det", "dtlr_robust"))
        rows = run_sweep(toy_case(with_weather=False), STANDARD_ROBUST,
                         spec, FAST, parallel=False)
        assert rows[0]["status"] == "optimal"
        assert rows[1]["status"] == "error"
        assert "ModelBuildError" in rows[1]["error"]

    def test_parallel_matches_serial(self):
        spec = SweepSpec(peaks=(90.0, 140.0), modes=("dc_det",))
        serial = run_sweep(toy_case(), None, spec, FAST, parallel=False)
        parallel = run_sweep(toy_case(), None, spec, FAST, parallel=True)
        assert serial == parallel


class TestSweepTable:
    def test_renders_costs_and_infeasibility(self):
        spec = SweepSpec(peaks=(100.0, 1000.0), modes=("dc_det",))
        rows = run_sweep(toy_case(), None, spec, FAST, parallel=False)
        text = sweep_table(rows)
        assert "Peak MW" in text and "Cost ($x10^7)" in text
        assert "0.118" in text
        assert "Infeasible" in text

    def test_renders_error_status(self):
        rows = [{"peak_mw": 100.0, "mode": "dc_det", "status": "error",
                 "objective": None, "added_lines": [], "added_units": [],
                 "element_count": 0, "error": "boom"}]
        assert "error" in sweep_table(rows)

    def test_marks_a_cost_that_is_not_proven_optimal(self):
        row = {"peak_mw": 4200.0, "mode": "dtlr_robust", "status": "limit",
               "objective": 310_390_162.88, "added_lines": ["L1"],
               "added_units": [], "element_count": 1}
        text = sweep_table([row, dict(row, status="optimal")])
        limit_line, optimal_line = text.splitlines()[2:]
        assert limit_line.endswith(" 31.039 limit")
        assert optimal_line.endswith(" 31.039")


class TestWriteDocument:
    def test_stable_format(self, tmp_path):
        path = tmp_path / "out.json"
        write_document({"b": 1, "a": [2, 3]}, path)
        text = path.read_text()
        assert text == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
        assert json.loads(text) == {"a": [2, 3], "b": 1}
