"""Case model arithmetic, lookups and the validation rule set."""

from __future__ import annotations

import dataclasses
import math

import pytest

from gridxpand import (BusSpec, CaseSystem, GeneratorSpec, LineSpec,
                       PeriodSpec, Violation, scale_to_peak, validate_case)
from gridxpand.errors import UnknownEntityError
from support import DEFAULT_CONDUCTOR, DEFAULT_WEATHER, toy_case


def arith_case() -> CaseSystem:
    """Uneven weights, a part-load period and nonzero forecasts."""
    base = toy_case()
    buses = (BusSpec("1", 0.4, (10.0,), (20.0,), (20.0,)),
             BusSpec("2", 0.6, (0.0,), (0.0,), (0.0,)))
    periods = (PeriodSpec("p1", 100.0, 0.5, base.periods[0].weather),)
    return dataclasses.replace(base, buses=buses, periods=periods,
                               peak_demand=300.0)


def replace_bus(case: CaseSystem, index: int, **kw) -> CaseSystem:
    buses = list(case.buses)
    buses[index] = dataclasses.replace(buses[index], **kw)
    return dataclasses.replace(case, buses=tuple(buses))


def replace_line(case: CaseSystem, index: int, **kw) -> CaseSystem:
    lines = list(case.lines)
    lines[index] = dataclasses.replace(lines[index], **kw)
    return dataclasses.replace(case, lines=tuple(lines))


def replace_generator(case: CaseSystem, index: int, **kw) -> CaseSystem:
    gens = list(case.generators)
    gens[index] = dataclasses.replace(gens[index], **kw)
    return dataclasses.replace(case, generators=tuple(gens))


def replace_period(case: CaseSystem, index: int, **kw) -> CaseSystem:
    periods = list(case.periods)
    periods[index] = dataclasses.replace(periods[index], **kw)
    return dataclasses.replace(case, periods=tuple(periods))


def rules(case: CaseSystem, field_name: str) -> list[str]:
    return [v.rule for v in validate_case(case)
            if v.field_name == field_name]


class TestDerivedQuantities:
    def test_base_load(self):
        case = arith_case()
        assert case.base_load("1", "p1") == pytest.approx(60.0)
        assert case.base_load("2", "p1") == pytest.approx(90.0)

    def test_net_demand_forecast(self):
        case = arith_case()
        # 60 base + 10 EV - 20 wind - 20 PV
        assert case.net_demand_forecast("1", "p1") == pytest.approx(30.0)
        assert case.net_demand_forecast("2", "p1") == pytest.approx(90.0)

    def test_net_demand_may_go_negative(self):
        case = replace_bus(arith_case(), 0, wind_forecast=(100.0,))
        assert case.net_demand_forecast("1", "p1") == pytest.approx(-50.0)

    def test_current_base(self):
        assert toy_case().current_base == pytest.approx(100e6 / 132e3)

    def test_line_unit_helpers(self):
        line = toy_case().line("E")
        assert line.length_m == 10_000.0
        assert line.resistance_per_meter == pytest.approx(2.0e-4)


class TestScaleToPeak:
    def test_load_follows_peak(self):
        case = scale_to_peak(arith_case(), 600.0)
        assert case.base_load("1", "p1") == pytest.approx(120.0)

    def test_composition_keeps_last_peak(self):
        case = arith_case()
        twice = scale_to_peak(scale_to_peak(case, 500.0), 200.0)
        assert twice == scale_to_peak(case, 200.0)

    def test_everything_else_untouched(self):
        case = arith_case()
        scaled = scale_to_peak(case, 999.0)
        assert scaled.buses == case.buses
        assert scaled.lines == case.lines
        assert scaled.periods == case.periods

    def test_rejects_nonpositive_peak(self):
        with pytest.raises(ValueError, match="peak demand"):
            scale_to_peak(arith_case(), 0.0)

    @pytest.mark.parametrize("peak", [float("nan"), float("inf")])
    def test_rejects_nonfinite_peak(self, peak):
        with pytest.raises(ValueError, match="finite"):
            scale_to_peak(arith_case(), peak)


class TestLookups:
    def test_found(self):
        case = toy_case()
        assert case.bus("2").load_weight == 1.0
        assert case.line("L").candidate
        assert case.generator("EG").p_max == 80.0
        assert case.period("p1").duration == 100.0
        assert case.period_index("p1") == 0

    @pytest.mark.parametrize("lookup", ["bus", "line", "generator",
                                        "period", "period_index"])
    def test_unknown_id_raises(self, lookup):
        with pytest.raises(UnknownEntityError, match="nope"):
            getattr(toy_case(), lookup)("nope")

    def test_partitions(self):
        case = toy_case()
        assert [c.id for c in case.candidate_lines] == ["L"]
        assert [g.id for g in case.candidate_generators] == ["U1"]


class TestValidateCase:
    def test_sound_case_is_clean(self):
        assert validate_case(toy_case()) == []
        assert validate_case(arith_case()) == []

    def test_weight_sum_within_tolerance_is_clean(self):
        case = replace_bus(toy_case(), 1, load_weight=1.0 + 5e-10)
        assert rules(case, "load_weight") == []

    def test_duplicate_bus_id(self):
        case = toy_case()
        extra = dataclasses.replace(case.buses[0], load_weight=0.0)
        case = dataclasses.replace(case, buses=case.buses + (extra,))
        assert rules(case, "id") == ["duplicate identifier"]

    def test_weight_sum_off(self):
        case = replace_bus(toy_case(), 1, load_weight=0.9)
        assert any("sum to 1" in r for r in rules(case, "load_weight"))

    def test_negative_weight(self):
        case = replace_bus(toy_case(), 0, load_weight=-0.1)
        assert "must be >= 0" in rules(case, "load_weight")

    def test_forecast_length_mismatch(self):
        case = replace_bus(toy_case(), 0, ev_forecast=())
        assert any("one value per period" in r
                   for r in rules(case, "ev_forecast"))

    def test_negative_forecast(self):
        case = replace_bus(toy_case(), 0, pv_forecast=(-1.0,))
        assert rules(case, "pv_forecast") == ["forecasts must be >= 0"]

    def test_unknown_endpoint(self):
        case = replace_line(toy_case(), 0, from_bus="zz")
        assert any("unknown bus" in r for r in rules(case, "from_bus"))

    def test_self_loop(self):
        case = replace_line(toy_case(), 0, to_bus="1")
        assert "line endpoints must differ" in rules(case, "to_bus")

    @pytest.mark.parametrize("field_name,value", [
        ("length", 0.0), ("t_max", 273.0), ("flow_limit", 0.0),
        ("susceptance", 0.0), ("conductance", -1.0),
        ("resistance_at_tmax", 0.0), ("install_cost", -1.0)])
    def test_line_scalar_rules(self, field_name, value):
        case = replace_line(toy_case(), 0, **{field_name: value})
        assert len(rules(case, field_name)) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field_name", [
        "susceptance", "conductance", "flow_limit", "install_cost",
        "resistance_at_tmax", "t_max", "length"])
    def test_line_rejects_nonfinite_values(self, six_bus_case, field_name,
                                           value):
        for index in (0, len(six_bus_case.lines) - 1):   # existing, candidate
            case = replace_line(six_bus_case, index, **{field_name: value})
            assert len(rules(case, field_name)) == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("records, replace, field_name", [
        ("buses", replace_bus, "load_weight"),
        ("buses", replace_bus, "wind_forecast"),
        ("generators", replace_generator, "p_max"),
        ("generators", replace_generator, "op_cost"),
        ("generators", replace_generator, "install_cost"),
        ("periods", replace_period, "duration"),
        ("periods", replace_period, "load_factor")])
    def test_other_records_reject_nonfinite_values(self, records, replace,
                                                   field_name, value):
        case = toy_case()
        old = getattr(getattr(case, records)[0], field_name)
        new = (value,) * len(old) if isinstance(old, tuple) else value
        case = replace(case, 0, **{field_name: new})
        assert rules(case, field_name)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field_name", ["peak_demand", "s_base",
                                            "v_base"])
    def test_case_scalars_reject_nonfinite_values(self, field_name, value):
        case = dataclasses.replace(toy_case(), **{field_name: value})
        assert len(rules(case, field_name)) == 1

    def test_candidate_line_needs_nonzero_cost(self):
        case = replace_line(toy_case(), 1, install_cost=0.0)
        assert any("existing lines" in r for r in rules(case, "install_cost"))
        # ... but a free existing line is fine and a negative cost reports
        # only the sign rule, not both.
        assert rules(toy_case(), "install_cost") == []
        case = replace_line(toy_case(), 1, install_cost=-5.0)
        assert rules(case, "install_cost") == ["must be >= 0"]

    @pytest.mark.parametrize("field_name,value", [
        ("p_max", 0.0), ("op_cost", -1.0), ("install_cost", -1.0)])
    def test_generator_scalar_rules(self, field_name, value):
        case = replace_generator(toy_case(), 0, **{field_name: value})
        assert len(rules(case, field_name)) == 1

    def test_generator_unknown_bus(self):
        case = replace_generator(toy_case(), 0, bus="zz")
        assert any("unknown bus" in r for r in rules(case, "bus"))

    def test_candidate_generator_needs_nonzero_cost(self):
        case = replace_generator(toy_case(), 1, install_cost=0.0)
        assert any("existing units" in r for r in rules(case, "install_cost"))

    @pytest.mark.parametrize("field_name,value", [
        ("duration", 0.0), ("load_factor", 0.0), ("load_factor", 1.5)])
    def test_period_scalar_rules(self, field_name, value):
        case = replace_period(toy_case(), 0, **{field_name: value})
        assert len(rules(case, field_name)) == 1

    def test_weather_points_at_known_lines(self):
        case = replace_period(toy_case(), 0,
                              weather={"ghost": DEFAULT_WEATHER})
        assert any("unknown line" in r for r in rules(case, "weather"))

    def test_no_periods(self):
        case = dataclasses.replace(toy_case(), periods=())
        assert any("at least one period" in r for r in rules(case, "periods"))
        # With no periods the per-period forecast length check stands down.
        assert rules(case, "ev_forecast") == []

    @pytest.mark.parametrize("field_name", ["peak_demand", "s_base", "v_base"])
    def test_case_scalars(self, field_name):
        case = dataclasses.replace(toy_case(), **{field_name: 0.0})
        assert len(rules(case, field_name)) == 1

    def test_violation_string(self):
        text = str(Violation("bus", "7", "load_weight", "must be >= 0"))
        assert text == "bus '7', load_weight: must be >= 0"

    def test_shipped_conductor_reused(self):
        # The conductor block itself validates on construction, so a bad
        # datasheet never reaches validate_case.
        with pytest.raises(ValueError):
            dataclasses.replace(DEFAULT_CONDUCTOR, air_density=0.0)
