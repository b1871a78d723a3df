"""Case/scenario JSON round-trips, format diagnostics and overlays."""

from __future__ import annotations

import copy
import json

import pytest

from gridxpand import (Scenario, WeatherPatch, apply_scenario,
                       case_to_document, load_case, load_scenario, parse_case,
                       parse_scenario, save_case, validate_case)
from gridxpand.caseio import SCHEMA
from gridxpand.errors import (CaseFormatError, CaseValidationError,
                              UnknownEntityError)
from support import STANDARD_ROBUST, toy_case


def toy_document() -> dict:
    return case_to_document(toy_case())


class TestRoundTrip:
    def test_document_round_trip(self):
        case = toy_case()
        assert parse_case(case_to_document(case)) == case

    def test_file_round_trip(self, tmp_path):
        case = toy_case()
        path = tmp_path / "toy.json"
        save_case(case, path)
        assert load_case(path) == case

    def test_file_format_is_stable(self, tmp_path):
        path = tmp_path / "toy.json"
        save_case(toy_case(), path)
        text = path.read_text()
        assert text.endswith("}\n")
        assert json.loads(text)["schema"] == SCHEMA
        # sort_keys makes the output diff-friendly
        assert text.index('"buses"') < text.index('"generators"')

    def test_shipped_cases_round_trip(self, six_bus_case, rts24_case):
        for case in (six_bus_case, rts24_case):
            assert parse_case(case_to_document(case)) == case
            assert validate_case(case) == []


class TestForecastExpansion:
    def test_scalar_expands_to_every_period(self):
        doc = toy_document()
        doc["buses"][1]["ev_forecast"] = 3.0
        case = parse_case(doc)
        assert case.bus("2").ev_forecast == (3.0,)

    def test_scalar_with_two_periods(self):
        doc = toy_document()
        doc["periods"].append({"id": "p2", "duration": 50.0,
                               "load_factor": 0.5, "weather": {}})
        for bus in doc["buses"]:
            for key in ("ev_forecast", "wind_forecast", "pv_forecast"):
                bus[key] = 0.0
        case = parse_case(doc)
        assert case.bus("1").ev_forecast == (0.0, 0.0)
        assert len(case.periods) == 2


class TestFormatErrors:
    def expect(self, doc, fragment, location):
        with pytest.raises(CaseFormatError) as err:
            parse_case(doc)
        assert fragment in str(err.value)
        assert err.value.location == location

    def test_missing_schema(self):
        self.expect({}, "missing required field 'schema'", "case")

    def test_wrong_schema(self):
        self.expect({"schema": "gridxpand/99"}, "unsupported schema",
                    "case.schema")

    def test_buses_must_be_list(self):
        doc = toy_document()
        doc["buses"] = {"1": {}}
        self.expect(doc, "must be a list", "case")

    def test_bus_entry_must_be_object(self):
        doc = toy_document()
        doc["buses"][0] = 5
        self.expect(doc, "expected an object", "case.buses[0]")

    def test_number_field_rejects_bool(self):
        doc = toy_document()
        doc["lines"][0]["install_cost"] = True
        self.expect(doc, "'install_cost' must be a number", "case.lines[0]")

    def test_forecast_entry_must_be_numeric(self):
        doc = toy_document()
        doc["buses"][0]["ev_forecast"] = [0.0, "high"]
        self.expect(doc, "entry 1 of 'ev_forecast'", "case.buses[0]")

    def test_id_must_be_nonempty(self):
        doc = toy_document()
        doc["generators"][0]["id"] = ""
        self.expect(doc, "non-empty string", "case.generators[0]")

    def test_candidate_must_be_bool(self):
        doc = toy_document()
        doc["lines"][1]["candidate"] = "yes"
        self.expect(doc, "true or false", "case.lines[1]")

    def test_conductor_errors_carry_location(self):
        doc = toy_document()
        doc["lines"][0]["conductor"]["emissivity"] = 2.0
        self.expect(doc, "emissivity", "case.lines[0].conductor")

    def test_weather_errors_carry_location(self):
        doc = toy_document()
        doc["periods"][0]["weather"]["E"]["ambient_temp"] = -5.0
        self.expect(doc, "ambient temperature",
                    "case.periods[0].weather['E']")

    @pytest.mark.parametrize("with_kr", [False, True])
    def test_weather_for_unknown_line_names_it(self, with_kr):
        doc = toy_document()
        entry = dict(doc["periods"][0]["weather"]["E"])
        if not with_kr:
            del entry["radiation_coeff"]
        doc["periods"][0]["weather"]["T12"] = entry
        self.expect(doc, "unknown line 'T12'",
                    "case.periods[0].weather['T12']")

    def test_invalid_json_reports_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "schema": oops\n}\n')
        with pytest.raises(CaseFormatError) as err:
            load_case(path)
        assert "invalid JSON" in str(err.value)
        assert err.value.location == f"{path}:2:13"

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(CaseFormatError, match="cannot read"):
            load_case(tmp_path / "missing.json")


class TestValidationErrors:
    def test_inconsistent_case_lists_violations(self):
        doc = toy_document()
        doc["buses"][1]["load_weight"] = 0.5
        with pytest.raises(CaseValidationError) as err:
            parse_case(doc)
        assert any(v.field_name == "load_weight" for v in err.value.violations)
        assert "sum to 1" in str(err.value)


class TestWeatherKrFallback:
    def test_missing_kr_uses_conductor_coefficient(self):
        doc = toy_document()
        doc["lines"][0]["conductor"]["radiation_coeff"] = 3.0e-9
        del doc["periods"][0]["weather"]["E"]["radiation_coeff"]
        case = parse_case(doc)
        assert case.period("p1").weather["E"].radiation_coeff == 3.0e-9
        # the explicit value on the other line is untouched
        assert case.period("p1").weather["L"].radiation_coeff == 2.5e-9


class TestScenarioParsing:
    def test_empty_scenario(self):
        scenario = parse_scenario({})
        assert scenario.robust is None
        assert scenario.weather == {}

    def test_robust_block(self):
        scenario = parse_scenario({"robust": {"phi": 0.05, "mu": 0.01,
                                              "reliability": 0.05}})
        assert scenario.robust == STANDARD_ROBUST

    def test_robust_block_errors_carry_location(self):
        with pytest.raises(CaseFormatError) as err:
            parse_scenario({"robust": {"phi": 0.05, "mu": 0.01,
                                       "reliability": 0.9}})
        assert err.value.location == "scenario.robust"

    def test_patch_requires_all_fields(self):
        doc = {"weather": {"p1": {"E": {"wind_mps": 1.0,
                                        "solar_w_per_m": 0.0}}}}
        with pytest.raises(CaseFormatError) as err:
            parse_scenario(doc)
        assert "'ambient_k'" in str(err.value)
        assert err.value.location == "scenario.weather['p1']['E']"

    def test_weather_must_be_object(self):
        with pytest.raises(CaseFormatError, match="must be an object"):
            parse_scenario({"weather": []})

    @pytest.mark.parametrize("key,value,message", [
        ("ambient_k", 0.0, "ambient temperature"),
        ("wind_mps", -1.0, "wind speed"),
        ("solar_w_per_m", -5.0, "solar gain"),
        ("kr", 0.0, "radiation coefficient"),
    ], ids=["ambient", "wind", "solar", "kr"])
    def test_bad_weather_names_file_and_key(self, tmp_path, key, value,
                                            message):
        patch = {"ambient_k": 300.0, "wind_mps": 1.0, "solar_w_per_m": 5.0,
                 key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"weather": {"*": {"*": patch}}}))
        with pytest.raises(CaseFormatError, match=message) as err:
            load_scenario(path)
        assert err.value.location == "bad.json.weather['*']['*']"

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "robust": {"phi": 0.05, "mu": 0.01, "reliability": 0.05},
            "weather": {"*": {"*": {"ambient_k": 300.0, "wind_mps": 1.0,
                                    "solar_w_per_m": 5.0}}},
        }))
        scenario = load_scenario(path)
        assert scenario.robust == STANDARD_ROBUST
        assert scenario.weather["*"]["*"].kr is None
        assert scenario.weather["*"]["*"].ambient_k == 300.0


class TestApplyScenario:
    def patch(self, ambient: float, kr: float | None = None) -> WeatherPatch:
        return WeatherPatch(ambient_k=ambient, wind_mps=1.0,
                            solar_w_per_m=5.0, kr=kr)

    def test_wildcard_covers_every_line(self):
        scenario = Scenario(robust=None,
                            weather={"*": {"*": self.patch(300.0)}})
        case = apply_scenario(toy_case(with_weather=False), scenario)
        weather = case.period("p1").weather
        assert set(weather) == {"E", "L"}
        assert weather["E"].ambient_temp == 300.0
        # kr=None falls back to the line's conductor coefficient
        assert weather["E"].radiation_coeff == 2.5e-9

    def test_explicit_entry_beats_wildcard(self):
        scenario = Scenario(robust=None, weather={
            "*": {"*": self.patch(300.0)},
            "p1": {"L": self.patch(310.0, kr=4.0e-9)},
        })
        case = apply_scenario(toy_case(with_weather=False), scenario)
        weather = case.period("p1").weather
        assert weather["E"].ambient_temp == 300.0
        assert weather["L"].ambient_temp == 310.0
        assert weather["L"].radiation_coeff == 4.0e-9

    @pytest.mark.parametrize("period", ["*", "p1"])
    def test_explicit_line_beats_wildcard_in_either_key_order(self, period):
        explicit, wildcard = self.patch(310.0), self.patch(298.0)
        for lines in ({"L": explicit, "*": wildcard},
                      {"*": wildcard, "L": explicit}):
            scenario = Scenario(robust=None, weather={period: lines})
            case = apply_scenario(toy_case(with_weather=False), scenario)
            weather = case.period("p1").weather
            assert weather["L"].ambient_temp == 310.0, list(lines)
            assert weather["E"].ambient_temp == 298.0, list(lines)

    def test_untouched_lines_keep_case_weather(self):
        scenario = Scenario(robust=None,
                            weather={"p1": {"L": self.patch(310.0)}})
        case = toy_case()
        patched = apply_scenario(case, scenario)
        assert (patched.period("p1").weather["E"]
                == case.period("p1").weather["E"])
        assert patched.period("p1").weather["L"].ambient_temp == 310.0

    def test_unknown_explicit_ids_rejected(self):
        with pytest.raises(UnknownEntityError, match="unknown period"):
            apply_scenario(toy_case(), Scenario(
                robust=None, weather={"p9": {"*": self.patch(300.0)}}))
        with pytest.raises(UnknownEntityError, match="unknown line"):
            apply_scenario(toy_case(), Scenario(
                robust=None, weather={"p1": {"zz": self.patch(300.0)}}))

    def test_case_is_not_mutated(self):
        case = toy_case(with_weather=False)
        before = copy.deepcopy(case)
        apply_scenario(case, Scenario(robust=None,
                                      weather={"*": {"*": self.patch(300.0)}}))
        assert case == before


class TestShippedScenarios:
    def test_six_bus_scenario(self, six_bus_case, six_bus_scenario):
        assert six_bus_scenario.robust == STANDARD_ROBUST
        case = apply_scenario(six_bus_case, six_bus_scenario)
        for period in case.periods:
            assert set(period.weather) == {c.id for c in case.lines}

    def test_rts24_scenario(self, rts24_case, rts24_scenario):
        assert rts24_scenario.robust is not None
        case = apply_scenario(rts24_case, rts24_scenario)
        for period in case.periods:
            assert set(period.weather) == {c.id for c in case.lines}
