"""Case/scenario JSON round-trips, format diagnostics and overlays."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridxpand import (Scenario, WeatherPatch, apply_scenario,
                       case_to_document, load_case, load_scenario, parse_case,
                       parse_scenario, save_case, validate_case)
from gridxpand.caseio import SCHEMA
from gridxpand.errors import (CaseFormatError, CaseValidationError,
                              UnknownEntityError)
from support import STANDARD_ROBUST, random_instance, toy_case


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


class TestCodec:
    @pytest.mark.parametrize("name", ["six_bus.json", "rts24.json"])
    def test_shipped_case_files_are_rewritten_byte_for_byte(
            self, case_dir, tmp_path, name):
        path = tmp_path / name
        save_case(load_case(case_dir / name), path)
        assert path.read_bytes() == (case_dir / name).read_bytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_instances_survive_json(self, seed):
        case, _, _ = random_instance(np.random.default_rng(seed))
        text = json.dumps(case_to_document(case))
        assert parse_case(json.loads(text)) == case

    def test_unknown_keys_are_ignored(self):
        # case files written before the conductor lost its unread
        # elevation and heat capacity still load
        doc = toy_document()
        for line in doc["lines"]:
            line["conductor"].update(elevation=0.0, heat_capacity=0.0)
        doc["buses"][0]["note"] = "slack"
        assert parse_case(doc) == toy_case()


# A wrong value for each kind of field, and what the error says of it.
NUMBER = ("high", "must be a number")
TEXT = (7, "must be a non-empty string")
FLAG = ("yes", "must be true or false")
FORECAST = ({"p1": 1.0}, "must be a number or list")
RECORD = (5, "expected an object")

# (path to a record in the toy document, its location, its fields)
CASE_RECORDS = [
    (("system",), "case.system",
     {"peak_demand": NUMBER, "s_base_mva": NUMBER, "v_base_kv": NUMBER}),
    (("buses", 0), "case.buses[0]",
     {"id": TEXT, "load_weight": NUMBER, "ev_forecast": FORECAST,
      "wind_forecast": FORECAST, "pv_forecast": FORECAST}),
    (("lines", 0), "case.lines[0]",
     {"id": TEXT, "from_bus": TEXT, "to_bus": TEXT, "candidate": FLAG,
      "install_cost": NUMBER, "susceptance": NUMBER, "conductance": NUMBER,
      "resistance_at_tmax": NUMBER, "length": NUMBER, "t_max": NUMBER,
      "flow_limit": NUMBER, "conductor": RECORD}),
    (("lines", 0, "conductor"), "case.lines[0].conductor",
     {"diameter": NUMBER, "air_density": NUMBER, "air_viscosity": NUMBER,
      "thermal_conductivity": NUMBER, "wind_angle_coeff": NUMBER,
      "emissivity": NUMBER, "radiation_coeff": NUMBER,
      "resistance_ref": NUMBER, "temperature_ref": NUMBER,
      "thermal_resistivity": NUMBER}),
    (("generators", 0), "case.generators[0]",
     {"id": TEXT, "bus": TEXT, "candidate": FLAG, "install_cost": NUMBER,
      "op_cost": NUMBER, "p_max": NUMBER}),
    (("periods", 0), "case.periods[0]",
     {"id": TEXT, "duration": NUMBER, "load_factor": NUMBER,
      "weather": ([], "must be an object")}),
    (("periods", 0, "weather", "E"), "case.periods[0].weather['E']",
     {"ambient_temp": NUMBER, "wind_speed": NUMBER, "solar_gain": NUMBER,
      "radiation_coeff": NUMBER}),
]
SCENARIO_RECORDS = [
    (("robust",), "scenario.robust",
     {"phi": NUMBER, "mu": NUMBER, "reliability": NUMBER}),
    (("weather", "*", "*"), "scenario.weather['*']['*']",
     {"ambient_k": NUMBER, "wind_mps": NUMBER, "solar_w_per_m": NUMBER,
      "kr": NUMBER}),
]


def scenario_document() -> dict:
    return {"robust": {"phi": 0.05, "mu": 0.01, "reliability": 0.05},
            "weather": {"*": {"*": {"ambient_k": 300.0, "wind_mps": 1.0,
                                    "solar_w_per_m": 5.0, "kr": 2.5e-9}}}}


def record_at(doc: dict, path: tuple) -> dict:
    for step in path:
        doc = doc[step]
    return doc


def field_cases(records):
    return [pytest.param(path, where, key, kind, id=f"{where}.{key}")
            for path, where, fields in records
            for key, kind in fields.items()]


class TestEveryFieldIsChecked:
    @pytest.mark.parametrize("records,document",
                             [(CASE_RECORDS, toy_document),
                              (SCENARIO_RECORDS, scenario_document)],
                             ids=["case", "scenario"])
    def test_tables_cover_every_key(self, records, document):
        doc = document()
        for path, _, fields in records:
            assert set(fields) == set(record_at(doc, path)), path

    def expect(self, parse, doc, path, where, key, kind):
        value, message = kind
        record_at(doc, path)[key] = value
        with pytest.raises(CaseFormatError) as err:
            parse(doc)
        if kind is RECORD:
            assert message in str(err.value)
            assert err.value.location == f"{where}.{key}"
        else:
            assert f"field {key!r} {message}" in str(err.value)
            assert err.value.location == where

    @pytest.mark.parametrize("path,where,key,kind",
                             field_cases(CASE_RECORDS))
    def test_case_field(self, path, where, key, kind):
        self.expect(parse_case, toy_document(), path, where, key, kind)

    @pytest.mark.parametrize("path,where,key,kind",
                             field_cases(SCENARIO_RECORDS))
    def test_scenario_field(self, path, where, key, kind):
        self.expect(parse_scenario, scenario_document(), path, where, key,
                    kind)


class TestNonFiniteNumbers:
    def test_case_field_from_file(self, case_dir, tmp_path):
        doc = json.loads((case_dir / "six_bus.json").read_text())
        assert doc["lines"][0]["id"] == "T12"
        doc["lines"][0]["susceptance"] = float("nan")
        path = tmp_path / "six_bus.json"
        path.write_text(json.dumps(doc))
        assert '"susceptance": NaN' in path.read_text()
        with pytest.raises(CaseFormatError) as err:
            load_case(path)
        assert "field 'susceptance' must be finite, got nan" in str(err.value)
        assert err.value.location == "six_bus.json.lines[0]"

    def test_integer_too_large_for_a_float(self):
        doc = json.loads(json.dumps(toy_document()).replace(
            '"install_cost": 0.0', '"install_cost": 1' + "0" * 400, 1))
        with pytest.raises(CaseFormatError,
                           match="field 'install_cost' must be finite") as err:
            parse_case(doc)
        assert err.value.location == "case.lines[0]"

    @pytest.mark.parametrize("value,fragment", [
        ([0.0, float("inf")], "entry 1 of 'ev_forecast' must be finite"),
        (float("-inf"), "field 'ev_forecast' must be finite"),
    ], ids=["list", "scalar"])
    def test_forecast_entry(self, value, fragment):
        doc = toy_document()
        doc["buses"][0]["ev_forecast"] = value
        with pytest.raises(CaseFormatError, match=fragment) as err:
            parse_case(doc)
        assert err.value.location == "case.buses[0]"

    def test_robust_parameter(self):
        doc = json.loads('{"robust": {"phi": NaN, "mu": 0.01, '
                         '"reliability": 0.05}}')
        with pytest.raises(CaseFormatError,
                           match="field 'phi' must be finite") as err:
            parse_scenario(doc)
        assert err.value.location == "scenario.robust"

    @pytest.mark.parametrize("key", ["ambient_k", "wind_mps",
                                     "solar_w_per_m", "kr"])
    def test_weather_patch(self, tmp_path, key):
        doc = scenario_document()
        doc["weather"]["*"]["*"][key] = float("inf")
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CaseFormatError,
                           match=f"field '{key}' must be finite") as err:
            load_scenario(path)
        assert err.value.location == "bad.json.weather['*']['*']"
