"""Case and scenario file handling.

A case file is one JSON document (``schema: "gridxpand/1"``) carrying the
complete network description; field names match the dataclasses in
:mod:`gridxpand.network` and :mod:`gridxpand.thermal`.  A scenario file is a
lighter overlay: an optional robustness block ``{phi, mu, reliability}``
plus per-period, per-line weather patches with the short keys
``{ambient_k, wind_mps, solar_w_per_m, kr}``; ``"*"`` is accepted for the
period or line position and expands to all of them, explicit ids winning
over the wildcard.  Parse problems raise :class:`CaseFormatError` with a
dotted location; structurally valid but inconsistent cases raise
:class:`CaseValidationError` listing every broken invariant.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .errors import CaseFormatError, CaseValidationError, UnknownEntityError
from .network import (BusSpec, CaseSystem, GeneratorSpec, LineSpec, PeriodSpec,
                      validate_case)
from .thermal import ConductorSpec, WeatherRecord
from .uncertainty import RobustParams

SCHEMA = "gridxpand/1"
WILDCARD = "*"


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise CaseFormatError("expected an object", where)
    if key not in obj:
        raise CaseFormatError(f"missing required field {key!r}", where)
    return obj[key]


def _number(obj: dict, key: str, where: str, default: float | None = None) -> float:
    if default is not None and key not in obj:
        return default
    value = _require(obj, key, where)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseFormatError(f"field {key!r} must be a number", where)
    return float(value)


def _text(obj: dict, key: str, where: str) -> str:
    value = _require(obj, key, where)
    if not isinstance(value, str) or not value:
        raise CaseFormatError(f"field {key!r} must be a non-empty string", where)
    return value


def _flag(obj: dict, key: str, where: str) -> bool:
    value = _require(obj, key, where)
    if not isinstance(value, bool):
        raise CaseFormatError(f"field {key!r} must be true or false", where)
    return value


def _forecast(obj: dict, key: str, where: str, n_periods: int) -> tuple[float, ...]:
    """A per-period tuple; a scalar in the file means 'same every period'."""
    value = _require(obj, key, where)
    if isinstance(value, bool):
        raise CaseFormatError(f"field {key!r} must be a number or list", where)
    if isinstance(value, (int, float)):
        return (float(value),) * n_periods
    if isinstance(value, list):
        out = []
        for k, entry in enumerate(value):
            if isinstance(entry, bool) or not isinstance(entry, (int, float)):
                raise CaseFormatError(f"entry {k} of {key!r} must be a number",
                                      where)
            out.append(float(entry))
        return tuple(out)
    raise CaseFormatError(f"field {key!r} must be a number or list", where)


def _conductor(obj: dict, where: str) -> ConductorSpec:
    try:
        return ConductorSpec(
            diameter=_number(obj, "diameter", where),
            air_density=_number(obj, "air_density", where),
            air_viscosity=_number(obj, "air_viscosity", where),
            thermal_conductivity=_number(obj, "thermal_conductivity", where),
            wind_angle_coeff=_number(obj, "wind_angle_coeff", where),
            emissivity=_number(obj, "emissivity", where),
            radiation_coeff=_number(obj, "radiation_coeff", where),
            resistance_ref=_number(obj, "resistance_ref", where),
            temperature_ref=_number(obj, "temperature_ref", where),
            thermal_resistivity=_number(obj, "thermal_resistivity", where),
            elevation=_number(obj, "elevation", where, default=0.0),
            heat_capacity=_number(obj, "heat_capacity", where, default=0.0),
        )
    except ValueError as exc:
        raise CaseFormatError(str(exc), where) from exc


def _weather(obj: dict, where: str, fallback_kr: float) -> WeatherRecord:
    try:
        return WeatherRecord(
            ambient_temp=_number(obj, "ambient_temp", where),
            wind_speed=_number(obj, "wind_speed", where),
            solar_gain=_number(obj, "solar_gain", where),
            radiation_coeff=_number(obj, "radiation_coeff", where,
                                    default=fallback_kr),
        )
    except ValueError as exc:
        raise CaseFormatError(str(exc), where) from exc


def parse_case(doc: dict, source: str = "case") -> CaseSystem:
    """Build and validate a :class:`CaseSystem` from a decoded document."""
    schema = _require(doc, "schema", source)
    if schema != SCHEMA:
        raise CaseFormatError(f"unsupported schema {schema!r}, "
                              f"expected {SCHEMA!r}", f"{source}.schema")
    system = _require(doc, "system", source)
    peak = _number(system, "peak_demand", f"{source}.system")
    s_base = _number(system, "s_base_mva", f"{source}.system")
    v_base = _number(system, "v_base_kv", f"{source}.system")

    raw_periods = _require(doc, "periods", source)
    if not isinstance(raw_periods, list):
        raise CaseFormatError("field 'periods' must be a list", source)
    n_periods = len(raw_periods)

    buses = []
    raw_buses = _require(doc, "buses", source)
    if not isinstance(raw_buses, list):
        raise CaseFormatError("field 'buses' must be a list", source)
    for k, raw in enumerate(raw_buses):
        where = f"{source}.buses[{k}]"
        buses.append(BusSpec(
            id=_text(raw, "id", where),
            load_weight=_number(raw, "load_weight", where),
            ev_forecast=_forecast(raw, "ev_forecast", where, n_periods),
            wind_forecast=_forecast(raw, "wind_forecast", where, n_periods),
            pv_forecast=_forecast(raw, "pv_forecast", where, n_periods),
        ))

    lines = []
    raw_lines = _require(doc, "lines", source)
    if not isinstance(raw_lines, list):
        raise CaseFormatError("field 'lines' must be a list", source)
    for k, raw in enumerate(raw_lines):
        where = f"{source}.lines[{k}]"
        lines.append(LineSpec(
            id=_text(raw, "id", where),
            from_bus=_text(raw, "from_bus", where),
            to_bus=_text(raw, "to_bus", where),
            candidate=_flag(raw, "candidate", where),
            install_cost=_number(raw, "install_cost", where),
            susceptance=_number(raw, "susceptance", where),
            conductance=_number(raw, "conductance", where),
            resistance_at_tmax=_number(raw, "resistance_at_tmax", where),
            length=_number(raw, "length", where),
            t_max=_number(raw, "t_max", where),
            flow_limit=_number(raw, "flow_limit", where),
            conductor=_conductor(_require(raw, "conductor", where),
                                 f"{where}.conductor"),
        ))
    line_by_id = {c.id: c for c in lines}

    generators = []
    raw_gens = _require(doc, "generators", source)
    if not isinstance(raw_gens, list):
        raise CaseFormatError("field 'generators' must be a list", source)
    for k, raw in enumerate(raw_gens):
        where = f"{source}.generators[{k}]"
        generators.append(GeneratorSpec(
            id=_text(raw, "id", where),
            bus=_text(raw, "bus", where),
            candidate=_flag(raw, "candidate", where),
            install_cost=_number(raw, "install_cost", where),
            op_cost=_number(raw, "op_cost", where),
            p_max=_number(raw, "p_max", where),
        ))

    periods = []
    for k, raw in enumerate(raw_periods):
        where = f"{source}.periods[{k}]"
        raw_weather = raw.get("weather", {}) if isinstance(raw, dict) else {}
        if not isinstance(raw_weather, dict):
            raise CaseFormatError("field 'weather' must be an object", where)
        weather = {}
        for line_id, entry in raw_weather.items():
            entry_where = f"{where}.weather[{line_id!r}]"
            if line_id not in line_by_id:
                raise CaseFormatError(f"weather names unknown line "
                                      f"{line_id!r}", entry_where)
            weather[line_id] = _weather(
                entry, entry_where,
                line_by_id[line_id].conductor.radiation_coeff)
        periods.append(PeriodSpec(
            id=_text(raw, "id", where),
            duration=_number(raw, "duration", where),
            load_factor=_number(raw, "load_factor", where),
            weather=weather,
        ))

    case = CaseSystem(buses=tuple(buses), lines=tuple(lines),
                      generators=tuple(generators), periods=tuple(periods),
                      peak_demand=peak, s_base=s_base, v_base=v_base)
    violations = validate_case(case)
    if violations:
        raise CaseValidationError(tuple(violations))
    return case


def _read_json(path: Path, kind: str):
    """The decoded JSON document at ``path``, a ``kind`` file."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise CaseFormatError(f"cannot read {kind} file: {exc}",
                              str(path)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseFormatError(
            f"invalid JSON: {exc.msg}",
            f"{path}:{exc.lineno}:{exc.colno}") from exc


def load_case(path: str | Path) -> CaseSystem:
    path = Path(path)
    return parse_case(_read_json(path, "case"), source=path.name)


def case_to_document(case: CaseSystem) -> dict:
    """Plain-data rendering of a case, inverse of :func:`parse_case`."""
    return {
        "schema": SCHEMA,
        "system": {
            "peak_demand": case.peak_demand,
            "s_base_mva": case.s_base,
            "v_base_kv": case.v_base,
        },
        "buses": [{
            "id": b.id,
            "load_weight": b.load_weight,
            "ev_forecast": list(b.ev_forecast),
            "wind_forecast": list(b.wind_forecast),
            "pv_forecast": list(b.pv_forecast),
        } for b in case.buses],
        "lines": [{
            "id": c.id,
            "from_bus": c.from_bus,
            "to_bus": c.to_bus,
            "candidate": c.candidate,
            "install_cost": c.install_cost,
            "susceptance": c.susceptance,
            "conductance": c.conductance,
            "resistance_at_tmax": c.resistance_at_tmax,
            "length": c.length,
            "t_max": c.t_max,
            "flow_limit": c.flow_limit,
            "conductor": dataclasses.asdict(c.conductor),
        } for c in case.lines],
        "generators": [{
            "id": g.id,
            "bus": g.bus,
            "candidate": g.candidate,
            "install_cost": g.install_cost,
            "op_cost": g.op_cost,
            "p_max": g.p_max,
        } for g in case.generators],
        "periods": [{
            "id": d.id,
            "duration": d.duration,
            "load_factor": d.load_factor,
            "weather": {line_id: dataclasses.asdict(w)
                        for line_id, w in sorted(d.weather.items())},
        } for d in case.periods],
    }


def save_case(case: CaseSystem, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(case_to_document(case), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class WeatherPatch:
    """One scenario weather entry; ``kr`` may be absent (conductor default)."""

    ambient_k: float
    wind_mps: float
    solar_w_per_m: float
    kr: float | None


@dataclass(frozen=True)
class Scenario:
    robust: RobustParams | None
    weather: dict[str, dict[str, WeatherPatch]]   # period -> line -> patch


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    return parse_scenario(_read_json(path, "scenario"), source=path.name)


def parse_scenario(doc: dict, source: str = "scenario") -> Scenario:
    if not isinstance(doc, dict):
        raise CaseFormatError("scenario must be an object", source)
    robust = None
    if "robust" in doc:
        where = f"{source}.robust"
        raw = doc["robust"]
        try:
            robust = RobustParams(
                phi=_number(raw, "phi", where),
                mu=_number(raw, "mu", where),
                reliability=_number(raw, "reliability", where),
            )
        except ValueError as exc:
            raise CaseFormatError(str(exc), where) from exc
    weather: dict[str, dict[str, WeatherPatch]] = {}
    raw_weather = doc.get("weather", {})
    if not isinstance(raw_weather, dict):
        raise CaseFormatError("field 'weather' must be an object", source)
    for period_id, lines in raw_weather.items():
        where = f"{source}.weather[{period_id!r}]"
        if not isinstance(lines, dict):
            raise CaseFormatError("expected an object of line patches", where)
        weather[period_id] = {}
        for line_id, raw in lines.items():
            patch_where = f"{where}[{line_id!r}]"
            kr = None
            if isinstance(raw, dict) and "kr" in raw:
                kr = _number(raw, "kr", patch_where)
            patch = WeatherPatch(
                ambient_k=_number(raw, "ambient_k", patch_where),
                wind_mps=_number(raw, "wind_mps", patch_where),
                solar_w_per_m=_number(raw, "solar_w_per_m", patch_where),
                kr=kr,
            )
            try:   # WeatherRecord's checks; an absent kr stands in as 1.0
                WeatherRecord(patch.ambient_k, patch.wind_mps,
                              patch.solar_w_per_m, 1.0 if kr is None else kr)
            except ValueError as exc:
                raise CaseFormatError(str(exc), patch_where) from exc
            weather[period_id][line_id] = patch
    return Scenario(robust=robust, weather=weather)


def apply_scenario(case: CaseSystem, scenario: Scenario) -> CaseSystem:
    """Overlay scenario weather onto the case's periods.

    Wildcard entries apply first, explicit period/line ids override them,
    whatever the order of the keys.  Unknown explicit ids are an error; a
    wildcard over an empty case is not.
    """
    period_ids = [d.id for d in case.periods]
    line_ids = [c.id for c in case.lines]
    for period_id in scenario.weather:
        if period_id != WILDCARD and period_id not in period_ids:
            raise UnknownEntityError(f"scenario weather names unknown period "
                                     f"{period_id!r}")
        for line_id in scenario.weather[period_id]:
            if line_id != WILDCARD and line_id not in line_ids:
                raise UnknownEntityError(f"scenario weather names unknown line "
                                         f"{line_id!r}")

    def patches_for(period_id: str) -> dict[str, WeatherPatch]:
        merged: dict[str, WeatherPatch] = {}
        for key in (WILDCARD, period_id):
            lines = scenario.weather.get(key, {})
            if WILDCARD in lines:
                merged.update(dict.fromkeys(line_ids, lines[WILDCARD]))
            merged.update((line_id, patch) for line_id, patch in lines.items()
                          if line_id != WILDCARD)
        return merged

    new_periods = []
    for d in case.periods:
        weather = dict(d.weather)
        for line_id, patch in patches_for(d.id).items():
            kr = (patch.kr if patch.kr is not None
                  else case.line(line_id).conductor.radiation_coeff)
            weather[line_id] = WeatherRecord(
                ambient_temp=patch.ambient_k,
                wind_speed=patch.wind_mps,
                solar_gain=patch.solar_w_per_m,
                radiation_coeff=kr,
            )
        new_periods.append(dataclasses.replace(d, weather=weather))
    return dataclasses.replace(case, periods=tuple(new_periods))
