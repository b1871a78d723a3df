"""Case and scenario file handling.

A case file is one JSON document (``schema: "gridxpand/1"``).  Its records
are the dataclasses of :mod:`gridxpand.network` and :mod:`gridxpand.thermal`,
one key per field, and the format is stated there only:

* a field with a default may be left out;
* a per-period forecast may be one number, the same in every period;
* keys that name no field are ignored, so older files still load;
* numbers must be finite: JSON's ``NaN`` and ``Infinity`` are rejected.

Two parts have a shape of their own.  The ``system`` block carries the
case's scalars, with ``s_base`` and ``v_base`` spelled ``s_base_mva`` and
``v_base_kv``.  A period's ``weather`` maps line ids to records, and an
entry without ``radiation_coeff`` takes its line conductor's.

A scenario file is a lighter overlay: an optional ``robust`` block
(:class:`~gridxpand.uncertainty.RobustParams`) plus per-period, per-line
:class:`WeatherPatch` records.  ``"*"`` is accepted for the period or line
position and expands to all of them, explicit ids winning over the
wildcard.

Parse problems raise :class:`CaseFormatError` with a dotted location;
structurally valid but inconsistent cases raise
:class:`CaseValidationError` listing every broken invariant.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import CaseFormatError, CaseValidationError, UnknownEntityError
from .network import (BusSpec, CaseSystem, GeneratorSpec, LineSpec, PeriodSpec,
                      validate_case)
from .thermal import WeatherRecord
from .uncertainty import RobustParams

SCHEMA = "gridxpand/1"
WILDCARD = "*"
# The system block's keys for the CaseSystem fields they do not spell as is.
SYSTEM_KEYS = {"s_base": "s_base_mva", "v_base": "v_base_kv"}
_OPTIONAL_NUMBER = float | None
_PER_PERIOD = tuple[float, ...]


def _require(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise CaseFormatError("expected an object", where)
    if key not in obj:
        raise CaseFormatError(f"missing required field {key!r}", where)
    return obj[key]


def _number(value, name: str, where: str, entry: int | None = None) -> float:
    """A finite number; ``entry`` is its index in a per-period list."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and abs(value) <= sys.float_info.max:    # False for NaN too
        return float(value)
    what = f"field {name!r}" if entry is None else f"entry {entry} of {name!r}"
    rule = f"be finite, got {value}" if number else "be a number"
    raise CaseFormatError(f"{what} must {rule}", where)


def _forecast(value, name: str, where: str, n_periods: int) -> tuple[float, ...]:
    """A per-period tuple; a scalar in the file means 'same every period'."""
    if isinstance(value, list):
        return tuple(_number(entry, name, where, k)
                     for k, entry in enumerate(value))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CaseFormatError(f"field {name!r} must be a number or list", where)
    return (_number(value, name, where),) * n_periods


def _read(kind, value, name: str, where: str, n_periods: int):
    """The file's ``value`` for field ``name`` of type ``kind``."""
    if kind in (float, _OPTIONAL_NUMBER):    # None only by leaving the key out
        return _number(value, name, where)
    if kind is str:
        if not isinstance(value, str) or not value:
            raise CaseFormatError(f"field {name!r} must be a non-empty string",
                                  where)
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise CaseFormatError(f"field {name!r} must be true or false", where)
        return value
    if kind == _PER_PERIOD:
        return _forecast(value, name, where, n_periods)
    return _record(kind, value, f"{where}.{name}", n_periods)


@functools.cache
def _fields(cls) -> tuple[tuple[str, str, object, bool], ...]:
    """``(name, file key, type, has a default)`` per field of record ``cls``."""
    hints = typing.get_type_hints(cls)
    keys = SYSTEM_KEYS if cls is CaseSystem else {}
    return tuple((f.name, keys.get(f.name, f.name), hints[f.name],
                  f.default is not dataclasses.MISSING
                  or f.default_factory is not dataclasses.MISSING)
                 for f in dataclasses.fields(cls) if f.init)


def _record(cls, obj: dict, where: str, n_periods: int = 0, **given):
    """A ``cls`` read from ``obj``, one key per field.

    ``given`` fields are not read from ``obj``.  The record's own checks
    fail at ``where``.
    """
    if not isinstance(obj, dict):
        raise CaseFormatError("expected an object", where)
    values = dict(given)
    for name, key, kind, has_default in _fields(cls):
        if key in obj and name not in given:
            values[name] = _read(kind, obj[key], key, where, n_periods)
        elif not (has_default or name in given):
            raise CaseFormatError(f"missing required field {key!r}", where)
    try:
        return cls(**values)
    except ValueError as exc:
        raise CaseFormatError(str(exc), where) from exc


def _records(cls, doc: dict, key: str, where: str, n_periods: int = 0) -> tuple:
    raw = _require(doc, key, where)
    if not isinstance(raw, list):
        raise CaseFormatError(f"field {key!r} must be a list", where)
    return tuple(_record(cls, item, f"{where}.{key}[{k}]", n_periods)
                 for k, item in enumerate(raw))


def _period(raw, where: str, line_kr: dict[str, float]) -> PeriodSpec:
    """A period whose weather map names known lines only; an entry
    without ``radiation_coeff`` takes its line's, ``line_kr``."""
    raw_weather = raw.get("weather", {}) if isinstance(raw, dict) else {}
    if not isinstance(raw_weather, dict):
        raise CaseFormatError("field 'weather' must be an object", where)
    weather = {}
    for line_id, entry in raw_weather.items():
        entry_where = f"{where}.weather[{line_id!r}]"
        if line_id not in line_kr:
            raise CaseFormatError(f"weather names unknown line "
                                  f"{line_id!r}", entry_where)
        if isinstance(entry, dict):
            entry = {"radiation_coeff": line_kr[line_id], **entry}
        weather[line_id] = _record(WeatherRecord, entry, entry_where)
    return _record(PeriodSpec, raw, where, weather=weather)


def parse_case(doc: dict, source: str = "case") -> CaseSystem:
    """Build and validate a :class:`CaseSystem` from a decoded document."""
    schema = _require(doc, "schema", source)
    if schema != SCHEMA:
        raise CaseFormatError(f"unsupported schema {schema!r}, "
                              f"expected {SCHEMA!r}", f"{source}.schema")
    system = _require(doc, "system", source)
    raw_periods = _require(doc, "periods", source)
    if not isinstance(raw_periods, list):
        raise CaseFormatError("field 'periods' must be a list", source)
    buses = _records(BusSpec, doc, "buses", source, len(raw_periods))
    lines = _records(LineSpec, doc, "lines", source)
    generators = _records(GeneratorSpec, doc, "generators", source)
    line_kr = {c.id: c.conductor.radiation_coeff for c in lines}
    periods = tuple(_period(raw, f"{source}.periods[{k}]", line_kr)
                    for k, raw in enumerate(raw_periods))
    case = _record(CaseSystem, system, f"{source}.system", buses=buses,
                   lines=lines, generators=generators, periods=periods)
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


def _lists(value):
    """``value`` with its tuples as lists, the way JSON reads them back."""
    if isinstance(value, dict):
        return {key: _lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_lists(item) for item in value]
    return value


def case_to_document(case: CaseSystem) -> dict:
    """Plain-data rendering of a case, inverse of :func:`parse_case`."""
    doc = _lists(dataclasses.asdict(case))
    system = {key: doc.pop(name)
              for name, key, kind, _ in _fields(CaseSystem) if kind is float}
    return {"schema": SCHEMA, "system": system, **doc}


def save_case(case: CaseSystem, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(case_to_document(case), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True)
class WeatherPatch:
    """One scenario weather entry; ``kr`` may be absent (conductor default).

    Checked as the :class:`WeatherRecord` it becomes, an absent ``kr``
    standing in as 1.0.
    """

    ambient_k: float
    wind_mps: float
    solar_w_per_m: float
    kr: float | None = None

    def __post_init__(self):
        WeatherRecord(self.ambient_k, self.wind_mps, self.solar_w_per_m,
                      1.0 if self.kr is None else self.kr)


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
        robust = _record(RobustParams, doc["robust"], f"{source}.robust")
    weather: dict[str, dict[str, WeatherPatch]] = {}
    raw_weather = doc.get("weather", {})
    if not isinstance(raw_weather, dict):
        raise CaseFormatError("field 'weather' must be an object", source)
    for period_id, lines in raw_weather.items():
        where = f"{source}.weather[{period_id!r}]"
        if not isinstance(lines, dict):
            raise CaseFormatError("expected an object of line patches", where)
        weather[period_id] = {
            line_id: _record(WeatherPatch, raw, f"{where}[{line_id!r}]")
            for line_id, raw in lines.items()}
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
