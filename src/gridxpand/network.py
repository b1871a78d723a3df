"""Immutable network case model: buses, lines, generators, periods.

Loads are not stored per bus; each bus carries a weight (its share of the
system peak) and each period a load factor, so the base load at a bus in a
period is ``peak_demand * load_weight * load_factor``.  Rescaling a case to
a new peak is therefore a single field replacement and composes
idempotently.  Flows, susceptances and flow limits are per-unit on
``s_base``; loads, generation and forecasts are MW and get converted when
the optimization model is built.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .errors import UnknownEntityError
from .thermal import ConductorSpec, WeatherRecord

WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class Violation:
    """One broken invariant; data, not an exception."""

    entity_type: str
    entity_id: str
    field_name: str
    rule: str

    def __str__(self) -> str:
        return (f"{self.entity_type} {self.entity_id!r}, "
                f"{self.field_name}: {self.rule}")


@dataclass(frozen=True)
class BusSpec:
    """Per-period forecast tuples are aligned with the case's period order."""

    id: str
    load_weight: float
    ev_forecast: tuple[float, ...]
    wind_forecast: tuple[float, ...]
    pv_forecast: tuple[float, ...]


@dataclass(frozen=True)
class LineSpec:
    id: str
    from_bus: str
    to_bus: str
    candidate: bool
    install_cost: float          # $
    susceptance: float           # p.u.
    conductance: float           # p.u.
    resistance_at_tmax: float    # ohm, whole line, at t_max
    length: float                # km
    t_max: float                 # K
    flow_limit: float            # p.u.
    conductor: ConductorSpec

    @property
    def length_m(self) -> float:
        return self.length * 1000.0

    @property
    def resistance_per_meter(self) -> float:
        """Ohm/m at the temperature ceiling, for the heat balance."""
        return self.resistance_at_tmax / self.length_m


@dataclass(frozen=True)
class GeneratorSpec:
    id: str
    bus: str
    candidate: bool
    install_cost: float          # $
    op_cost: float               # $/MWh
    p_max: float                 # MW


@dataclass(frozen=True)
class PeriodSpec:
    """``weather`` maps line id to that line's conditions in this period.

    The mapping may be empty for pure DC studies; the DTLR builder insists
    on an entry for every line.
    """

    id: str
    duration: float              # hours
    load_factor: float
    weather: dict[str, WeatherRecord] = field(default_factory=dict)


@dataclass(frozen=True)
class CaseSystem:
    buses: tuple[BusSpec, ...]
    lines: tuple[LineSpec, ...]
    generators: tuple[GeneratorSpec, ...]
    periods: tuple[PeriodSpec, ...]
    peak_demand: float           # MW
    s_base: float                # MVA
    v_base: float                # kV

    # -- lookups ----------------------------------------------------------

    def bus(self, bus_id: str) -> BusSpec:
        for b in self.buses:
            if b.id == bus_id:
                return b
        raise UnknownEntityError(f"unknown bus {bus_id!r}")

    def line(self, line_id: str) -> LineSpec:
        for c in self.lines:
            if c.id == line_id:
                return c
        raise UnknownEntityError(f"unknown line {line_id!r}")

    def generator(self, gen_id: str) -> GeneratorSpec:
        for g in self.generators:
            if g.id == gen_id:
                return g
        raise UnknownEntityError(f"unknown generator {gen_id!r}")

    def period(self, period_id: str) -> PeriodSpec:
        for d in self.periods:
            if d.id == period_id:
                return d
        raise UnknownEntityError(f"unknown period {period_id!r}")

    def period_index(self, period_id: str) -> int:
        for k, d in enumerate(self.periods):
            if d.id == period_id:
                return k
        raise UnknownEntityError(f"unknown period {period_id!r}")

    @property
    def candidate_lines(self) -> tuple[LineSpec, ...]:
        return tuple(c for c in self.lines if c.candidate)

    @property
    def candidate_generators(self) -> tuple[GeneratorSpec, ...]:
        return tuple(g for g in self.generators if g.candidate)

    @property
    def current_base(self) -> float:
        """Ampere equivalent of 1 p.u. flow: S_base / V_base, single phase."""
        return self.s_base * 1e6 / (self.v_base * 1e3)

    # -- derived quantities -----------------------------------------------

    def base_load(self, bus_id: str, period_id: str) -> float:
        """MW demand before EV and renewables."""
        b = self.bus(bus_id)
        d = self.period(period_id)
        return self.peak_demand * b.load_weight * d.load_factor

    def net_demand_forecast(self, bus_id: str, period_id: str) -> float:
        """Base load plus EV charging minus wind and PV, MW; may be negative."""
        b = self.bus(bus_id)
        k = self.period_index(period_id)
        return (self.base_load(bus_id, period_id) + b.ev_forecast[k]
                - b.wind_forecast[k] - b.pv_forecast[k])


def scale_to_peak(case: CaseSystem, peak: float) -> CaseSystem:
    """New case with the system peak replaced; loads follow by derivation."""
    if not 0 < peak < math.inf:
        raise ValueError(f"peak demand must be finite and > 0 MW, got {peak}")
    return dataclasses.replace(case, peak_demand=peak)


def validate_case(case: CaseSystem) -> list[Violation]:
    """Every broken invariant, one entry each; empty list means sound.

    Every number is compared so that NaN and infinity break its rule:
    :mod:`gridxpand.caseio` refuses them in a file, and this catches them
    in a case built in code."""
    out: list[Violation] = []

    def bad(entity_type: str, entity_id: str, field_name: str, rule: str):
        out.append(Violation(entity_type, entity_id, field_name, rule))

    n_periods = len(case.periods)
    if n_periods == 0:
        bad("case", "-", "periods", "at least one period is required")
    if not 0 < case.peak_demand < math.inf:
        bad("case", "-", "peak_demand", "must be > 0 MW")
    if not 0 < case.s_base < math.inf:
        bad("case", "-", "s_base", "must be > 0 MVA")
    if not 0 < case.v_base < math.inf:
        bad("case", "-", "v_base", "must be > 0 kV")

    for kind, items in (("bus", case.buses), ("line", case.lines),
                        ("generator", case.generators),
                        ("period", case.periods)):
        seen: set[str] = set()
        for item in items:
            if item.id in seen:
                bad(kind, item.id, "id", "duplicate identifier")
            seen.add(item.id)

    bus_ids = {b.id for b in case.buses}
    line_ids = {c.id for c in case.lines}

    weight_sum = 0.0
    for b in case.buses:
        weight_sum += b.load_weight
        if not 0 <= b.load_weight < math.inf:
            bad("bus", b.id, "load_weight", "must be >= 0")
        for field_name in ("ev_forecast", "wind_forecast", "pv_forecast"):
            values = getattr(b, field_name)
            if n_periods and len(values) != n_periods:
                bad("bus", b.id, field_name,
                    f"needs one value per period ({len(values)} != {n_periods})")
            if not all(0 <= v < math.inf for v in values):
                bad("bus", b.id, field_name, "forecasts must be >= 0")
    if case.buses and not abs(weight_sum - 1.0) <= WEIGHT_SUM_TOL:
        bad("case", "-", "load_weight",
            f"bus weights must sum to 1 (got {weight_sum!r})")

    for c in case.lines:
        if c.from_bus not in bus_ids:
            bad("line", c.id, "from_bus", f"unknown bus {c.from_bus!r}")
        if c.to_bus not in bus_ids:
            bad("line", c.id, "to_bus", f"unknown bus {c.to_bus!r}")
        if c.from_bus == c.to_bus:
            bad("line", c.id, "to_bus", "line endpoints must differ")
        if not 0 < c.length < math.inf:
            bad("line", c.id, "length", "must be > 0 km")
        if not 273 < c.t_max < math.inf:
            bad("line", c.id, "t_max", "must be > 273 K")
        if not 0 < c.flow_limit < math.inf:
            bad("line", c.id, "flow_limit", "must be > 0 p.u.")
        if not 0 < c.susceptance < math.inf:
            bad("line", c.id, "susceptance", "must be > 0 p.u.")
        if not 0 <= c.conductance < math.inf:
            bad("line", c.id, "conductance", "must be >= 0 p.u.")
        if not 0 < c.resistance_at_tmax < math.inf:
            bad("line", c.id, "resistance_at_tmax", "must be > 0 ohm")
        if not 0 <= c.install_cost < math.inf:
            bad("line", c.id, "install_cost", "must be >= 0")
        elif c.candidate and c.install_cost == 0:
            bad("line", c.id, "install_cost",
                "zero install cost is only allowed for existing lines")

    for g in case.generators:
        if g.bus not in bus_ids:
            bad("generator", g.id, "bus", f"unknown bus {g.bus!r}")
        if not 0 < g.p_max < math.inf:
            bad("generator", g.id, "p_max", "must be > 0 MW")
        if not 0 <= g.op_cost < math.inf:
            bad("generator", g.id, "op_cost", "must be >= 0")
        if not 0 <= g.install_cost < math.inf:
            bad("generator", g.id, "install_cost", "must be >= 0")
        elif g.candidate and g.install_cost == 0:
            bad("generator", g.id, "install_cost",
                "zero install cost is only allowed for existing units")

    for d in case.periods:
        if not 0 < d.duration < math.inf:
            bad("period", d.id, "duration", "must be > 0 h")
        if not 0 < d.load_factor <= 1:
            bad("period", d.id, "load_factor", "must be in (0, 1]")
        for line_id in d.weather:
            if line_id not in line_ids:
                bad("period", d.id, "weather", f"unknown line {line_id!r}")

    return out
