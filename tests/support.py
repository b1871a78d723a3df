"""Shared test helpers: toy cases, random instances, and gadget probes.

The gadget probes all follow the same pattern: build a minimal model with
the inputs pinned, then push the gadget's output down and up with two
oracle solves.  An exact gadget leaves no room — both probes land on the
direct nonlinear value — so any daylight between min and max, or between
either probe and the hand-evaluated definition, is a mismatch.  The
rating probe only pushes up: the rating is the flow's one bound from
above.

:func:`heat_balance_lp` keeps the per-line heat-balance rows the builder
used to emit, as an LP oracle for the build-time rating, and
:func:`window_cos_selection` keeps its earlier cosine side rows, as a
reference model for the optimum.
"""

from __future__ import annotations

import dataclasses
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np

import gridxpand
from gridxpand import (BusSpec, CaseSystem, ConductorSpec, ConvectionCoeffs,
                       GeneratorSpec, LineSpec, ModelIR, PeriodSpec,
                       RobustParams, SolveConfig, WeatherRecord, build_igtep,
                       line_convection, oracle_solve, radiation_log_fit)
from gridxpand import builder
from gridxpand.ir import BINARY, CONTINUOUS, EQ, GE, LE
from gridxpand.linearize import (ANGLE_SPAN, CosSelection, TrigSegments,
                                 gadget_switched_dc_flow, trig_segments)

PROBE_TOL = 1e-7

# Filled by the acceptance battery; a conftest hook echoes these lines
# into the terminal summary so they survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []

DEFAULT_CONDUCTOR = ConductorSpec(
    diameter=0.035, air_density=1.293, air_viscosity=1.81e-5,
    thermal_conductivity=0.028, wind_angle_coeff=1.0, emissivity=0.75,
    radiation_coeff=2.5e-9, resistance_ref=2.811, temperature_ref=298.0,
    thermal_resistivity=0.0341)

DEFAULT_WEATHER = WeatherRecord(ambient_temp=298.0, wind_speed=2.23,
                                solar_gain=14.08, radiation_coeff=2.5e-9)

STANDARD_ROBUST = RobustParams(phi=0.05, mu=0.01, reliability=0.05)


# ---------------------------------------------------------------------------
# Toy cases


def _toy_line(line_id: str, candidate: bool, cost: float) -> LineSpec:
    return LineSpec(id=line_id, from_bus="1", to_bus="2", candidate=candidate,
                    install_cost=cost, susceptance=5.0, conductance=1.0,
                    resistance_at_tmax=2.0, length=10.0, t_max=373.0,
                    flow_limit=1.0, conductor=DEFAULT_CONDUCTOR)


def toy_case(*, with_weather: bool = True, peak: float = 100.0) -> CaseSystem:
    """Two buses, one period, one existing and one candidate of everything.

    All demand sits at bus 2; the 80 MW existing unit at bus 1 is cheap, so
    the cheapest plan ships it over the existing line and builds the
    candidate unit for the remainder.  The candidate line is never worth
    its cost at the default peak.
    """
    weather = ({"E": DEFAULT_WEATHER, "L": DEFAULT_WEATHER}
               if with_weather else {})
    return CaseSystem(
        buses=(BusSpec("1", 0.0, (0.0,), (0.0,), (0.0,)),
               BusSpec("2", 1.0, (0.0,), (0.0,), (0.0,))),
        lines=(_toy_line("E", False, 0.0), _toy_line("L", True, 5e5)),
        generators=(GeneratorSpec("EG", "1", False, 0.0, 10.0, 80.0),
                    GeneratorSpec("U1", "2", True, 1e6, 50.0, 50.0)),
        periods=(PeriodSpec("p1", 100.0, 1.0, weather),),
        peak_demand=peak, s_base=100.0, v_base=132.0)


def with_line(case, line_id, weather=None, **changes):
    """``case`` with one line's fields and its p1 weather replaced."""
    lines = tuple(dataclasses.replace(c, **changes) if c.id == line_id else c
                  for c in case.lines)
    period = case.periods[0]
    if weather is not None:
        period = dataclasses.replace(
            period, weather={**period.weather, line_id: weather})
    return dataclasses.replace(case, lines=lines, periods=(period,))


# Line-periods whose heat balance admits no temperature up to t_max;
# heat_balance_lp finds no feasible point for any of them.  The radiation
# case keeps a nonnegative budget, so it is an edge of its own.
UNRATED = {
    "t_max below ambient": dict(t_max=290.0),
    "negative budget": dict(weather=dataclasses.replace(DEFAULT_WEATHER,
                                                        solar_gain=1000.0)),
    "radiation link below zero": dict(
        t_max=276.0, weather=dataclasses.replace(DEFAULT_WEATHER,
                                                 ambient_temp=273.0,
                                                 solar_gain=0.0)),
}


def toy_dc_det_objective() -> float:
    """Hand-derived optimum of the toy in dc_det mode.

    Build U1 (1e6), run EG at its 80 MW cap (80 * 10 $/MWh * 100 h) and U1
    for the remaining 20 MW (20 * 50 * 100).
    """
    return 1e6 + 80 * 10.0 * 100.0 + 20 * 50.0 * 100.0


def toy_robust_objective(params: RobustParams) -> float:
    """Hand-derived optimum of the toy under the robust balance.

    Bus 2 demands ``100 + 100*phi*omega - 1`` MW; bus 1 may overship its
    80 MW by the 0.01 MW tolerance, so U1 covers the rest.
    """
    po = params.phi * params.omega
    u1 = 100.0 + 100.0 * po - 100.0 * params.mu - 80.0 - params.mu
    return 1e6 + 80 * 10.0 * 100.0 + u1 * 50.0 * 100.0


# ---------------------------------------------------------------------------
# Random planning instances for backend-agreement checks


def random_instance(rng: np.random.Generator):
    """One random small planning instance: ``(case, params, mode)``.

    Sized so the built model keeps at most 10 free binaries, which is what
    the enumeration oracle can digest quickly.  Demand is drawn wide enough
    that a fair share of instances come out infeasible on purpose.
    """
    mode = str(rng.choice(("dc_det", "dc_robust", "dtlr_robust"),
                          p=(0.4, 0.35, 0.25)))
    thermal = mode == "dtlr_robust"
    n_buses = 2 if thermal else int(rng.integers(2, 4))
    bus_ids = [str(k + 1) for k in range(n_buses)]
    weights = rng.uniform(0.1, 1.0, size=n_buses)
    weights /= weights.sum()
    n_periods = 1 if thermal else int(rng.integers(1, 3))

    buses = tuple(
        BusSpec(b, float(w),
                tuple(float(v) for v in rng.uniform(0, 8, n_periods)),
                tuple(float(v) for v in rng.uniform(0, 6, n_periods)),
                tuple(float(v) for v in rng.uniform(0, 6, n_periods)))
        for b, w in zip(bus_ids, weights))

    def line(line_id, a, b, candidate):
        return LineSpec(
            id=line_id, from_bus=a, to_bus=b, candidate=candidate,
            install_cost=float(rng.uniform(2e5, 9e5)) if candidate else 0.0,
            susceptance=float(rng.uniform(2.0, 8.0)),
            conductance=float(rng.uniform(0.2, 1.5)),
            resistance_at_tmax=float(rng.uniform(1.0, 4.0)),
            length=10.0, t_max=373.0,
            flow_limit=float(rng.uniform(0.5, 2.0)),
            conductor=DEFAULT_CONDUCTOR)

    lines = [line(f"E{k}", bus_ids[k], bus_ids[k + 1], False)
             for k in range(n_buses - 1)]
    n_cand_lines = int(rng.integers(0, 2)) if thermal else int(rng.integers(0, 3))
    for k in range(n_cand_lines):
        a, b = rng.choice(n_buses, size=2, replace=False)
        lines.append(line(f"L{k}", bus_ids[a], bus_ids[b], True))

    gens = [GeneratorSpec("EG", bus_ids[0], False, 0.0,
                          float(rng.uniform(5, 20)),
                          float(rng.uniform(30, 90)))]
    budget = 10 - (2 * len(lines) * n_periods if thermal else 0) - n_cand_lines
    n_cand_gens = int(rng.integers(0, max(1, budget) + 1))
    for k in range(n_cand_gens):
        gens.append(GeneratorSpec(
            f"U{k}", bus_ids[int(rng.integers(0, n_buses))], True,
            float(rng.uniform(3e5, 1.2e6)), float(rng.uniform(20, 80)),
            float(rng.uniform(15, 60))))

    def weather():
        return WeatherRecord(
            ambient_temp=float(rng.uniform(288, 308)),
            wind_speed=float(rng.uniform(0.5, 4.0)),
            solar_gain=float(rng.uniform(0, 25)),
            radiation_coeff=2.5e-9)

    periods = tuple(
        PeriodSpec(f"p{k}", float(rng.uniform(50, 500)),
                   float(rng.uniform(0.4, 1.0)),
                   {c.id: weather() for c in lines} if thermal else {})
        for k in range(n_periods))

    case = CaseSystem(buses=buses, lines=tuple(lines), generators=tuple(gens),
                      periods=periods, peak_demand=float(rng.uniform(40, 160)),
                      s_base=100.0, v_base=132.0)
    params = None if mode == "dc_det" else STANDARD_ROBUST
    return case, params, mode


def reverse_rated_instance(rng: np.random.Generator):
    """A thermal draw of :func:`random_instance` whose existing line ``E0``
    (bus 1 to bus 2) is loaded against its direction up to its rating.

    Bus 1 takes 70-95% of the load; a cheap existing unit ``EG2`` at bus 2
    undercuts every other unit, so the optimum ships from bus 2 all that
    the rating allows.  The lines' resistances are scaled 4-40x so that the
    rating binds at these loads.  Unless a built candidate relieves it,
    ``E0``'s angle difference then sits on its rating-implied lower bound.
    """
    mode = None
    while mode != "dtlr_robust":
        case, params, mode = random_instance(rng)
    scale = float(rng.uniform(4.0, 40.0))
    share = float(rng.uniform(0.7, 0.95))
    buses = (dataclasses.replace(case.buses[0], load_weight=share),
             dataclasses.replace(case.buses[1], load_weight=1.0 - share))
    lines = tuple(dataclasses.replace(
        c, resistance_at_tmax=scale * c.resistance_at_tmax)
        for c in case.lines)
    cheap = GeneratorSpec("EG2", "2", False, 0.0, float(rng.uniform(1.0, 4.0)),
                          float(rng.uniform(60.0, 200.0)))
    case = dataclasses.replace(case, buses=buses, lines=lines,
                               generators=case.generators + (cheap,))
    return case, params, mode


# ---------------------------------------------------------------------------
# Gadget probes


def probe(ir: ModelIR, objective: dict[int, float]):
    """Oracle solve of ``ir`` under a replaced objective."""
    ir.objective = dict(objective)
    return oracle_solve(ir, SolveConfig(backend="oracle", time_limit=60.0))


def minmax_output(ir: ModelIR, out: int) -> tuple[float, float] | None:
    """(min, max) of one variable over the model, or None if infeasible."""
    lo = probe(ir, {out: 1.0})
    hi = probe(ir, {out: -1.0})
    if not (lo.status == "optimal" and hi.status == "optimal"):
        return None
    return lo.objective, -hi.objective


def _check_pinned(bad: list, label: str, span, want: float,
                  tol: float = PROBE_TOL):
    if span is None:
        bad.append(f"{label}: model infeasible")
    elif max(abs(span[0] - want), abs(span[1] - want)) > tol:
        bad.append(f"{label}: output in [{span[0]}, {span[1]}], "
                   f"definition gives {want}")


def scan_cos_side(rng: np.random.Generator, n: int) -> list[str]:
    """The cosine side rows with ``x`` pinned inside its bounds ``[lo, hi]``.

    A side that agrees with the sign of ``x`` must give exactly
    ``p = max(x, 0)``; a side that disagrees must leave no feasible point.
    """
    trig = trig_segments()
    h = trig.half_range
    bad: list[str] = []
    for k in range(n):
        lo = -float(rng.uniform(0.01, h))
        hi = float(rng.uniform(0.01, h))
        x_val = float(rng.uniform(lo, hi))
        side = int(rng.integers(0, 2))
        ir = ModelIR()
        xv = ir.add_variable("x", CONTINUOUS, lo, hi)
        ir.add_row("pin", {xv: 1.0}, EQ, x_val)
        sel = trig.attach_cos_selection(ir, xv, "g")
        ir.variables[sel.side] = dataclasses.replace(
            ir.variables[sel.side], lower=float(side), upper=float(side))
        label = (f"cos side #{k} (l={side}, x={x_val:.4f} in "
                 f"[{lo:.3f}, {hi:.3f}])")
        span = minmax_output(ir, sel.side_times_x)
        if side == (x_val >= 0.0):
            _check_pinned(bad, label, span, max(x_val, 0.0))
        elif span is not None:
            bad.append(f"{label}: inconsistent side is feasible, p in "
                       f"[{span[0]}, {span[1]}]")
    return bad


def scan_switched_dc_flow(rng: np.random.Generator, n: int) -> list[str]:
    """pf must equal u * beta * (a_s - a_r) for every pinned input."""
    bad: list[str] = []
    for k in range(n):
        beta = float(rng.uniform(1.0, 8.0))
        limit = float(rng.uniform(0.5, 3.0))
        u = int(rng.integers(0, 2))
        span = min(ANGLE_SPAN, limit / beta) * 0.95
        diff = float(rng.uniform(-span, span))
        a_r = float(rng.uniform(-0.2, 0.2))
        a_s = a_r + diff
        ir = ModelIR()
        uv = ir.add_variable("u", BINARY, u, u)
        pf = ir.add_variable("pf", CONTINUOUS, -limit, limit)
        av = ir.add_variable("a_s", CONTINUOUS, a_s, a_s)
        bv = ir.add_variable("a_r", CONTINUOUS, a_r, a_r)
        gadget_switched_dc_flow(ir, uv, pf, beta, av, bv, limit, "g")
        _check_pinned(bad, f"switch #{k} (u={u}, beta*diff={beta * diff:.4f})",
                      minmax_output(ir, pf), u * beta * diff)
    return bad


def scan_governing_convection(rng: np.random.Generator, n: int) -> list[str]:
    """Line ``E``'s rating must come from the governing convection branch.

    Each instance patches the builder's ``line_convection`` to hand out a
    drawn pair of film coefficients (ties and pairs where ``k''`` wins
    included) and draws ``t_max`` of line ``E``.  It builds the thermal toy,
    pins every binary and maximizes the flow on ``E``.  That flow must be
    the rating of :func:`cut_rating` from the convection
    ``(1 - phi*omega) * max(k', k'')``.
    """
    params = STANDARD_ROBUST
    # A large existing unit at bus 1 can ship whatever line E carries into
    # the ">=" balance at bus 2, so only the rating caps its flow.
    base = toy_case(peak=40.0)
    base = dataclasses.replace(base, generators=(
        dataclasses.replace(base.generators[0], p_max=1e4),
        base.generators[1]))
    weather = DEFAULT_WEATHER
    t_env = weather.ambient_temp
    pins = {"build[L]": 0.0, "unit[U1]": 1.0,
            "trig[E,p1].cos_side": 1.0, "trig[L,p1].cos_side": 1.0}
    bad: list[str] = []
    for k in range(n):
        k1 = float(rng.uniform(0.5, 5.0))
        k2 = k1 if rng.random() < 0.15 else float(rng.uniform(0.5, 5.0))
        t_max = float(rng.uniform(t_env + 40.0, base.line("E").t_max))
        line = dataclasses.replace(base.line("E"), t_max=t_max)
        case = dataclasses.replace(base, lines=(line, base.line("L")))
        coeffs = ConvectionCoeffs(k_prime=k1, k_double_prime=k2, reynolds=0.0)
        with mock.patch.object(builder, "line_convection",
                               lambda conductor, weather: coeffs):
            ir, _ = build_igtep(case, params, "dtlr_robust")
        for name, value in pins.items():
            v = ir.variable(name)
            ir.variables[v.index] = dataclasses.replace(v, lower=value,
                                                        upper=value)
        label = f"rating #{k} (k'={k1:.3f}, k''={k2:.3f}, t_max={t_max:.2f})"
        best = probe(ir, {ir.variable("flow[E,p1]").index: -1.0})
        if best.status != "optimal":
            bad.append(f"{label}: max-flow probe {best.status}")
            continue
        film = (1.0 - params.phi * params.omega) * max(k1, k2)
        want = cut_rating(line, weather, params, film, case.current_base)
        got = -best.objective
        if abs(got - want) > PROBE_TOL * (1.0 + abs(want)):
            bad.append(f"{label}: carries {got}, governing branch gives "
                       f"{want}")
    return bad


def _radiation_and_solar(line: LineSpec, weather: WeatherRecord,
                         params: RobustParams):
    """Radiation link ``(a, b)``, the radiation cap and the robust solar
    term, as the builder's heat-balance rows used them."""
    fit = radiation_log_fit(line.conductor.emissivity,
                            weather.radiation_coeff,
                            min(273.0, weather.ambient_temp),
                            max(373.0, line.t_max))
    a_rad, b_rad = fit.link_coefficients(weather.ambient_temp)
    qrad_cap = max(0.0, a_rad * line.t_max + b_rad) + fit.band
    po = params.phi * params.omega
    qs = weather.solar_gain
    solar_term = qs + po * qs - params.mu * max(1.0, abs(qs))
    return a_rad, b_rad, qrad_cap, solar_term


def cut_rating(line: LineSpec, weather: WeatherRecord, params: RobustParams,
               film: float, i_base: float) -> float:
    """Largest current whose 25-cut square envelope fits the heat budget at
    ``t_max``, for the robust convection film coefficient ``film`` (W/m per
    K); assumes a nonnegative budget."""
    a_rad, b_rad, qrad_cap, solar_term = _radiation_and_solar(line, weather,
                                                              params)
    budget = (film * (line.t_max - weather.ambient_temp) + params.mu
              + min(qrad_cap, a_rad * line.t_max + b_rad) - solar_term)
    x_ac = angle_window_span(line.susceptance, line.conductance)
    c2 = line.resistance_per_meter * i_base * i_base
    points = np.linspace(0.0, x_ac, builder.SQUARE_CUTS)[1:]
    return min(x_ac, float(np.min((budget / c2 + points ** 2)
                                  / (2.0 * points))))


def heat_balance_lp(line: LineSpec, weather: WeatherRecord,
                    params: RobustParams, i_base: float,
                    current: float | None = None) -> float | None:
    """Max current of one built line's heat-balance rows, or None.

    The rows are those the builder emitted per line and period before the
    rating: temperature ``T`` in ``[T_env, t_max]``, the robust convection
    cap, the radiation link under its cap, 25 tangent cuts of the squared
    current and the robust heat balance.  With ``current`` given, the
    current is pinned there and the lowest feasible ``T`` comes back
    instead.  ``None`` means no point is feasible.
    """
    t_env = weather.ambient_temp
    conv_coeff = ((1.0 - params.phi * params.omega)
                  * line_convection(line.conductor, weather).governing)
    a_rad, b_rad, qrad_cap, solar_term = _radiation_and_solar(line, weather,
                                                              params)
    x_ac = angle_window_span(line.susceptance, line.conductance)
    c2 = line.resistance_per_meter * i_base * i_base
    ir = ModelIR()
    temp = ir.add_variable("T", CONTINUOUS, 0.0, line.t_max)
    # ``convcap`` and ``T <= t_max`` imply this bound; the oracle needs it
    # stated, since it solves boxed columns only.
    conv = ir.add_variable("conv", CONTINUOUS, 0.0, max(
        0.0, params.mu + conv_coeff * (line.t_max - t_env)))
    rad = ir.add_variable("rad", CONTINUOUS, 0.0, qrad_cap)
    w = ir.add_variable("w", CONTINUOUS, 0.0, x_ac * x_ac)
    cur = ir.add_variable("current", CONTINUOUS, 0.0, x_ac)
    ir.add_row("tfloor", {temp: 1.0}, GE, t_env)
    ir.add_row("convcap", {conv: 1.0, temp: -conv_coeff}, LE,
               params.mu - conv_coeff * t_env)
    ir.add_row("radcap", {rad: 1.0, temp: -a_rad}, LE, b_rad)
    for k, x_k in enumerate(np.linspace(0.0, x_ac, builder.SQUARE_CUTS)):
        ir.add_row(f"sq_cut{k}", {w: 1.0, cur: -2.0 * float(x_k)}, GE,
                   -float(x_k) ** 2)
    ir.add_row("hbe", {w: c2, conv: -1.0, rad: -1.0}, LE, -solar_term)
    if current is not None:
        ir.add_row("pin", {cur: 1.0}, EQ, current)
        best = probe(ir, {temp: 1.0})
        return best.objective if best.status == "optimal" else None
    best = probe(ir, {cur: -1.0})
    return -best.objective if best.status == "optimal" else None


def window_cos_selection(trig: TrigSegments, ir: ModelIR, x: int,
                         tag: str) -> CosSelection:
    """The cosine side rows the builder emitted before the disjunctive hull.

    ``x`` is widened to the whole trig window ``[-h, h]``; the window rows
    ``-h*(1-l) <= x <= h*l`` pick the side and the four McCormick rows of
    ``l*x`` over ``|x| <= h`` give the product.  Patched over
    ``TrigSegments.attach_cos_selection``, it rebuilds the earlier model as
    a reference for the optimum.
    """
    h = trig.half_range
    ir.variables[x] = dataclasses.replace(ir.variables[x], lower=-h, upper=h)
    side = ir.add_variable(f"{tag}.cos_side", BINARY)
    ir.add_row(f"{tag}.cos_window_hi", {x: 1.0, side: -h}, LE, 0.0)
    ir.add_row(f"{tag}.cos_window_lo", {x: 1.0, side: -h}, GE, -h)
    prod = ir.add_variable(f"{tag}.cos_side_x.prod", CONTINUOUS, -h, h)
    ir.add_row(f"{tag}.prod_lo", {prod: 1.0, side: h}, GE, 0.0)
    ir.add_row(f"{tag}.prod_hi", {prod: 1.0, side: -h}, LE, 0.0)
    ir.add_row(f"{tag}.prod_track_lo", {prod: 1.0, x: -1.0, side: -h}, GE, -h)
    ir.add_row(f"{tag}.prod_track_hi", {prod: 1.0, x: -1.0, side: h}, LE, h)
    return CosSelection(side=side, side_times_x=prod)


def build_window_form(case: CaseSystem, params: RobustParams):
    """``build_igtep(case, params, "dtlr_robust")`` with the window rows of
    :func:`window_cos_selection` in place of the hull."""
    with mock.patch.object(TrigSegments, "attach_cos_selection",
                           window_cos_selection):
        return build_igtep(case, params, "dtlr_robust")


def name_tag_counts(ir: ModelIR) -> tuple[Counter, Counter]:
    """Columns and rows per name tag: the name without its bracketed
    indices and trailing cut number, as ``trig.cos_side`` or ``sq_cut``."""

    def tag(name: str) -> str:
        return re.sub(r"\d+$", "", re.sub(r"\[[^\]]*\]", "", name))

    return (Counter(tag(v.name) for v in ir.variables),
            Counter(tag(r.name) for r in ir.rows))


def angle_window_span(beta: float, conductance: float,
                      half_range: float = 0.6) -> float:
    """Max |linearized AC flow| over the trig window (p.u.)."""
    return half_range * (0.95 * beta + 0.24 * conductance)


def fresh_python(*args: str) -> str:
    """Run a new interpreter with ``args`` that imports gridxpand from where
    this process found it; its stdout.  A non-zero exit fails the test
    with the child's stderr."""
    src = str(Path(gridxpand.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_close(a: float, b: float, rel: float = 1e-9, abs_tol: float = 0.0):
    assert math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol), f"{a} != {b}"


def assert_row_equivalent(det_ir, rob_ir, *, relaxed_prefix: str = "balance"):
    """Check two models agree row for row and variable for variable.

    The protected build keeps the balance rows as one-sided covers, so
    those rows may differ in sense; every coefficient, bound and objective
    term must still match exactly.
    """
    assert [(v.name, v.kind, v.lower, v.upper) for v in det_ir.variables] \
        == [(v.name, v.kind, v.lower, v.upper) for v in rob_ir.variables]
    assert det_ir.objective == rob_ir.objective
    assert len(det_ir.rows) == len(rob_ir.rows)
    for a, b in zip(det_ir.rows, rob_ir.rows):
        assert a.name == b.name
        assert a.coeffs == b.coeffs, f"coefficients differ in {a.name}"
        assert a.rhs == b.rhs, f"rhs differs in {a.name}: {a.rhs} != {b.rhs}"
        if a.sense != b.sense:
            assert a.name.startswith(relaxed_prefix), \
                f"sense differs outside the balance block: {a.name}"
