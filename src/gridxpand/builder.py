"""Expansion-planning model builders, solution extraction, and audits.

Three modes share one variable skeleton (build binaries, dispatch, flows,
angles) and differ in how line capacity is modeled:

``dc_det``
    DC power flow with a hard per-line flow limit and an exact nodal
    balance.  Existing elements enter as binaries fixed to 1 so the matrix
    shape is mode- and data-independent.
``dc_robust``
    Same network model, but each nodal balance becomes a ``>=`` row whose
    right side is tightened by the uncertainty level and quantile and
    relaxed by the infeasibility tolerance, all folded in numerically
    because forecasts are parameters.
``dtlr_robust``
    Drops the static flow limits entirely.  The flow is a linearized AC
    flow (certified small-angle trig segments), and its capacity comes
    from the conductor heat balance: tangent cuts of the squared current
    against robust-capped governing convection and a log-domain radiation
    surrogate.  Temperature has no cost and every loss rises with it, so
    the balance is loosest at ``t_max`` and projects onto one number per
    line and period, computed at build time: the rating ``|flow| <= R``
    (:class:`LineRating`, from one :func:`_line_rating` call).  It bounds
    an existing line's flow column and angle difference, and gates a
    candidate's flow by its build binary.  Parallel lines (a *corridor*:
    the lines between one pair of buses) share one angle difference and
    one cosine side, bounded by the tightest member.  Every big-M constant
    is logged in the model metadata for post-solve auditing.

Solutions come back through :func:`extract_plan`, which refuses fractional
binaries, recomputes the objective from case data, and reports big-M
relaxations that bind suspiciously.  :func:`hbe_residual_audit` closes the
loop by evaluating the true nonlinear heat balance
(:func:`~gridxpand.thermal.heat_balance_breakdown`) at the plan's operating
points; :func:`hbe_certificate_bound` states how large those residuals may
legitimately be, from the certified gaps of the same ratings the model was
built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ExtractionError, ModelBuildError
from .ir import BINARY, CONTINUOUS, EQ, GE, LE, ModelIR
from .linearize import (CosSelection, TrigSegments, gadget_switched_dc_flow,
                        trig_segments)
from .network import CaseSystem, LineSpec, validate_case
from .thermal import (WeatherRecord, heat_balance_breakdown,
                      line_convection, radiation_log_fit)
from .uncertainty import RobustParams, robust_margin

MODES = ("dc_det", "dc_robust", "dtlr_robust")
SQUARE_CUTS = 25                  # tangents of current**2 per line, period
INTEGRALITY_TOL = 1e-6
OBJECTIVE_REL_TOL = 1e-6


def _cut_points(upper: float) -> np.ndarray:
    """Touch points of the tangent cuts of ``x**2`` on ``[0, upper]``."""
    return np.linspace(0.0, upper, SQUARE_CUTS)


@dataclass(frozen=True)
class LineRating:
    """Thermal rating of one line in one period, fixed at build time.

    A built line's linear heat balance admits a current ``x`` (p.u.) at
    conductor temperature ``T`` when ``c2 * env(x) <= budget - slope *
    (t_max - T)`` and ``t_floor <= T <= t_max``.  ``env`` is the envelope of
    the ``SQUARE_CUTS`` tangents of ``x**2`` on ``[0, cut_range]``; the
    right side is the robust convection cap plus the radiation link minus
    the solar margin.  Temperature has no cost and every loss rises with
    it, so ``T = t_max`` is the loosest choice and the balance projects
    exactly onto ``|flow| <= amps``.  ``amps`` is ``None`` when no
    temperature balances even zero current.  ``sq_gap`` is the cuts'
    certified undershoot of the ohmic term and ``band`` the radiation
    link's, both W/m; :func:`hbe_certificate_bound` reads them.
    """

    amps: float | None
    cut_range: float            # p.u.
    c2: float                   # W/m per (p.u.)**2
    budget: float               # W/m, heat budget at t_max
    slope: float                # W/m per K
    t_floor: float              # K
    t_max: float                # K
    sq_gap: float               # W/m
    band: float                 # W/m

    def temperature(self, flow: float) -> float:
        """Lowest temperature at which the linear balance admits ``|flow|``."""
        points = _cut_points(self.cut_range)
        need = self.c2 * float(np.max(2.0 * points * abs(flow)
                                      - points * points))
        t = self.t_max - (self.budget - need) / self.slope
        return min(self.t_max, max(self.t_floor, t))


@dataclass
class VarMap:
    """Variable ids of the build decisions, dispatch, flows, angles and
    cosine sides, and the thermal rating of each line and period.

    ``cos_side`` has one entry per corridor and period (see
    :func:`_build_thermal_flows`), keyed ``(from_bus, to_bus, period)`` in
    the direction of the corridor's angle difference: the side is 1 when
    ``angle[from_bus] >= angle[to_bus]``.
    """

    model: ModelIR
    mode: str
    line_built: dict[str, int] = field(default_factory=dict)
    unit_built: dict[str, int] = field(default_factory=dict)
    dispatch: dict[tuple[str, str], int] = field(default_factory=dict)
    flow: dict[tuple[str, str], int] = field(default_factory=dict)
    angle: dict[tuple[str, str], int] = field(default_factory=dict)
    cos_side: dict[tuple[str, str, str], int] = field(default_factory=dict)
    ratings: dict[tuple[str, str], LineRating] = field(default_factory=dict)


def reference_bus(case: CaseSystem) -> str:
    """Lowest-numbered bus id; numeric ids sort numerically."""

    def key(bus_id: str):
        try:
            return (0, int(bus_id), bus_id)
        except ValueError:
            return (1, 0, bus_id)

    return min((b.id for b in case.buses), key=key)


def _require_valid(case: CaseSystem):
    violations = validate_case(case)
    if violations:
        listing = "; ".join(str(v) for v in violations)
        raise ModelBuildError(f"case fails validation: {listing}")


def _require_weather(case: CaseSystem):
    for d in case.periods:
        for c in case.lines:
            if c.id not in d.weather:
                raise ModelBuildError(
                    f"dtlr_robust needs weather for line {c.id!r} in "
                    f"period {d.id!r}")
    hottest = max((c.t_max for c in case.lines), default=0.0)
    coldest = min((d.weather[c.id].ambient_temp for d in case.periods
                   for c in case.lines), default=-math.inf)
    if hottest <= coldest:
        raise ModelBuildError(
            f"no line's t_max is above the coldest ambient temperature "
            f"({hottest} K <= {coldest} K); check t_max against the weather")


def _ac_flow_bound(line: LineSpec, trig: TrigSegments) -> float:
    """Max |linearized AC flow| over the trig window, p.u."""
    h = trig.half_range
    s_sin = trig.sin.slope
    s_cos = abs(trig.cos_pos.slope)
    return h * (s_sin * line.susceptance + s_cos * line.conductance)


def build_igtep(case: CaseSystem, params: RobustParams | None,
                mode: str, *,
                _ratings: dict[tuple[str, str], LineRating] | None = None
                ) -> tuple[ModelIR, VarMap]:
    """Assemble the MILP for one case and mode.

    ``params`` may be omitted only in ``dc_det`` mode.  The returned model
    is self-contained; its metadata records the mode, the robustness
    parameters, every big-M constant with the bound it was sized from, and
    the linearization certificates the audit bound is built from.

    ``_ratings`` is private to the thermal seed (see
    :func:`~gridxpand.runner.run_plan`): given a thermal model's
    :attr:`VarMap.ratings`, a ``dc_det`` or ``dc_robust`` model limits each
    line-period's flow by its thermal rating instead of the line's static
    ``flow_limit`` (see :func:`_build_dc_flows`).
    """
    if mode not in MODES:
        raise ModelBuildError(f"unknown mode {mode!r}, expected one of {MODES}")
    _require_valid(case)
    robust = mode in ("dc_robust", "dtlr_robust")
    if robust and params is None:
        raise ModelBuildError(f"mode {mode} requires robustness parameters")
    if mode == "dtlr_robust":
        _require_weather(case)

    ir = ModelIR(name=f"igtep-{mode}", metadata={
        "mode": mode,
        "peak_demand": case.peak_demand,
        "big_m": {},
        "relax_rows": [],
        "certificates": {},
    })
    if robust:
        ir.metadata["robust"] = {"phi": params.phi, "mu": params.mu,
                                 "reliability": params.reliability,
                                 "omega": params.omega}
    vm = VarMap(model=ir, mode=mode)
    big_m_log: dict[str, float] = ir.metadata["big_m"]

    # -- build binaries; existing elements are fixed to 1 -----------------
    for c in case.lines:
        lo = 0.0 if c.candidate else 1.0
        vm.line_built[c.id] = ir.add_variable(f"build[{c.id}]", BINARY, lo, 1.0)
        if c.candidate:
            ir.add_objective_term(vm.line_built[c.id], c.install_cost)
    for g in case.generators:
        lo = 0.0 if g.candidate else 1.0
        vm.unit_built[g.id] = ir.add_variable(f"unit[{g.id}]", BINARY, lo, 1.0)
        if g.candidate:
            ir.add_objective_term(vm.unit_built[g.id], g.install_cost)

    # -- dispatch and angles ----------------------------------------------
    ref = reference_bus(case)
    for d in case.periods:
        for g in case.generators:
            v = ir.add_variable(f"gen[{g.id},{d.id}]", CONTINUOUS, 0.0, g.p_max)
            vm.dispatch[g.id, d.id] = v
            ir.add_objective_term(v, g.op_cost * d.duration)
            if g.candidate:
                ir.add_row(f"cap[{g.id},{d.id}]",
                           {v: 1.0, vm.unit_built[g.id]: -g.p_max}, LE, 0.0)
        for b in case.buses:
            fixed = b.id == ref
            vm.angle[b.id, d.id] = ir.add_variable(
                f"angle[{b.id},{d.id}]", CONTINUOUS,
                0.0 if fixed else -math.pi / 2,
                0.0 if fixed else math.pi / 2)

    # -- line flow model ---------------------------------------------------
    if mode == "dtlr_robust":
        trig = trig_segments()
        ir.metadata["certificates"]["trig"] = {
            "cos_max_rel_err": trig.cos_max_rel_err,
            "cos_max_abs_err": trig.cos_max_abs_err,
            "sin_max_rel_err": trig.sin.max_rel_err,
            "sin_max_abs_err": trig.sin.max_abs_err,
        }
        _build_thermal_flows(case, params, ir, vm, trig, big_m_log)
    else:
        _build_dc_flows(case, ir, vm, big_m_log, _ratings)

    # -- nodal balance -----------------------------------------------------
    for d in case.periods:
        for b in case.buses:
            coeffs: dict[int, float] = {}
            for g in case.generators:
                if g.bus == b.id:
                    coeffs[vm.dispatch[g.id, d.id]] = 1.0
            for c in case.lines:
                pf = vm.flow[c.id, d.id]
                if c.from_bus == b.id:
                    coeffs[pf] = coeffs.get(pf, 0.0) - case.s_base
                elif c.to_bus == b.id:
                    coeffs[pf] = coeffs.get(pf, 0.0) + case.s_base
            net = case.net_demand_forecast(b.id, d.id)
            if robust:
                tighten, relax = robust_margin(net, params)
                ir.add_row(f"balance[{b.id},{d.id}]", coeffs, GE,
                           net + tighten - relax)
            else:
                ir.add_row(f"balance[{b.id},{d.id}]", coeffs, EQ, net)

    return ir, vm


def _build_dc_flows(case: CaseSystem, ir: ModelIR, vm: VarMap,
                    big_m_log: dict[str, float],
                    ratings: dict[tuple[str, str], LineRating] | None):
    """Per line and period: DC flow under the line's static flow limit, or
    under its thermal rating when ``ratings`` is given.

    A line-period with no rating is kept unbuilt by the same ``unrated``
    row as in ``dtlr_robust``: an existing line makes the model infeasible,
    and a candidate's flow column is fixed at zero with no switch rows.
    """
    for d in case.periods:
        for c in case.lines:
            limit = (c.flow_limit if ratings is None
                     else ratings[c.id, d.id].amps)
            if limit is None:
                ir.add_row(f"unrated[{c.id},{d.id}]",
                           {vm.line_built[c.id]: 1.0}, LE, 0.0)
            cap = limit or 0.0
            pf = ir.add_variable(f"flow[{c.id},{d.id}]", CONTINUOUS,
                                 -cap, cap)
            vm.flow[c.id, d.id] = pf
            a_s = vm.angle[c.from_bus, d.id]
            a_r = vm.angle[c.to_bus, d.id]
            if c.candidate:
                if limit is None:
                    continue
                tag = f"switch[{c.id},{d.id}]"
                big_m_log[f"{tag}.ohm_relax"] = gadget_switched_dc_flow(
                    ir, vm.line_built[c.id], pf, c.susceptance, a_s, a_r,
                    limit, tag)
                ir.metadata["relax_rows"].append(
                    (f"{tag}.ohm_hi", vm.line_built[c.id]))
                ir.metadata["relax_rows"].append(
                    (f"{tag}.ohm_lo", vm.line_built[c.id]))
            else:
                ir.add_row(f"ohm[{c.id},{d.id}]",
                           {pf: 1.0, a_s: -c.susceptance,
                            a_r: c.susceptance}, EQ, 0.0)


def _build_thermal_flows(case: CaseSystem, params: RobustParams, ir: ModelIR,
                         vm: VarMap, trig: TrigSegments,
                         big_m_log: dict[str, float]):
    """Per corridor and period: one angle difference and its cosine side;
    per line and period: linearized AC flow under its thermal rating.

    A corridor is the set of lines between one unordered pair of buses.
    Its angle difference ``x`` runs from its first line's ``from_bus`` to
    its ``to_bus``, and it takes that line's tag; a member that runs the
    other way sees ``-x``, and both see ``|x| = 2p - x``.  ``x`` is bounded
    by the intersection of the members' :func:`_angle_bounds`, which an
    existing member's rating implies anyway, so sharing drops a column, a
    row and a cosine-side binary per extra member without changing the
    feasible set.
    """
    phi_omega = params.phi * params.omega
    if phi_omega >= 1.0:
        raise ModelBuildError(
            f"uncertainty level times quantile is {phi_omega:.3f} >= 1; "
            "the convection caps would go negative")
    i_base = case.current_base
    s_sin = trig.sin.slope
    s_cos = abs(trig.cos_pos.slope)

    sq_gaps: dict[str, float] = {}
    rad_bands: dict[str, float] = {}
    ir.metadata["certificates"]["square_gap_w_per_m"] = sq_gaps
    ir.metadata["certificates"]["radiation_band_w_per_m"] = rad_bands

    corridors: dict[frozenset[str], list[LineSpec]] = {}
    for c in case.lines:
        corridors.setdefault(frozenset((c.from_bus, c.to_bus)), []).append(c)

    for d in case.periods:
        for c in case.lines:
            rating = _line_rating(c, d.weather[c.id], params, trig, i_base)
            vm.ratings[c.id, d.id] = rating
            sq_gaps[f"{c.id},{d.id}"] = rating.sq_gap
            rad_bands[f"{c.id},{d.id}"] = rating.band
        shared: dict[frozenset[str], tuple[int, CosSelection]] = {}
        for c in case.lines:
            u = vm.line_built[c.id]
            tag = f"{c.id},{d.id}"
            rating = vm.ratings[c.id, d.id]
            if rating.amps is None:
                # No temperature up to t_max balances even zero current: an
                # existing line makes the model infeasible, a candidate
                # stays unbuilt.
                ir.add_row(f"unrated[{tag}]", {u: 1.0}, LE, 0.0)
            amps = rating.amps or 0.0

            # The corridor's angle difference, emitted with its first line:
            # within the trig window and what each existing member's rating
            # allows.
            key = frozenset((c.from_bus, c.to_bus))
            lead = corridors[key][0]
            if c is lead:
                x = ir.add_variable(f"adiff[{tag}]", CONTINUOUS,
                                    *_corridor_bounds(corridors[key], d.id,
                                                      vm, trig))
                ir.add_row(f"adiff_def[{tag}]",
                           {x: 1.0, vm.angle[c.from_bus, d.id]: -1.0,
                            vm.angle[c.to_bus, d.id]: 1.0}, EQ, 0.0)
                sel = trig.attach_cos_selection(ir, x, f"trig[{tag}]")
                vm.cos_side[c.from_bus, c.to_bus, d.id] = sel.side
                shared[key] = x, sel
            x, sel = shared[key]
            sign = 1.0 if c.from_bus == lead.from_bus else -1.0

            # Linearized AC flow G*(1 - cos) + beta*sin of the line's angle
            # difference sign*x; with the cosine surrogate 1 - s*|x| and
            # |x| = 2p - x the constant part cancels, leaving a
            # pure-variable expression.
            ac_coeffs = {x: sign * s_sin * c.susceptance
                         - s_cos * c.conductance,
                         sel.side_times_x: 2.0 * s_cos * c.conductance}

            x_ac = rating.cut_range
            cap = x_ac if c.candidate else amps
            pf = ir.add_variable(f"flow[{tag}]", CONTINUOUS, -cap, cap)
            vm.flow[c.id, d.id] = pf
            if c.candidate:
                # pf = u * ac_flow via disjunction; u=0 leaves the side
                # rows on x but makes the line electrically absent.
                hi = {pf: 1.0, u: x_ac}
                lo = {pf: 1.0, u: -x_ac}
                for var, coef in ac_coeffs.items():
                    hi[var] = hi.get(var, 0.0) - coef
                    lo[var] = lo.get(var, 0.0) - coef
                ir.add_row(f"acflow_hi[{tag}]", hi, LE, x_ac)
                ir.add_row(f"acflow_lo[{tag}]", lo, GE, -x_ac)
                ir.add_row(f"accap_hi[{tag}]", {pf: 1.0, u: -amps}, LE, 0.0)
                ir.add_row(f"accap_lo[{tag}]", {pf: 1.0, u: amps}, GE, 0.0)
                big_m_log[f"acflow[{tag}].relax"] = x_ac
                ir.metadata["relax_rows"].append((f"acflow_hi[{tag}]", u))
                ir.metadata["relax_rows"].append((f"acflow_lo[{tag}]", u))
            else:
                row = {pf: 1.0}
                for var, coef in ac_coeffs.items():
                    row[var] = row.get(var, 0.0) - coef
                ir.add_row(f"acflow[{tag}]", row, EQ, 0.0)


def _corridor_bounds(lines: list[LineSpec], period: str, vm: VarMap,
                     trig: TrigSegments) -> tuple[float, float]:
    """Bounds on a corridor's angle difference in one period, rad: the
    intersection of its lines' :func:`_angle_bounds`, in the direction of
    its first line.  A line that runs the other way bounds ``-x``, so its
    bounds are negated and swapped."""
    lo, hi = -trig.half_range, trig.half_range
    for c in lines:
        c_lo, c_hi = _angle_bounds(c, trig, vm.ratings[c.id, period].amps
                                   or 0.0)
        if c.from_bus != lines[0].from_bus:
            c_lo, c_hi = -c_hi, -c_lo
        lo, hi = max(lo, c_lo), min(hi, c_hi)
    return lo, hi


def _angle_bounds(c: LineSpec, trig: TrigSegments,
                  amps: float) -> tuple[float, float]:
    """Bounds on a line's angle difference ``x``, rad.

    A built line's linearized flow is ``s_sin*B*x + s_cos*G*|x|``, so an
    existing line's rating ``|flow| <= amps`` caps ``x`` from above at
    ``amps/(s_sin*B + s_cos*G)`` and from below at ``-amps/|s_sin*B -
    s_cos*G|``, each within the trig window.  A candidate's angle is not
    limited by its rating while it is unbuilt, and an unrated line has no
    rating to use; both keep the window.
    """
    h = trig.half_range
    if c.candidate or not amps:
        return -h, h
    s_sin = trig.sin.slope
    s_cos = abs(trig.cos_pos.slope)
    up = amps / (s_sin * c.susceptance + s_cos * c.conductance)
    slope_neg = abs(s_sin * c.susceptance - s_cos * c.conductance)
    down = amps / slope_neg if slope_neg > 0.0 else h
    return -min(h, down), min(h, up)


def _line_rating(c: LineSpec, weather: WeatherRecord, params: RobustParams,
                 trig: TrigSegments, i_base: float) -> LineRating:
    """The robust heat balance of one built line and period, solved at
    build time for its largest admissible current.

    The square cuts span the line's current range over the trig window,
    and the radiation link is fitted over ``[min(273, T_env), max(373,
    t_max)]``.
    """
    x_ac = _ac_flow_bound(c, trig)
    c2 = c.resistance_per_meter * i_base * i_base
    t_env = weather.ambient_temp
    # Governing forced convection under its robust cap.
    scale = ((1.0 - params.phi * params.omega)
             * line_convection(c.conductor, weather).governing)
    # Radiation through the log-domain link a*T + b.  Radiated power may
    # not go negative, which sets the lowest admissible temperature.
    fit = radiation_log_fit(c.conductor.emissivity, weather.radiation_coeff,
                            min(273.0, t_env), max(373.0, c.t_max))
    a_rad, b_rad = fit.link_coefficients(t_env)
    # Ohmic plus the solar margin must fit in the capped losses.
    qs = weather.solar_gain
    tighten, relax = robust_margin(qs, params)
    budget = (scale * (c.t_max - t_env) + params.mu
              + a_rad * c.t_max + b_rad - (qs + tighten - relax))
    t_floor = max(t_env, -b_rad / a_rad)
    amps = None
    if t_floor <= c.t_max and budget >= 0.0:
        points = _cut_points(x_ac)[1:]
        amps = min(x_ac, float(np.min((budget / c2 + points * points)
                                      / (2.0 * points))))
    return LineRating(amps=amps, cut_range=x_ac, c2=c2, budget=budget,
                      slope=scale + a_rad, t_floor=t_floor, t_max=c.t_max,
                      sq_gap=c2 * ((x_ac / (SQUARE_CUTS - 1)) / 2.0) ** 2,
                      band=fit.band)


# ---------------------------------------------------------------------------
# Extraction and audits


@dataclass
class PlanResult:
    status: str
    mode: str
    objective: float | None = None
    added_lines: tuple[str, ...] = ()
    added_units: tuple[str, ...] = ()
    dispatch: dict[tuple[str, str], float] = field(default_factory=dict)
    flows: dict[tuple[str, str], float] = field(default_factory=dict)
    temperatures: dict[tuple[str, str], float] = field(default_factory=dict)
    audit: dict = field(default_factory=dict)

    @property
    def element_count(self) -> int:
        return len(self.added_lines) + len(self.added_units)

    @property
    def has_plan(self) -> bool:
        return self.objective is not None


def extract_plan(solution, varmap: VarMap, case: CaseSystem) -> PlanResult:
    """Decode a solver result into a plan, with integrality and cost audits.

    Binaries must sit within 1e-6 of an integer; the objective is recomputed
    from the case data (install costs plus dispatch cost over period
    durations) and must match the solver's value to 1e-6 relative.  A
    thermal plan reports each built line-period at the lowest temperature
    its linear heat balance admits for the flow (see :class:`LineRating`),
    and each unbuilt candidate at 0.
    """
    ir = varmap.model
    mode = varmap.mode
    if solution.values is None:
        return PlanResult(status=solution.status, mode=mode)

    values = solution.values
    for v in ir.binaries():
        residual = abs(values[v.index] - round(values[v.index]))
        if residual > INTEGRALITY_TOL:
            raise ExtractionError(
                f"binary {v.name} is fractional ({values[v.index]!r}); "
                "solver tolerance problem")

    def chosen(var_id: int) -> bool:
        return values[var_id] >= 0.5

    added_lines = tuple(c.id for c in case.lines
                        if c.candidate and chosen(varmap.line_built[c.id]))
    added_units = tuple(g.id for g in case.generators
                        if g.candidate and chosen(varmap.unit_built[g.id]))

    dispatch = {k: float(values[i]) for k, i in varmap.dispatch.items()}
    flows = {k: float(values[i]) for k, i in varmap.flow.items()}
    temperatures = {
        k: rating.temperature(flows[k])
        if chosen(varmap.line_built[k[0]]) else 0.0
        for k, rating in varmap.ratings.items()}

    recomputed = 0.0
    for c in case.lines:
        if c.candidate and c.id in added_lines:
            recomputed += c.install_cost
    for g in case.generators:
        if g.candidate and g.id in added_units:
            recomputed += g.install_cost
    for d in case.periods:
        for g in case.generators:
            recomputed += dispatch[g.id, d.id] * g.op_cost * d.duration
    if solution.objective is not None:
        scale = max(1.0, abs(recomputed))
        if abs(recomputed - solution.objective) > OBJECTIVE_REL_TOL * scale:
            raise ExtractionError(
                f"objective recomputation {recomputed!r} disagrees with "
                f"solver value {solution.objective!r}")

    audit = {
        "big_m_log": dict(ir.metadata.get("big_m", {})),
        "certificates": ir.metadata.get("certificates", {}),
        "binding_relaxations": _binding_relaxations(ir, values),
    }
    return PlanResult(status=solution.status, mode=mode,
                      objective=recomputed, added_lines=added_lines,
                      added_units=added_units, dispatch=dispatch,
                      flows=flows, temperatures=temperatures, audit=audit)


def _binding_relaxations(ir: ModelIR, values) -> list[str]:
    """Relaxation rows that bind while their gating binary is off.

    A hit means the big-M window is actually constraining a disabled
    element — the bound was chosen too small for this instance.
    """
    hits = []
    by_name = {row.name: row for row in ir.rows}
    for row_name, binary_id in ir.metadata.get("relax_rows", []):
        if values[binary_id] >= 0.5:
            continue
        row = by_name[row_name]
        activity = ir.row_activity(row, values)
        if abs(activity - row.rhs) <= 1e-6 * (1.0 + abs(row.rhs)):
            hits.append(row_name)
    return hits


def hbe_residual_audit(plan: PlanResult, case: CaseSystem) -> dict[tuple[str, str], float]:
    """Signed nonlinear heat-balance residual at the plan's operating points.

    For every built line and period, evaluates gains minus losses of the
    exact physics (:func:`~gridxpand.thermal.heat_balance_breakdown`:
    quadratic ohmic term, governing forced convection, quartic radiation)
    at the reported temperature and current.  Positive residuals mean the
    linear model admitted more heat than the physics removes; they must
    stay within :func:`hbe_certificate_bound`.
    """
    if plan.mode != "dtlr_robust":
        raise ExtractionError("heat-balance audit applies to dtlr_robust plans")
    built = set(plan.added_lines)
    residuals: dict[tuple[str, str], float] = {}
    i_base = case.current_base
    for d in case.periods:
        for c in case.lines:
            if c.candidate and c.id not in built:
                continue
            key = (c.id, d.id)
            residuals[key] = heat_balance_breakdown(
                abs(plan.flows[key]) * i_base, plan.temperatures[key],
                d.weather[c.id], c.conductor, c.resistance_per_meter).residual
    return residuals


def hbe_certificate_bound(case: CaseSystem, params: RobustParams
                          ) -> dict[tuple[str, str], float]:
    """Admissible positive heat-balance residual per line and period.

    Propagates the certified linearization errors through the balance: the
    square-cut undershoot on the ohmic term, the radiation-link band, and
    the two infeasibility-tolerance relaxations (one on the governing
    convection cap, one on the solar margin).  The robust tightening terms
    only push residuals down, so they are dropped from the bound.
    """
    trig = trig_segments()
    i_base = case.current_base
    bounds: dict[tuple[str, str], float] = {}
    for d in case.periods:
        for c in case.lines:
            weather = d.weather[c.id]
            rating = _line_rating(c, weather, params, trig, i_base)
            _, relax = robust_margin(weather.solar_gain, params)
            bounds[c.id, d.id] = (rating.sq_gap + rating.band
                                  + (params.mu + relax))
    return bounds
