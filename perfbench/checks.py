"""Checks of every answer, computed apart from the program's own audits.

Case and scenario files are read here as plain JSON, so demand, costs,
limits and weather come from the files and not from gridxpand's parser.
Each check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
import scipy.optimize as sopt

TOL = 1e-6                  # balance, limits and Ohm's law, relative
OBJ_TOL = 1e-6              # objective recomputation, relative
SWEEP_SLACK = 2e-4          # criterion 5's slack on sweep objectives
REFERENCE_TOL = 1e-4        # seeded objective against its cold reference
ORACLE_TOL = 1e-6           # external against oracle objective


def _scaled(x: float) -> float:
    return max(1.0, abs(x))


class RawCase:
    """A case file with its scenario overlay, read as plain JSON."""

    def __init__(self, case_file: Path, scenario_file: Path):
        doc = json.loads(Path(case_file).read_text())
        scenario = json.loads(Path(scenario_file).read_text())
        system = doc["system"]
        self.s_base = system["s_base_mva"]
        self.i_base = system["s_base_mva"] * 1e6 / (system["v_base_kv"] * 1e3)
        self.buses = doc["buses"]
        self.lines = doc["lines"]
        self.gens = doc["generators"]
        self.periods = doc["periods"]
        robust = scenario["robust"]
        self.phi, self.mu = robust["phi"], robust["mu"]
        self.omega = NormalDist().inv_cdf(1.0 - robust["reliability"])
        self.ref_bus = min((b["id"] for b in self.buses),
                           key=lambda i: (0, int(i), i) if i.isdigit()
                           else (1, 0, i))
        # (line, period) -> (ambient K, wind m/s, solar W/m, kr); scenario
        # wildcards first, explicit ids over them.
        self.weather = {}
        overlay = scenario.get("weather", {})
        for p in self.periods:
            for c in self.lines:
                w = p.get("weather", {}).get(c["id"])
                if w is not None:
                    self.weather[c["id"], p["id"]] = (
                        w["ambient_temp"], w["wind_speed"], w["solar_gain"],
                        w.get("radiation_coeff",
                              c["conductor"]["radiation_coeff"]))
                for key in ("*", p["id"]):
                    patches = overlay.get(key, {})
                    for line_key in ("*", c["id"]):
                        patch = patches.get(line_key)
                        if patch is not None:
                            self.weather[c["id"], p["id"]] = (
                                patch["ambient_k"], patch["wind_mps"],
                                patch["solar_w_per_m"],
                                patch.get("kr", c["conductor"]
                                          ["radiation_coeff"]))

    def net_demand(self, bus: dict, k: int, peak: float) -> float:
        return (peak * bus["load_weight"] * self.periods[k]["load_factor"]
                + bus["ev_forecast"][k] - bus["wind_forecast"][k]
                - bus["pv_forecast"][k])

    def balance_rhs(self, bus: dict, k: int, peak: float, mode: str) -> float:
        net = self.net_demand(bus, k, peak)
        if mode == "dc_det":
            return net
        return net + self.phi * self.omega * net - self.mu * max(1.0, abs(net))

    def built(self, plan):
        lines = [c for c in self.lines
                 if not c["candidate"] or c["id"] in plan.added_lines]
        gens = [g for g in self.gens
                if not g["candidate"] or g["id"] in plan.added_units]
        return lines, gens


def check_objective(raw: RawCase, plan) -> list[str]:
    """Install costs plus dispatch x op cost x duration, from the files."""
    cost = sum(c["install_cost"] for c in raw.lines
               if c["candidate"] and c["id"] in plan.added_lines)
    cost += sum(g["install_cost"] for g in raw.gens
                if g["candidate"] and g["id"] in plan.added_units)
    cost += operating_cost(raw, plan)
    if abs(cost - plan.objective) > OBJ_TOL * _scaled(cost):
        return [f"objective {plan.objective!r} but the files give {cost!r}"]
    return []


def check_operation(raw: RawCase, plan, peak: float, mode: str) -> list[str]:
    """Unit limits, nodal balance; flow limits and Ohm's law when static."""
    problems = []
    lines, gens = raw.built(plan)
    built_lines = {c["id"] for c in lines}
    built_gens = {g["id"] for g in gens}
    for k, p in enumerate(raw.periods):
        d = p["id"]
        for g in raw.gens:
            x = plan.dispatch[g["id"], d]
            cap = g["p_max"] if g["id"] in built_gens else 0.0
            if x < -TOL * _scaled(cap) or x > cap + TOL * _scaled(cap):
                problems.append(f"unit {g['id']} period {d}: {x} outside "
                                f"[0, {cap}]")
        for c in raw.lines:
            f = plan.flows[c["id"], d]
            if c["id"] not in built_lines:
                limit = 0.0
            elif mode == "dtlr_robust":
                continue
            else:
                limit = c["flow_limit"]
            if abs(f) > limit + TOL * _scaled(limit):
                problems.append(f"line {c['id']} period {d}: |{f}| > {limit}")
        for bus in raw.buses:
            b = bus["id"]
            lhs = sum(plan.dispatch[g["id"], d] for g in raw.gens
                      if g["bus"] == b)
            for c in raw.lines:
                if c["from_bus"] == b:
                    lhs -= raw.s_base * plan.flows[c["id"], d]
                elif c["to_bus"] == b:
                    lhs += raw.s_base * plan.flows[c["id"], d]
            rhs = raw.balance_rhs(bus, k, peak, mode)
            short = rhs - lhs if mode != "dc_det" else abs(rhs - lhs)
            if short > TOL * _scaled(rhs):
                problems.append(f"bus {b} period {d}: balance {lhs} vs {rhs}")
        if mode != "dtlr_robust":
            problems += _ohm_residual(raw, plan, lines, d)
    return problems


def _ohm_residual(raw: RawCase, plan, lines, period: str) -> list[str]:
    """Flows on built lines must come from one set of bus angles."""
    others = [b["id"] for b in raw.buses if b["id"] != raw.ref_bus]
    col = {b: j for j, b in enumerate(others)}
    a = np.zeros((len(lines), len(others)))
    f = np.empty(len(lines))
    for r, c in enumerate(lines):
        if c["from_bus"] in col:
            a[r, col[c["from_bus"]]] += c["susceptance"]
        if c["to_bus"] in col:
            a[r, col[c["to_bus"]]] -= c["susceptance"]
        f[r] = plan.flows[c["id"], period]
    theta = np.linalg.lstsq(a, f, rcond=None)[0]
    worst = float(np.abs(a @ theta - f).max(initial=0.0))
    if worst > TOL:
        return [f"period {period}: flows break Ohm's law by {worst}"]
    return []


def operating_cost(raw: RawCase, plan) -> float:
    return sum(plan.dispatch[g["id"], p["id"]] * g["op_cost"] * p["duration"]
               for p in raw.periods for g in raw.gens)


def dc_opf_cost(raw: RawCase, plan, peak: float, mode: str) -> float | None:
    """Least operating cost with the plan's builds fixed, by ``linprog``.

    Per period: dispatch of built units, flows on built lines within their
    limits, Ohm's law through bus angles in [-pi/2, pi/2] with the
    lowest-numbered bus as reference, and the nodal balance (``>=`` with
    the robust margin outside ``dc_det``).  ``None`` when infeasible.
    """
    lines, gens = raw.built(plan)
    buses = [b["id"] for b in raw.buses]
    n_g, n_l, n_b = len(gens), len(lines), len(buses)
    width = n_g + n_l + n_b
    n_p = len(raw.periods)
    cost = np.zeros(width * n_p)
    bounds = []
    a_eq, b_eq, a_ub, b_ub = [], [], [], []
    for k, p in enumerate(raw.periods):
        base = k * width
        for j, g in enumerate(gens):
            cost[base + j] = g["op_cost"] * p["duration"]
        bounds += [(0.0, g["p_max"]) for g in gens]
        bounds += [(-c["flow_limit"], c["flow_limit"]) for c in lines]
        bounds += [(0.0, 0.0) if b == raw.ref_bus
                   else (-math.pi / 2, math.pi / 2) for b in buses]
        angle = base + n_g + n_l
        for j, c in enumerate(lines):
            row = np.zeros(width * n_p)
            row[base + n_g + j] = 1.0
            row[angle + buses.index(c["from_bus"])] -= c["susceptance"]
            row[angle + buses.index(c["to_bus"])] += c["susceptance"]
            a_eq.append(row)
            b_eq.append(0.0)
        for bus in raw.buses:
            row = np.zeros(width * n_p)
            for j, g in enumerate(gens):
                if g["bus"] == bus["id"]:
                    row[base + j] = 1.0
            for j, c in enumerate(lines):
                if c["from_bus"] == bus["id"]:
                    row[base + n_g + j] -= raw.s_base
                elif c["to_bus"] == bus["id"]:
                    row[base + n_g + j] += raw.s_base
            rhs = raw.balance_rhs(bus, k, peak, mode)
            if mode == "dc_det":
                a_eq.append(row)
                b_eq.append(rhs)
            else:
                a_ub.append(-row)
                b_ub.append(-rhs)
    res = sopt.linprog(cost, A_ub=np.array(a_ub) if a_ub else None,
                       b_ub=b_ub or None, A_eq=np.array(a_eq), b_eq=b_eq,
                       bounds=bounds, method="highs")
    return float(res.fun) if res.status == 0 else None


def check_dispatch_optimal(raw: RawCase, plan, peak: float, mode: str,
                           gap: float) -> list[str]:
    """The DC-OPF with the plan's builds may not beat it beyond the gap."""
    best = dc_opf_cost(raw, plan, peak, mode)
    if best is None:
        return ["DC-OPF with the plan's builds is infeasible"]
    ours = operating_cost(raw, plan)
    if ours - best > (gap + OBJ_TOL) * _scaled(plan.objective):
        return [f"operating cost {ours!r} but DC-OPF reaches {best!r}"]
    return []


def heat_balance_residuals(raw: RawCase, plan) -> dict:
    """I^2 R + q_s - k_gov (T - T_env) - eps K_r (T^4 - T_env^4), W/m."""
    lines, _ = raw.built(plan)
    out = {}
    for p in raw.periods:
        for c in lines:
            key = (c["id"], p["id"])
            t_env, wind, solar, kr = raw.weather[key]
            cond = c["conductor"]
            reynolds = (cond["diameter"] * wind * cond["air_density"]
                        / cond["air_viscosity"])
            scale = cond["wind_angle_coeff"] * cond["thermal_conductivity"]
            k_gov = scale * max(1.01 + 1.35 * reynolds ** 0.52,
                                0.754 * reynolds ** 0.5)
            temp = plan.temperatures[key]
            amps = abs(plan.flows[key]) * raw.i_base
            ohm_per_m = c["resistance_at_tmax"] / (c["length"] * 1000.0)
            out[key] = (amps * amps * ohm_per_m + solar
                        - k_gov * (temp - t_env)
                        - cond["emissivity"] * kr * (temp ** 4 - t_env ** 4))
    return out


def check_heat_balance(raw: RawCase, plan, bounds: dict) -> list[str]:
    problems = []
    t_max = {c["id"]: c["t_max"] for c in raw.lines}
    for key, residual in heat_balance_residuals(raw, plan).items():
        if residual > bounds[key]:
            problems.append(f"line-period {key}: heat-balance residual "
                            f"{residual:.6g} W/m above {bounds[key]:.6g}")
        if plan.temperatures[key] > t_max[key[0]] * (1 + TOL):
            problems.append(f"line-period {key}: temperature above t_max")
    return problems


def check_sweep(case: str, rows: list[dict], onsets: dict) -> list[str]:
    """Statuses at the expected onsets, monotone costs, DTLR vs static."""
    problems = []
    by_mode: dict[str, list[dict]] = {}
    for row in rows:
        by_mode.setdefault(row["mode"], []).append(row)
        onset = onsets.get((case, row["mode"]), math.inf)
        want = "infeasible" if row["peak_mw"] >= onset else "optimal"
        if row["status"] != want:
            problems.append(f"{case} {row['peak_mw']:.0f} MW {row['mode']}: "
                            f"{row['status']}, expected {want}")
    for mode, mode_rows in by_mode.items():
        feasible = [r for r in mode_rows if r["status"] == "optimal"]
        slack = SWEEP_SLACK * max((r["objective"] for r in feasible),
                                  default=1.0)
        for a, b in zip(feasible, feasible[1:]):
            if not b["objective"] > a["objective"] + slack:
                problems.append(f"{case} {mode}: cost does not rise from "
                                f"{a['peak_mw']:.0f} to {b['peak_mw']:.0f} MW")
    dc = {r["peak_mw"]: r for r in by_mode.get("dc_robust", ())}
    for row in by_mode.get("dtlr_robust", ()):
        other = dc.get(row["peak_mw"])
        if other is None or other["status"] != "optimal":
            continue
        if row["status"] != "optimal":
            problems.append(f"{case} {row['peak_mw']:.0f} MW: dtlr_robust "
                            f"{row['status']} where dc_robust is feasible")
        elif row["objective"] > other["objective"] + SWEEP_SLACK * _scaled(
                other["objective"]):
            problems.append(f"{case} {row['peak_mw']:.0f} MW: dtlr_robust "
                            "costs more than dc_robust")
    return problems


def check_reference(case: str, row: dict, reference: dict) -> list[str]:
    ref = reference.get((case, row["peak_mw"], row["mode"]))
    if ref is None:
        return [f"{case} {row['peak_mw']:.0f} MW {row['mode']}: no reference"]
    if ref["status"] != row["status"]:
        return [f"{case} {row['peak_mw']:.0f} MW {row['mode']}: "
                f"{row['status']}, reference {ref['status']}"]
    if ref["objective"] is not None and (
            abs(row["objective"] - ref["objective"])
            > REFERENCE_TOL * _scaled(ref["objective"])):
        return [f"{case} {row['peak_mw']:.0f} MW {row['mode']}: objective "
                f"{row['objective']!r}, reference {ref['objective']!r}"]
    return []


def check_oracle_agreement(ext, orc) -> list[str]:
    if ext.status != orc.status:
        return [f"external {ext.status}, oracle {orc.status}"]
    if ext.objective is not None and (
            abs(ext.objective - orc.objective)
            > ORACLE_TOL * _scaled(orc.objective)):
        return [f"external {ext.objective!r}, oracle {orc.objective!r}"]
    return []
