"""Workload definitions: the fixed sweep lists and the oracle instance mix.

Both sweeps run ``run_sweep(..., parallel=False)`` at gap 1e-4 on the
shipped cases; their instance lists do not depend on the seed.  The
``oracle_check`` mix draws its numbers from the seed but keeps a fixed
shape per instance (buses, periods, candidates, mode), so every seed
enumerates the same number of binary assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

SWEEP_GAP = 1e-4
SWEEP_TIME_LIMIT = 300.0
ORACLE_TIME_LIMIT = 60.0
DEFAULT_SEED = 20241017


@dataclass(frozen=True)
class Sweep:
    case: str                       # stem of src/gridxpand/cases/<case>.json
    peaks: tuple[float, ...]
    modes: tuple[str, ...]


SWEEPS = {
    "thermal_sweep": (
        Sweep("six_bus", (750.0, 800.0), ("dc_robust", "dtlr_robust")),
    ),
    "static_sweep": (
        Sweep("six_bus", (300.0, 400.0, 500.0, 600.0, 700.0, 750.0, 800.0,
                          900.0), ("dc_det", "dc_robust")),
        Sweep("rts24", (3000.0, 3500.0, 4000.0, 4200.0, 4400.0, 4600.0),
              ("dc_det", "dc_robust")),
    ),
}

# Peaks at or above which a mode is infeasible, per case; a sweep row there
# is a checked answer, not a failure.
ONSETS = {("six_bus", "dc_det"): 900.0, ("six_bus", "dc_robust"): 800.0}

# One oracle_check round draws every shape ORACLE_DRAWS times: (mode, buses,
# periods, candidate lines, candidate units).  Free binaries are the
# candidates, plus two per line and period in dtlr_robust (cosine side and
# convection branch): 4 to 9 here, 1776 assignments per draw of the list.
ORACLE_SHAPES = (
    ("dc_det", 2, 1, 1, 3),
    ("dc_det", 3, 2, 2, 5),
    ("dc_det", 3, 2, 2, 6),
    ("dc_robust", 2, 2, 1, 4),
    ("dc_robust", 3, 1, 2, 6),
    ("dc_robust", 3, 2, 1, 7),
    ("dtlr_robust", 2, 1, 0, 4),
    ("dtlr_robust", 2, 1, 1, 3),
    ("dtlr_robust", 2, 1, 1, 4),
)
ORACLE_DRAWS = 6


def case_paths(root: Path, case: str) -> tuple[Path, Path]:
    cases = root / "src" / "gridxpand" / "cases"
    return cases / f"{case}.json", cases / f"{case}_scenario.json"


def sweep_cases(workload: str) -> tuple[str, ...]:
    return tuple(dict.fromkeys(s.case for s in SWEEPS[workload]))


def oracle_instances(seed: int):
    """The ``oracle_check`` round for ``seed``: ``[(case, params, mode)]``."""
    import gridxpand as gx

    rng = np.random.default_rng(seed)
    conductor = gx.ConductorSpec(
        diameter=0.035, air_density=1.293, air_viscosity=1.81e-5,
        thermal_conductivity=0.028, wind_angle_coeff=1.0, emissivity=0.75,
        radiation_coeff=2.5e-9, resistance_ref=2.811, temperature_ref=298.0,
        thermal_resistivity=0.0341)
    robust = gx.RobustParams(phi=0.05, mu=0.01, reliability=0.05)
    out = []
    for mode, n_buses, n_periods, n_lines, n_units in (
            ORACLE_SHAPES * ORACLE_DRAWS):
        bus_ids = [str(k + 1) for k in range(n_buses)]
        weights = rng.uniform(0.1, 1.0, size=n_buses)
        weights /= weights.sum()
        buses = tuple(
            gx.BusSpec(b, float(w),
                       tuple(float(v) for v in rng.uniform(0, 8, n_periods)),
                       tuple(float(v) for v in rng.uniform(0, 6, n_periods)),
                       tuple(float(v) for v in rng.uniform(0, 6, n_periods)))
            for b, w in zip(bus_ids, weights))

        def line(line_id, a, b, candidate):
            return gx.LineSpec(
                id=line_id, from_bus=a, to_bus=b, candidate=candidate,
                install_cost=(float(rng.uniform(2e5, 9e5)) if candidate
                              else 0.0),
                susceptance=float(rng.uniform(2.0, 8.0)),
                conductance=float(rng.uniform(0.2, 1.5)),
                resistance_at_tmax=float(rng.uniform(1.0, 4.0)),
                length=10.0, t_max=373.0,
                flow_limit=float(rng.uniform(0.5, 2.0)),
                conductor=conductor)

        lines = [line(f"E{k}", bus_ids[k], bus_ids[k + 1], False)
                 for k in range(n_buses - 1)]
        for k in range(n_lines):
            a, b = rng.choice(n_buses, size=2, replace=False)
            lines.append(line(f"L{k}", bus_ids[a], bus_ids[b], True))
        gens = [gx.GeneratorSpec("EG", bus_ids[0], False, 0.0,
                                 float(rng.uniform(5, 20)),
                                 float(rng.uniform(30, 90)))]
        for k in range(n_units):
            gens.append(gx.GeneratorSpec(
                f"U{k}", bus_ids[int(rng.integers(0, n_buses))], True,
                float(rng.uniform(3e5, 1.2e6)), float(rng.uniform(20, 80)),
                float(rng.uniform(15, 60))))
        thermal = mode == "dtlr_robust"
        periods = tuple(
            gx.PeriodSpec(f"p{k}", float(rng.uniform(50, 500)),
                          float(rng.uniform(0.4, 1.0)),
                          {c.id: gx.WeatherRecord(
                              ambient_temp=float(rng.uniform(288, 308)),
                              wind_speed=float(rng.uniform(0.5, 4.0)),
                              solar_gain=float(rng.uniform(0, 25)),
                              radiation_coeff=2.5e-9)
                           for c in lines} if thermal else {})
            for k in range(n_periods))
        case = gx.CaseSystem(buses=buses, lines=tuple(lines),
                             generators=tuple(gens), periods=periods,
                             peak_demand=float(rng.uniform(40, 160)),
                             s_base=100.0, v_base=132.0)
        out.append((case, None if mode == "dc_det" else robust, mode))
    return out


def load_inputs(gx, root: Path, workload: str, seed: int, tracer=None):
    """Everything a round needs, loaded as a user would load it.

    Sweeps: ``{case: (case system with scenario applied, scenario)}``,
    read through ``load_case``/``load_scenario``/``apply_scenario``.
    ``oracle_check``: the instance list for ``seed``.
    """
    if workload == "oracle_check":
        return oracle_instances(seed)

    def call(fn, *args):
        return fn(*args) if tracer is None else tracer.call("caseio.load",
                                                           fn, *args)

    inputs = {}
    for case in sweep_cases(workload):
        case_file, scenario_file = case_paths(root, case)
        scenario = call(gx.load_scenario, scenario_file)
        inputs[case] = (call(gx.apply_scenario, call(gx.load_case, case_file),
                             scenario), scenario)
    return inputs
