"""Push the six-bus system to its limits under three rating policies.

Sweeping peak demand upward and re-planning at each step reveals two
numbers per policy: how cost grows while plans exist, and the peak at
which they stop existing.  The deterministic plan is cheapest but
unprotected; the robust static plan pays for its margins and gives up
first; pricing the weather into the line ratings recovers both cost and
reach.  This script runs that sweep and prints the onset table.

Run:  python3 demos/sweep_onsets.py   (about ten seconds)
"""

from __future__ import annotations

from pathlib import Path

import gridxpand
from gridxpand import (MODES, SolveConfig, SweepSpec, apply_scenario,
                       load_case, load_scenario, run_sweep, sweep_table)

CASE_DIR = Path(gridxpand.__file__).parent / "cases"
PEAKS = (700.0, 750.0, 800.0, 850.0, 900.0)
CONFIG = SolveConfig(mip_gap=1e-4, time_limit=120.0)


def main() -> None:
    case = apply_scenario(load_case(CASE_DIR / "six_bus.json"),
                          load_scenario(CASE_DIR / "six_bus_scenario.json"))
    robust = load_scenario(CASE_DIR / "six_bus_scenario.json").robust

    print(f"Sweeping the six-bus system over peaks {PEAKS} MW")
    print(f"under all three policies: {', '.join(MODES)}.\n")
    rows = run_sweep(case, robust, SweepSpec(PEAKS, MODES), CONFIG,
                     parallel=False)
    print(sweep_table(rows))

    print("\nFirst infeasible peak per policy:")
    for mode in MODES:
        onsets = [r["peak_mw"] for r in rows
                  if r["mode"] == mode and r["status"] == "infeasible"]
        if onsets:
            print(f"  {mode:12s} gives out at {min(onsets):6.0f} MW")
        else:
            print(f"  {mode:12s} survives the whole sweep")

    shared = [r["peak_mw"] for r in rows if r["mode"] == "dc_robust"
              and r["status"] == "optimal"]
    if shared:
        peak = max(shared)
        sta = next(r for r in rows if r["mode"] == "dc_robust"
                   and r["peak_mw"] == peak)
        dyn = next(r for r in rows if r["mode"] == "dtlr_robust"
                   and r["peak_mw"] == peak)
        saving = 1.0 - dyn["objective"] / sta["objective"]
        print(f"\nAt {peak:.0f} MW (the last peak both robust policies "
              f"survive), thermal ratings")
        print(f"shave {saving:.1%} off the protected plan's cost.")


if __name__ == "__main__":
    main()
