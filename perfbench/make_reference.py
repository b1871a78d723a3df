"""Write ``reference_objectives.json``: every thermal_sweep row solved cold.

Each row is built with ``build_igtep`` and solved by ``external_solve`` with
no start at gap 1e-6, so the reference shares no code path with the seeded
``run_plan``.  Rerun after any change to the model (builder, gadgets,
linearizations or case files)::

    python3 perfbench/make_reference.py

It takes several minutes on two cores.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_GAP = 1e-6
OUTPUT = HERE / "reference_objectives.json"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import gridxpand as gx
    from workloads import SWEEPS, case_paths

    rows = []
    for sweep in SWEEPS["thermal_sweep"]:
        case_file, scenario_file = case_paths(ROOT, sweep.case)
        scenario = gx.load_scenario(scenario_file)
        case = gx.apply_scenario(gx.load_case(case_file), scenario)
        for peak in sweep.peaks:
            for mode in sweep.modes:
                t0 = time.perf_counter()
                ir, _ = gx.build_igtep(gx.scale_to_peak(case, peak),
                                       scenario.robust, mode)
                sol = gx.external_solve(ir, gx.SolveConfig(
                    time_limit=3600.0, mip_gap=REFERENCE_GAP))
                if sol.status not in ("optimal", "infeasible"):
                    print(f"{sweep.case} {peak} {mode}: {sol.status}",
                          file=sys.stderr)
                    return 1
                rows.append({"case": sweep.case, "peak_mw": peak,
                             "mode": mode, "status": sol.status,
                             "objective": sol.objective,
                             "mip_gap": sol.mip_gap})
                print(f"{sweep.case} {peak:.0f} {mode}: {sol.status} "
                      f"{sol.objective} ({time.perf_counter() - t0:.1f} s)",
                      flush=True)
    OUTPUT.write_text(json.dumps({"gap": REFERENCE_GAP, "rows": rows},
                                 indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
