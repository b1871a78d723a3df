"""Single planning runs and peak-demand sweeps.

A sweep evaluates every (peak, mode) pair independently — by design it
keeps going past infeasible rows, because the infeasibility onset is itself
the result being studied.  Rows run in a process pool; each worker rescales
the case, builds, solves and extracts on its own copy, so a crash or solver
failure is recorded in that row and never aborts the sweep.

Thermal plans on the external backend start from an incumbent: a cheap
*rated DC* plan — ``dc_robust`` with each line-period's flow limit set to
the thermal model's build-time rating — sets every binary of the thermal
model (its build choices, and each cosine side to the sign of its angle
difference), and HiGHS completes that MIP start by the LP that is left.
Without it HiGHS proves a tight root bound early but finds good
incumbents late.  Most of what is left is HiGHS proving that start optimal,
mostly by strong branching on the cosine sides.  So before the final
solve, warm LPs probe each side once toward the other side, under the row
``cost <= z`` with ``z`` the start's cost, and fix the sides that no plan
at least as cheap as the start can flip
(:func:`~gridxpand.solve.probe_sides`).  The probe gets at most as many
simplex iterations as the seed solve took, so its fixings depend on the
model alone.  A seed that closes at the root gives no probe: that budget
fixes only 4-6 of RTS24's 170 sides, and the thermal proof there closes
at the root too.  At an angle difference of 0 both sides give the same
flow, so no fixing cuts off the optimum: status, gap and dual bound keep
their meaning.  Once the probe has reached every side, the sides it left
unfixed add almost nothing to the bound, so the start is first proved on
the model with those sides relaxed to continuous columns
(:func:`~gridxpand.solve.prove_relaxed`), and the final solve, with its
branching on the sides, runs only when that proof falls short.

Static-rating solves (``dc_det``, ``dc_robust``, the rated DC seed) are
proof solves, without HiGHS's sub-MIP heuristics and root restarts: root
rounding already finds their optimum, RINS, RENS and root reduced cost
then took most of the search, and a restart redid the root for the few
binaries that reduced-cost fixing had fixed.  So is a seeded thermal
solve, whose start is usually optimal already, so what is left is the
proof.  A cold thermal solve keeps both, because there the sub-MIPs find
the incumbents.

Result documents are plain data with sorted keys and no timestamps,
runtimes or solver statistics, so identical inputs and backend give
byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from .builder import (MODES, PlanResult, VarMap, build_igtep, extract_plan,
                      hbe_certificate_bound, hbe_residual_audit)
from .network import CaseSystem, scale_to_peak
from .solve import (RelaxedProof, SideProbe, SolveConfig, external_solve,
                    probe_sides, prove_relaxed, solve)
from .uncertainty import RobustParams

DISPLAY_COST_UNIT = 1e7            # tables print $ x 10^7
SEED_TIME_SHARE = 0.25             # of the time limit, for the seed solve
# Least time (s) the final solve gets when the seed has used up the limit,
# so that HiGHS itself reports the limit.
FINAL_TIME_FLOOR_S = 1e-3


def run_plan(case: CaseSystem, params: RobustParams | None, mode: str,
             config: SolveConfig | None = None) -> PlanResult:
    """Build, solve and extract one case in one mode.

    A ``dtlr_robust`` solve on the external backend is seeded: it solves
    the rated DC model (``dc_robust`` under the thermal model's build-time
    ratings) on the same case, parameters and gap, and passes that plan's
    binaries to the full thermal solve at ``config.mip_gap`` as a MIP
    start (see :func:`_thermal_start`).  The seed solve spends at most
    ``SEED_TIME_SHARE`` of ``config.time_limit`` and the full solve gets
    what is left, but at least ``FINAL_TIME_FLOOR_S``, so
    ``plan.audit["runtime_s"]`` (both solves) stays within the limit plus
    that floor.  A seed that overruns the limit thus ends in a ``limit``
    plan reported by HiGHS, not in an error.  HiGHS completes the start by
    an LP over the other columns and drops a start it cannot complete.
    The status, the proven gap and every audit are those of the full solve.

    Between the two solves, :func:`~gridxpand.solve.probe_sides` fixes the
    cosine sides that no plan as cheap as the start can flip.  Each side
    is probed once by a warm LP, under the row ``cost <= z`` (``z`` the
    start's cost): its angle difference is minimized when the start's is
    positive and maximized when it is negative, and a value that keeps
    the start's sign fixes the side.  The probe's LPs share the seed
    solve's simplex iteration count as their budget and what is left of
    the time limit.  Nothing is probed when the seed solve closed at the
    root (at most one node), or when the start's completion LP is not
    optimal.  A side is fixed only where every plan at least as cheap as
    the start has its sign or an angle difference of 0, where both sides
    give the same flow, so the fixings never change the optimum.

    After a probe that reached the end of its side list,
    :func:`~gridxpand.solve.prove_relaxed` solves the model with every
    unfixed side relaxed to a continuous column, within what is left of
    the time limit.  Its dual bound proves either the start, at the
    probe's completed point, or the relaxed incumbent with each unfixed
    side repaired to the sign of its angle difference; that plan is then
    the answer, ``optimal`` with the relaxed dual bound and no final solve.
    Otherwise the final solve runs as it would without the proof, from
    the repaired plan when it is cheaper than the start.  A probe that
    stopped on its budget or the time limit leaves the relaxation loose,
    so that row goes straight to the final solve.

    ``dc_det``, ``dc_robust`` and a thermal solve that gets a start are
    proof solves, with ``sub_mips=False`` (see
    :func:`~gridxpand.solve.external_solve`): no sub-MIP heuristics and no
    root restarts, even when HiGHS drops the start.  A thermal solve
    without a start, because an existing line has no rating or the rated
    DC model has no plan, runs cold with both.

    ``plan.audit["solver"]`` holds the final gap, dual bound, node count
    and simplex iterations (``lp_iterations``), whether a start was passed
    to HiGHS, the seed's and the probe's simplex iterations
    (``seed_lp_iterations``, ``probe_lp_iterations``), how many sides the
    probe fixed (``fixed_sides``), which solve proved the plan (``proof``:
    ``relaxed`` or ``final``), the relaxed solve's simplex iterations and
    nodes (``relaxed_lp_iterations``, ``relaxed_nodes``; 0 when it did not
    run) and whether the final solve allowed the sub-MIP heuristics and
    root restarts (``sub_mips``); like ``runtime_s`` it stays out of
    :func:`plan_document`.  When the relaxed solve proved the plan, the
    gap, dual bound, nodes and iterations are its own.  For
    thermal-rating plans the nonlinear heat-balance audit runs
    automatically and lands in ``plan.audit["hbe"]`` next to the certified
    residual bound.
    """
    config = config if config is not None else SolveConfig()
    ir, vm = build_igtep(case, params, mode)
    t0 = time.perf_counter()
    seed = None
    if mode == "dtlr_robust" and config.backend == "external":
        seed = _thermal_start(case, params, vm, config,
                              SEED_TIME_SHARE * config.time_limit)
    start = None if seed is None else seed.values
    probe = SideProbe({}, 0)
    proof = RelaxedProof(None, start)
    if seed is not None and seed.nodes > 1:
        sides = [(side, vm.angle[a, d], vm.angle[b, d])
                 for (a, b, d), side in vm.cos_side.items()]
        probe = probe_sides(ir, start, sides, seed.lp_iterations,
                            config.time_limit - (time.perf_counter() - t0))
        left = config.time_limit - (time.perf_counter() - t0)
        if probe.complete and left > FINAL_TIME_FLOOR_S:
            proof = prove_relaxed(ir, replace(config, time_limit=left),
                                  start, sides, probe)
            start = proof.start
    sub_mips = mode == "dtlr_robust" and start is None
    solution = proof.solution
    if solution is None:
        left = max(config.time_limit - (time.perf_counter() - t0),
                   FINAL_TIME_FLOOR_S)
        solution = solve(ir, replace(config, time_limit=left), start=start,
                         sub_mips=sub_mips, fixed=probe.fixed)
    plan = extract_plan(solution, vm, case)
    plan.audit["backend"] = config.backend
    plan.audit["runtime_s"] = time.perf_counter() - t0
    plan.audit["solver"] = {"mip_gap": solution.mip_gap,
                            "mip_dual_bound": solution.mip_dual_bound,
                            "mip_node_count": solution.mip_node_count,
                            "lp_iterations": solution.lp_iterations,
                            "seeded": start is not None,
                            "seed_lp_iterations": (0 if seed is None else
                                                   seed.lp_iterations),
                            "probe_lp_iterations": probe.lp_iterations,
                            "fixed_sides": len(probe.fixed),
                            "proof": ("final" if proof.solution is None
                                      else "relaxed"),
                            "relaxed_lp_iterations": proof.lp_iterations,
                            "relaxed_nodes": proof.nodes,
                            "sub_mips": sub_mips}
    if mode == "dtlr_robust" and plan.has_plan:
        residuals = hbe_residual_audit(plan, case)
        bounds = hbe_certificate_bound(case, params)
        plan.audit["hbe"] = {
            "residuals_w_per_m": {f"{c},{d}": r
                                  for (c, d), r in sorted(residuals.items())},
            "bounds_w_per_m": {f"{c},{d}": bounds[c, d]
                               for (c, d) in sorted(residuals)},
            "max_residual_w_per_m": max(residuals.values(), default=0.0),
            "worst_margin_w_per_m": min(
                (bounds[k] - r for k, r in residuals.items()), default=0.0),
        }
    return plan


class _Start(NamedTuple):
    """A MIP start ``values`` ``{column: 0/1}``, and the simplex iterations
    and branch-and-bound nodes of the rated DC solve that gave it."""

    values: dict[int, float]
    lp_iterations: int
    nodes: int


def _thermal_start(case: CaseSystem, params: RobustParams, vm: VarMap,
                   config: SolveConfig,
                   budget: float) -> _Start | None:
    """A MIP start for the thermal model ``vm``, or ``None`` when the rated
    DC model has no plan.

    The rated DC model is ``dc_robust`` with each line-period's flow limited
    by its build-time thermal rating ``vm.ratings[l, d].amps``: the bound of
    an existing line's flow column, the switch coefficient of a candidate's.
    A candidate with no rating stays unbuilt.  An existing line with no
    rating makes the thermal model infeasible, so no seed is built for it.

    Solves the rated DC model at ``config.mip_gap`` within ``budget``
    seconds as a proof solve, as in :func:`run_plan`.  The start
    sets the thermal model's ``build[*]``/``unit[*]`` binaries to that plan
    and each corridor's one cosine side (``vm.cos_side[from, to, d]``) to
    the sign of the plan's angle difference ``angle[from,d] - angle[to,d]``
    in the corridor's own direction.  A line that runs the other way shares
    that side, so setting it per line would give it the opposite value and
    HiGHS would drop the start.  Together these values set every binary
    the thermal model leaves free.
    """
    if any(vm.ratings[c.id, d.id].amps is None
           for c in case.lines if not c.candidate for d in case.periods):
        return None
    dc_ir, dc_vm = build_igtep(case, params, "dc_robust",
                               _ratings=vm.ratings)
    dc = external_solve(dc_ir, replace(config, time_limit=budget),
                        sub_mips=False)
    if dc.values is None:
        return None
    start = {}
    for thermal, dc_ids in ((vm.line_built, dc_vm.line_built),
                            (vm.unit_built, dc_vm.unit_built)):
        for key, idx in thermal.items():
            start[idx] = float(round(dc.values[dc_ids[key]]))
    for (a, b, d), side in vm.cos_side.items():
        diff = dc.values[dc_vm.angle[a, d]] - dc.values[dc_vm.angle[b, d]]
        start[side] = 1.0 if diff >= 0.0 else 0.0
    return _Start(start, dc.lp_iterations, dc.mip_node_count)


def plan_document(plan: PlanResult) -> dict:
    """JSON-ready rendering of a plan; deterministic for identical solves."""
    doc = {
        "status": plan.status,
        "mode": plan.mode,
        "objective": plan.objective,
        "added_lines": list(plan.added_lines),
        "added_units": list(plan.added_units),
        "element_count": plan.element_count,
        "dispatch_mw": {f"{g},{d}": v
                        for (g, d), v in sorted(plan.dispatch.items())},
        "flows_pu": {f"{c},{d}": v
                     for (c, d), v in sorted(plan.flows.items())},
    }
    if plan.temperatures:
        doc["temperatures_k"] = {f"{c},{d}": v
                                 for (c, d), v in sorted(plan.temperatures.items())}
    audit = {k: v for k, v in plan.audit.items()
             if k not in ("runtime_s", "solver")}
    doc["audit"] = audit
    return doc


def plan_table(plan: PlanResult) -> str:
    """Plain-text summary of a plan.

    A ``limit`` plan is an incumbent, not an optimum, so its table states
    the proven gap from ``plan.audit["solver"]`` (``unknown`` when the
    backend reports none, as the oracle does).
    """
    lines = [f"mode:       {plan.mode}",
             f"status:     {plan.status}"]
    if plan.status == "limit":
        gap = plan.audit.get("solver", {}).get("mip_gap")
        lines.append("proven gap: "
                     + ("unknown" if gap is None else f"{gap:.2e}"))
    if plan.has_plan:
        lines += [
            f"added lines: {', '.join(plan.added_lines) or '-'}",
            f"added units: {', '.join(plan.added_units) or '-'}",
            f"elements:    {plan.element_count}",
            f"objective:   {plan.objective / DISPLAY_COST_UNIT:.3f} ($ x 10^7)",
        ]
        hbe = plan.audit.get("hbe")
        if hbe is not None:
            lines.append(f"max HBE residual: "
                         f"{hbe['max_residual_w_per_m']:.4f} W/m "
                         f"(certified headroom "
                         f"{hbe['worst_margin_w_per_m']:.4f})")
        if plan.audit.get("binding_relaxations"):
            lines.append("WARNING: big-M relaxations binding: "
                         + ", ".join(plan.audit["binding_relaxations"]))
    return "\n".join(lines)


@dataclass(frozen=True)
class SweepSpec:
    """Peaks to test (strictly increasing MW) in each listed mode."""

    peaks: tuple[float, ...]
    modes: tuple[str, ...]

    def __post_init__(self):
        if not self.peaks:
            raise ValueError("sweep needs at least one peak")
        if not all(0 < p < math.inf for p in self.peaks):
            raise ValueError(f"peaks must be finite positive MW values: "
                             f"{self.peaks}")
        if any(b <= a for a, b in zip(self.peaks, self.peaks[1:])):
            raise ValueError(f"peaks must be strictly increasing: {self.peaks}")
        if not self.modes:
            raise ValueError("sweep needs at least one mode")
        for mode in self.modes:
            if mode not in MODES:
                raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")


def _sweep_row(case: CaseSystem, params: RobustParams | None, mode: str,
               peak: float, config: SolveConfig) -> dict:
    row = {"peak_mw": peak, "mode": mode}
    try:
        plan = run_plan(scale_to_peak(case, peak), params, mode, config)
    except Exception as exc:   # isolate failures to the row
        row.update(status="error", error=f"{type(exc).__name__}: {exc}",
                   objective=None, added_lines=[], added_units=[],
                   element_count=0)
        return row
    row.update(status=plan.status, objective=plan.objective,
               added_lines=list(plan.added_lines),
               added_units=list(plan.added_units),
               element_count=plan.element_count)
    return row


def run_sweep(case: CaseSystem, params: RobustParams | None, spec: SweepSpec,
              config: SolveConfig | None = None, *,
              parallel: bool = True) -> list[dict]:
    """One row per (peak, mode); infeasible and failed rows included.

    Rows are solved in worker processes when ``parallel`` is set; the
    returned order is always peaks-outer, modes-inner regardless.
    """
    config = config if config is not None else SolveConfig()
    jobs = [(peak, mode) for peak in spec.peaks for mode in spec.modes]
    if not parallel or len(jobs) == 1:
        return [_sweep_row(case, params, mode, peak, config)
                for peak, mode in jobs]
    workers = min(len(jobs), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_sweep_row, case, params, mode, peak, config)
                   for peak, mode in jobs]
        return [f.result() for f in futures]


def sweep_table(rows: list[dict]) -> str:
    """Plain-text cost table; a cost that is not a proven optimum (a
    ``limit`` incumbent) carries its status, as in ``31.039 limit``."""
    header = (f"{'Peak MW':>8}  {'Mode':<12} {'Added lines':<22} "
              f"{'Added units':<26} {'N':>3}  {'Cost ($x10^7)':>13}")
    out = [header, "-" * len(header)]
    for row in rows:
        if row["objective"] is not None:
            cost = f"{row['objective'] / DISPLAY_COST_UNIT:.3f}"
            if row["status"] != "optimal":
                cost += f" {row['status']}"
        elif row["status"] == "infeasible":
            cost = "Infeasible"
        else:
            cost = row["status"]
        out.append(f"{row['peak_mw']:>8.0f}  {row['mode']:<12} "
                   f"{', '.join(row['added_lines']) or '-':<22} "
                   f"{', '.join(row['added_units']) or '-':<26} "
                   f"{row['element_count']:>3}  {cost:>13}")
    return "\n".join(out)


def write_document(doc, path: str | Path) -> None:
    """Stable JSON: sorted keys, fixed separators, trailing newline."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
