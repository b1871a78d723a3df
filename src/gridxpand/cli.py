"""Command-line front end.

Subcommands::

    validate  check a case file and report its inventory
    plan      solve one case in one mode, print the plan
    sweep     solve a peak-demand ladder, print the onset table
    rate      thermal ratings and heat-balance breakdowns per line
    fit       certified linearization errors (trig windows, radiation link)

Exit codes: 0 when the run produced an answer (an infeasible model is an
answer), 1 when the solver failed or hit its limit without one, 2 for bad
input — unreadable files, schema violations, unknown ids, bad flags.
"""

from __future__ import annotations

import argparse
import sys

from .builder import MODES
from .caseio import apply_scenario, load_case, load_scenario
from .errors import (CaseFormatError, CaseValidationError, ExtractionError,
                     ModelBuildError, SolverError, UnknownEntityError)
from .linearize import trig_segments
from .network import CaseSystem
from .runner import (plan_document, plan_table, run_plan, run_sweep,
                     sweep_table, write_document, SweepSpec)
from .solve import SolveConfig
from .thermal import (ampacity, heat_balance_breakdown, line_convection,
                      radiation_log_fit, steady_state_temperature)

_USAGE_ERRORS = (CaseFormatError, CaseValidationError, UnknownEntityError,
                 ModelBuildError, ValueError)
_SOLVER_ERRORS = (SolverError, ExtractionError)


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--backend", choices=("external", "oracle"),
                     default="external", help="MILP backend (default external)")
    sub.add_argument("--time-limit", type=float,
                     default=SolveConfig.time_limit, metavar="S",
                     help="solver wall-clock limit in seconds")
    sub.add_argument("--gap", type=float, default=SolveConfig.mip_gap,
                     metavar="G",
                     help="relative MIP gap for the external backend")


def _add_case_flags(sub: argparse.ArgumentParser, scenario: bool = True) -> None:
    sub.add_argument("--case", required=True, metavar="FILE",
                     help="case file (JSON)")
    if scenario:
        sub.add_argument("--scenario", metavar="FILE",
                         help="robust parameters and weather overlay (JSON)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridxpand",
        description="Expansion planning with thermally rated lines.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("validate", help="check a case file")
    _add_case_flags(p, scenario=False)

    p = subs.add_parser("plan", help="solve one case in one mode")
    _add_case_flags(p)
    p.add_argument("--mode", choices=MODES, required=True)
    p.add_argument("--peak", type=float, metavar="MW",
                   help="rescale demand to this system peak first")
    p.add_argument("--out", metavar="FILE", help="write the plan as JSON")
    _add_solver_flags(p)

    p = subs.add_parser("sweep", help="solve a ladder of peak demands")
    _add_case_flags(p)
    p.add_argument("--peaks", required=True, metavar="MW,MW,...",
                   help="comma-separated system peaks, strictly increasing")
    p.add_argument("--mode", default="dc_robust,dtlr_robust",
                   metavar="M[,M...]",
                   help="comma-separated modes (default dc_robust,dtlr_robust)")
    p.add_argument("--serial", action="store_true",
                   help="solve rows in-process instead of a worker pool")
    p.add_argument("--out", metavar="FILE", help="write all rows as JSON")
    _add_solver_flags(p)

    p = subs.add_parser("rate", help="thermal ratings per line and period")
    _add_case_flags(p)
    p.add_argument("--line", action="append", metavar="ID",
                   help="restrict to this line id (repeatable)")
    p.add_argument("--period", action="append", metavar="ID",
                   help="restrict to this period id (repeatable)")
    p.add_argument("--current", type=float, metavar="A",
                   help="operating current; defaults to each line's ampacity")

    p = subs.add_parser("fit", help="certified linearization table")
    p.add_argument("--emissivity", type=float, default=0.75)
    p.add_argument("--radiation-coeff", type=float, default=2.5e-9,
                   metavar="KR", help="radiation constant (W/(m*K^4))")
    p.add_argument("--t-lo", type=float, default=273.0, metavar="K")
    p.add_argument("--t-hi", type=float, default=373.0, metavar="K")
    p.add_argument("--window", type=float, default=0.6, metavar="RAD",
                   help="half-range of the trig fits")
    return parser


def _load(args) -> CaseSystem:
    case = load_case(args.case)
    scenario = None
    if getattr(args, "scenario", None):
        scenario = load_scenario(args.scenario)
        case = apply_scenario(case, scenario)
    args._scenario_obj = scenario
    return case


def _solver_config(args) -> SolveConfig:
    return SolveConfig(backend=args.backend, time_limit=args.time_limit,
                       mip_gap=args.gap)


def _robust_params(args, mode: str):
    scenario = getattr(args, "_scenario_obj", None)
    if scenario is not None and scenario.robust is not None:
        return scenario.robust
    if mode != "dc_det":
        raise ValueError(
            f"mode {mode!r} needs robust parameters; pass --scenario "
            "with a 'robust' section")
    return None


def _cmd_validate(args) -> int:
    case = load_case(args.case)
    n_cl = len(case.candidate_lines)
    n_cg = len(case.candidate_generators)
    print(f"{args.case}: ok")
    print(f"  buses:      {len(case.buses)}")
    print(f"  lines:      {len(case.lines)} ({n_cl} candidate)")
    print(f"  generators: {len(case.generators)} ({n_cg} candidate)")
    print(f"  periods:    {len(case.periods)}")
    print(f"  peak:       {case.peak_demand:.1f} MW")
    return 0


def _cmd_plan(args) -> int:
    from .network import scale_to_peak
    case = _load(args)
    if args.peak is not None:
        case = scale_to_peak(case, args.peak)
    params = _robust_params(args, args.mode)
    plan = run_plan(case, params, args.mode, _solver_config(args))
    print(plan_table(plan))
    if args.out:
        write_document(plan_document(plan), args.out)
        print(f"wrote {args.out}")
    if plan.has_plan or plan.status in ("optimal", "infeasible", "unbounded"):
        return 0
    return 1


def _parse_csv(text: str, kind: str, convert=str) -> tuple:
    try:
        items = tuple(convert(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad {kind} list {text!r}: {exc}") from exc
    if not items:
        raise ValueError(f"empty {kind} list")
    return items


def _cmd_sweep(args) -> int:
    case = _load(args)
    spec = SweepSpec(peaks=_parse_csv(args.peaks, "peak", float),
                     modes=_parse_csv(args.mode, "mode"))
    params = None
    for mode in spec.modes:    # every mode, before any row is solved
        params = _robust_params(args, mode)
    rows = run_sweep(case, params, spec, _solver_config(args),
                     parallel=not args.serial)
    print(sweep_table(rows))
    if args.out:
        write_document({"peaks_mw": list(spec.peaks),
                        "modes": list(spec.modes), "rows": rows}, args.out)
        print(f"wrote {args.out}")
    bad = [r for r in rows if r["status"] not in
           ("optimal", "infeasible", "unbounded")]
    return 1 if bad else 0


def _cmd_rate(args) -> int:
    case = _load(args)
    line_ids = args.line or [c.id for c in case.lines]
    period_ids = args.period or [d.id for d in case.periods]
    explicit = bool(args.line or args.period)
    printed = 0
    for line_id in line_ids:
        c = case.line(line_id)
        r_per_m = c.resistance_per_meter
        for period_id in period_ids:
            d = case.period(period_id)
            weather = d.weather.get(line_id)
            if weather is None:
                if explicit:
                    raise ValueError(
                        f"period {period_id!r} has no weather for line "
                        f"{line_id!r}")
                continue
            coeffs = line_convection(c.conductor, weather)
            amp = ampacity(c.t_max, weather, c.conductor, r_per_m)
            i_op = args.current if args.current is not None else amp
            kind = "candidate" if c.candidate else "existing"
            print(f"line {c.id} ({kind})  period {d.id}")
            print(f"  Re {coeffs.reynolds:9.1f}   k' {coeffs.k_prime:.4f}"
                  f"   k'' {coeffs.k_double_prime:.4f}   "
                  f"({'k-prime' if coeffs.k_prime >= coeffs.k_double_prime else 'k-double-prime'} governs)")
            print(f"  ampacity {amp:8.1f} A"
                  f"  ({amp / case.current_base:.3f} p.u. of "
                  f"{case.current_base:.1f} A)"
                  f"   T_max {c.t_max:.1f} K")
            if i_op > 0:
                t_ss = steady_state_temperature(i_op, weather, c.conductor,
                                                r_per_m)
                hbe = heat_balance_breakdown(i_op, t_ss, weather, c.conductor,
                                             r_per_m)
                flag = "  ** exceeds T_max" if t_ss > c.t_max + 1e-6 else ""
                print(f"  at {i_op:.1f} A: steady state {t_ss:.2f} K{flag}")
                print(f"    ohmic {hbe.ohmic:+9.2f} W/m   "
                      f"solar {hbe.solar:+8.2f} W/m")
                print(f"    convection {-hbe.convection:+9.2f} W/m   "
                      f"radiation {-hbe.radiation:+8.2f} W/m   "
                      f"residual {hbe.residual:+.4f}")
            printed += 1
    if printed == 0:
        raise ValueError("no (line, period) pair carries weather data")
    return 0


def _cmd_fit(args) -> int:
    trig = trig_segments(half_range=args.window)
    rad = radiation_log_fit(args.emissivity, args.radiation_coeff,
                            t_lo=args.t_lo, t_hi=args.t_hi)
    rows = [
        ("cos, x<=0", trig.cos_neg),
        ("cos, x>=0", trig.cos_pos),
        ("sin", trig.sin),
        ("ln T-window", rad.temp_fit),
        ("ln flux-window", rad.flux_fit),
    ]
    head = (f"{'segment':<15} {'domain':<24} {'slope':>12} {'intercept':>12} "
            f"{'max |err|':>11} {'max rel':>9}")
    print(head)
    print("-" * len(head))
    for name, seg in rows:
        dom = f"[{seg.lo:.6g}, {seg.hi:.6g}]"
        print(f"{name:<15} {dom:<24} {seg.slope:>12.6g} {seg.intercept:>12.6g} "
              f"{seg.max_abs_err:>11.3e} {seg.max_rel_err:>8.3%}")
    print()
    a, b = rad.link_coefficients(ambient_temp=298.0)
    print(f"radiation link at 298 K ambient: a {a:.6g} W/(m*K), "
          f"b {b:.6g} W/m, certified band {rad.band:.4f} W/m")
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "plan": _cmd_plan,
    "sweep": _cmd_sweep,
    "rate": _cmd_rate,
    "fit": _cmd_fit,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
