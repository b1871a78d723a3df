"""gridxpand benchmark: one workload per run, its answers checked.

    python3 perfbench/run.py --workload thermal_sweep --seed 1 \\
        --seconds 15 --trace 0

Workloads are ``thermal_sweep``, ``static_sweep`` and ``oracle_check``
(see README.md).  A run times set-up in fresh processes, then repeats whole
rounds of the workload until ``--seconds`` of round time have passed (at
least one round), checks every answer of every round against computations
made apart from the solver, and prints the metrics by name and unit.  Times
are scaled to a fixed machine speed, read next to every operation (see
``speed.py``); the raw times are printed too.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics from a traced run with ``--trace 1``.
The program is imported from ``src/`` beside this directory; without it
the run exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("thermal_sweep", "static_sweep", "oracle_check")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="oracle_check instance seed (sweeps are fixed)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="round time to measure; whole rounds only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Import plus input loading, each in its own fresh interpreter."""
    out = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)], capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


class Round:
    """The operations of one round, with their timings and answers.

    ``wall`` and ``cpu`` are the round's raw times without the speed
    readings.  Each operation carries its raw ``wall`` and ``cpu`` and the
    ``span`` its speed ``factor`` is read from; time outside the operations
    (sweep glue) is scaled by the mean factor.  ``scaled_max`` is the
    largest, over the operations' ``group``s, of the median scaled time in
    the group: a sweep row is a group of its own, and an ``oracle_check``
    shape groups its draws.
    """

    def __init__(self):
        self.ops: list[dict] = []
        self.wall = self.cpu = self.reading_wall = 0.0

    def finish(self, wall: float, cpu: float, meter, reading_wall: float,
               reading_cpu: float) -> None:
        self.reading_wall = reading_wall
        self.wall = wall - reading_wall
        self.cpu = cpu - reading_cpu
        for op in self.ops:
            op["factor"] = meter.factor(op["span"])
        factors = [op["factor"] for op in self.ops]
        mean = sum(factors) / len(factors)
        glue_wall = max(self.wall - sum(op["wall"] for op in self.ops), 0.0)
        glue_cpu = max(self.cpu - sum(op["cpu"] for op in self.ops), 0.0)
        self.scaled_wall = (sum(op["wall"] * op["factor"] for op in self.ops)
                            + glue_wall * mean)
        self.scaled_cpu = (sum(op["cpu"] * op["factor"] for op in self.ops)
                           + glue_cpu * mean)
        groups: dict = {}
        for op in self.ops:
            groups.setdefault(op["group"], []).append(op)
        self.scaled_max = max(
            statistics.median(op["wall"] * op["factor"] for op in group)
            for group in groups.values())
        self.raw_max = max(statistics.median(op["wall"] for op in group)
                           for group in groups.values())


def sweep_round(gx, workload, inputs, tracer, captured) -> Round:
    from workloads import SWEEP_GAP, SWEEP_TIME_LIMIT, SWEEPS

    rnd = Round()
    config = gx.SolveConfig(time_limit=SWEEP_TIME_LIMIT, mip_gap=SWEEP_GAP)
    for sweep in SWEEPS[workload]:
        case, scenario = inputs[sweep.case]
        captured.clear()
        rows = tracer.call("runner.run_sweep", gx.run_sweep, case,
                           scenario.robust,
                           gx.SweepSpec(sweep.peaks, sweep.modes), config,
                           parallel=False)
        if len(captured) != len(rows):
            raise RuntimeError("run_sweep did not run one plan per row")
        for row, (peak, mode, plan, wall, cpu, span) in zip(rows, captured):
            if (peak, mode) != (row["peak_mw"], row["mode"]):
                raise RuntimeError("run_sweep rows out of order")
            rnd.ops.append({"case": sweep.case, "row": row, "plan": plan,
                            "group": (sweep.case, peak, mode),
                            "wall": wall, "cpu": cpu, "span": span,
                            "failed": row["status"] == "error"})
    return rnd


def oracle_round(gx, instances, tracer, meter) -> Round:
    from workloads import ORACLE_SHAPES, ORACLE_TIME_LIMIT

    rnd = Round()
    ext_config = gx.SolveConfig(time_limit=ORACLE_TIME_LIMIT)
    orc_config = gx.SolveConfig(backend="oracle",
                                time_limit=ORACLE_TIME_LIMIT)

    def solve_both(case, params, mode):
        op = {"mode": mode, "failed": False}
        try:
            ir, _ = tracer.call("builder.build", gx.build_igtep, case, params,
                                mode)
            if tracer.enabled:
                count_model(tracer, ir)
            op["ext"] = tracer.call("solve.external", gx.external_solve, ir,
                                    ext_config)
            op["orc"] = tracer.call("solve.oracle", gx.oracle_solve, ir,
                                    orc_config)
        except gx.GridxpandError as exc:
            op["failed"] = True
            op["error"] = f"{type(exc).__name__}: {exc}"
        return op

    for k, (case, params, mode) in enumerate(instances):
        op, wall, cpu, span = meter.op(solve_both, case, params, mode)
        op.update(group=k % len(ORACLE_SHAPES), wall=wall, cpu=cpu,
                  span=span)
        rnd.ops.append(op)
    return rnd


def count_model(tracer, ir) -> None:
    tracer.counts["ir.columns"] += ir.num_variables
    tracer.counts["ir.rows"] += ir.num_rows
    tracer.counts["ir.nonzeros"] += sum(len(r.coeffs) for r in ir.rows)
    tracer.counts["ir.free_binaries"] += len(ir.free_binaries())


def program_patches(gx, tracer, captured, meter):
    """Names in the runner and solve modules to replace for the run."""
    runner = sys.modules["gridxpand.runner"]
    solve_module = sys.modules["gridxpand.solve"]

    def capture(run_plan):
        def capturing(case, params, mode, config=None):
            plan, wall, cpu, span = meter.op(run_plan, case, params, mode,
                                             config)
            captured.append((case.peak_demand, mode, plan, wall, cpu, span))
            return plan
        return capturing

    if not tracer.enabled:
        return [(runner, "run_plan", capture)]

    def add_nodes(key):
        def after(solution):
            tracer.counts[key] += solution.mip_node_count or 0
        return after

    def lp_after(result):
        tracer.counts["solve.oracle_lp_optimal"] += result[0] == "optimal"

    def wrap(name, **hooks):
        return lambda fn: tracer.wrapped(name, fn, **hooks)

    return [
        (runner, "scale_to_peak", wrap("network.scale")),
        (runner, "build_igtep", wrap("builder.build")),
        (runner, "extract_plan", wrap("builder.extract")),
        (runner, "hbe_residual_audit", wrap("builder.hbe_audit")),
        (runner, "hbe_certificate_bound", wrap("builder.hbe_audit")),
        (runner, "external_solve", wrap("solve.seed",
                                        after=add_nodes("solve.seed_nodes"))),
        (runner, "solve", wrap("solve.final",
                               before=lambda a: count_model(tracer, a[0]),
                               after=add_nodes("solve.final_nodes"))),
        (runner, "run_plan",
         lambda fn: capture(tracer.wrapped("runner.run_plan", fn))),
        (solve_module, "simplex_lp", wrap("solve.oracle_lp", after=lp_after)),
    ]


def check_round(gx, workload, rnd, inputs, reference) -> list[str]:
    import checks
    from workloads import ONSETS, SWEEP_GAP, SWEEPS, case_paths

    if workload == "oracle_check":
        problems = []
        for k, op in enumerate(rnd.ops):
            if not op["failed"]:
                problems += [f"instance {k} ({op['mode']}): {p}" for p in
                             checks.check_oracle_agreement(op["ext"],
                                                           op["orc"])]
        return problems

    problems = []
    raw = {case: checks.RawCase(*case_paths(ROOT, case)) for case in inputs}
    bounds = {}
    for op in rnd.ops:
        row, plan, case = op["row"], op["plan"], op["case"]
        if op["failed"] or row["status"] != "optimal":
            continue
        where = f"{case} {row['peak_mw']:.0f} MW {row['mode']}: "
        found = checks.check_objective(raw[case], plan)
        if abs(plan.objective - row["objective"]) > 0.0:
            found.append("sweep row objective differs from its plan")
        found += checks.check_operation(raw[case], plan, row["peak_mw"],
                                        row["mode"])
        if row["mode"] == "dtlr_robust":
            if case not in bounds:
                program_case, scenario = inputs[case]
                builder = sys.modules["gridxpand.builder"]
                bounds[case] = builder.hbe_certificate_bound(
                    program_case, scenario.robust)
            found += checks.check_heat_balance(raw[case], plan, bounds[case])
        else:
            found += checks.check_dispatch_optimal(
                raw[case], plan, row["peak_mw"], row["mode"], SWEEP_GAP)
        problems += [where + p for p in found]
    for sweep in SWEEPS[workload]:
        rows = [op["row"] for op in rnd.ops if op["case"] == sweep.case]
        problems += checks.check_sweep(sweep.case, rows, ONSETS)
        if reference is not None:
            for row in rows:
                problems += checks.check_reference(sweep.case, row, reference)
    return problems


def load_reference():
    doc = json.loads((HERE / "reference_objectives.json").read_text())
    return {(r["case"], r["peak_mw"], r["mode"]): r for r in doc["rows"]}


def layer_metrics(tracer, rounds, captured_plans, meter,
                  readings_in_spans: bool) -> dict:
    """Per-round layer figures; span seconds are scaled by the run's mean
    factor (scaled round time over raw round time)."""
    total, own, calls = tracer.totals()
    n = len(rounds)
    wall = sum(r.wall for r in rounds)
    # In the sweeps the readings run inside run_sweep's span.
    readings = sum(r.reading_wall for r in rounds) if readings_in_spans \
        else 0.0
    scale = sum(r.scaled_wall for r in rounds) / wall

    def per_round(x):
        return x / n

    def seconds(x):
        return x * scale / n

    lps = calls["solve.oracle_lp"]
    dtlr = [p for p in captured_plans if p.mode == "dtlr_robust"]
    seeded = sum(1 for p in dtlr if p.audit.get("solver", {}).get("seeded"))
    covered = tracer.root_time() - total["caseio.load"] - readings
    return {
        "caseio.load_s": (total["caseio.load"] * scale, "s"),
        "network.scale_s": (seconds(total["network.scale"]), "s"),
        "builder.build_s": (seconds(total["builder.build"]), "s"),
        "builder.build_calls": (per_round(calls["builder.build"]), "count"),
        "builder.extract_s": (seconds(total["builder.extract"]), "s"),
        "builder.hbe_audit_s": (seconds(total["builder.hbe_audit"]), "s"),
        "ir.columns": (per_round(tracer.counts["ir.columns"]), "count"),
        "ir.rows": (per_round(tracer.counts["ir.rows"]), "count"),
        "ir.nonzeros": (per_round(tracer.counts["ir.nonzeros"]), "count"),
        "ir.free_binaries": (per_round(tracer.counts["ir.free_binaries"]),
                             "count"),
        "solve.seed_s": (seconds(total["solve.seed"]), "s"),
        "solve.seed_calls": (per_round(calls["solve.seed"]), "count"),
        "solve.seed_nodes": (per_round(tracer.counts["solve.seed_nodes"]),
                             "count"),
        "solve.seeded_ratio": (seeded / len(dtlr) if dtlr else 0.0, "ratio"),
        "solve.final_s": (seconds(total["solve.final"]), "s"),
        "solve.final_nodes": (per_round(tracer.counts["solve.final_nodes"]),
                              "count"),
        "solve.external_s": (seconds(total["solve.external"]), "s"),
        "solve.external_calls": (per_round(calls["solve.external"]),
                                 "count"),
        "solve.oracle_s": (seconds(total["solve.oracle"]), "s"),
        "solve.oracle_lps": (per_round(lps), "count"),
        "solve.oracle_lp_s": (seconds(total["solve.oracle_lp"]), "s"),
        "solve.oracle_lp_feasible_ratio": (
            tracer.counts["solve.oracle_lp_optimal"] / lps if lps else 0.0,
            "ratio"),
        "runner.self_s": (seconds(own["runner.run_sweep"]
                                  + own["runner.run_plan"] - readings), "s"),
        "trace.wall_s": (statistics.median(r.scaled_wall for r in rounds),
                         "s"),
        "trace.coverage": (covered / wall, "ratio"),
        "machine.slowdown": (meter.slowdown(), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gridxpand" / "__init__.py").is_file():
        print(f"perfbench: no gridxpand sources in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from spans import Tracer
    from speed import Meter
    from workloads import DEFAULT_SEED, load_inputs

    seed = DEFAULT_SEED if args.seed is None else args.seed
    setup = [] if args.trace else setup_seconds(args.workload, seed)

    import gridxpand as gx
    if Path(gx.__file__).resolve().parent != ROOT / "src" / "gridxpand":
        print(f"perfbench: imported gridxpand from {gx.__file__}",
              file=sys.stderr)
        return 2
    tracer = Tracer(enabled=bool(args.trace))
    inputs = load_inputs(gx, ROOT, args.workload, seed, tracer)
    reference = load_reference() if args.workload == "thermal_sweep" else None

    captured: list = []
    plans: list = []
    rounds: list[Round] = []
    problems: list[str] = []
    meter = Meter()
    with tracer.patched(program_patches(gx, tracer, captured, meter)):
        while not rounds or sum(r.wall for r in rounds) < args.seconds:
            meter.read()        # untimed checks ran since the last reading
            w0, c0 = meter.overhead, meter.overhead_cpu
            c1, t1 = time.process_time(), time.perf_counter()
            if args.workload == "oracle_check":
                rnd = oracle_round(gx, inputs, tracer, meter)
            else:
                rnd = sweep_round(gx, args.workload, inputs, tracer, captured)
            rnd.finish(time.perf_counter() - t1, time.process_time() - c1,
                       meter, meter.overhead - w0, meter.overhead_cpu - c0)
            rounds.append(rnd)
            plans += [op["plan"] for op in rnd.ops if "plan" in op]
            problems += check_round(gx, args.workload, rnd, inputs, reference)

    ops = [op for r in rounds for op in r.ops]
    failed = sum(op["failed"] for op in ops)
    for op in ops:
        if op["failed"]:
            print(f"failed: {op.get('error') or op['row'].get('error')}")
    for p in dict.fromkeys(problems):
        print(f"check: {p}")

    if args.trace:
        metrics = layer_metrics(tracer, rounds, plans, meter,
                                args.workload != "oracle_check")
        out = HERE / "out" / f"{args.workload}-seed{seed}-trace.json"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.median(r.scaled_wall for r in rounds), "s"),
            "plan_max_s": (statistics.median(r.scaled_max for r in rounds),
                           "s"),
            "cpu_s": (statistics.median(r.scaled_cpu for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    print(f"workload {args.workload}, seed {seed}: {len(rounds)} round(s), "
          f"{len(ops)} operations, {failed} failed, "
          f"{len(problems)} check problems")
    raw = {key: statistics.median(getattr(r, key) for r in rounds)
           for key in ("wall", "raw_max", "cpu")}
    print(f"raw, unscaled: wall {raw['wall']:.4g} s, longest operation "
          f"{raw['raw_max']:.4g} s, cpu {raw['cpu']:.4g} s; machine "
          f"slowdown {meter.slowdown():.3g} (kernel median / reference)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
