"""Both solver backends against scipy's LP solver and against each other."""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
import scipy.optimize as sopt
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gridxpand.solve as solve_module
from gridxpand import (ModelIR, SolveConfig, build_igtep, external_solve,
                       oracle_solve, plan_document, run_plan, scale_to_peak)
from gridxpand.errors import SolverError
from gridxpand.ir import BINARY, CONTINUOUS, EQ, GE, LE
from gridxpand.solve import (ENUMERATION_CAP, FIXED_OPTIONS, INFEASIBLE,
                             LIMIT, OPTIMAL, PROOF_OPTIONS, simplex_lp, solve)
from support import fresh_python, random_instance

SENSES = (LE, GE, EQ)
FEASIBILITY_JUMP = "mip_heuristic_run_feasibility_jump"
_SENSE_CODE = {LE: 0, GE: 1, EQ: 2}


def random_lp(rng: np.random.Generator) -> ModelIR:
    """A small random LP with every variable boxed (never unbounded)."""
    ir = ModelIR()
    n = int(rng.integers(2, 7))
    for j in range(n):
        lo = float(rng.uniform(-5.0, 0.0))
        hi = lo + float(rng.uniform(0.5, 8.0))
        ir.add_variable(f"x{j}", CONTINUOUS, lo, hi)
        ir.objective[j] = float(rng.integers(-4, 5))
    m = int(rng.integers(1, 6))
    for r in range(m):
        coeffs = {j: float(rng.integers(-4, 5)) for j in range(n)
                  if rng.random() < 0.7}
        if not coeffs:
            coeffs = {0: 1.0}
        sense = SENSES[int(rng.integers(0, 3))]
        rhs = float(rng.uniform(-4.0, 6.0))
        if sense == EQ:
            # Anchor equalities at an interior point so they are usually
            # satisfiable; random right-hand sides make almost every
            # equality-bearing instance infeasible, which tests nothing.
            mid = {j: 0.5 * (ir.variables[j].lower + ir.variables[j].upper)
                   for j in coeffs}
            rhs = sum(a * mid[j] for j, a in coeffs.items()) \
                + float(rng.uniform(-0.5, 0.5))
        ir.add_row(f"r{r}", coeffs, sense, rhs)
        if rng.random() < 0.25:   # duplicate rows provoke degeneracy
            ir.add_row(f"r{r}dup", dict(coeffs), sense, rhs)
    return ir


def known_milp() -> ModelIR:
    """Three-item knapsack; the optimum takes y and z for -6."""
    ir = ModelIR()
    x = ir.add_variable("x", BINARY)
    y = ir.add_variable("y", BINARY)
    z = ir.add_variable("z", BINARY)
    ir.objective = {x: -3.0, y: -4.0, z: -2.0}
    ir.add_row("budget", {x: 2.0, y: 3.0, z: 1.0}, LE, 4.0)
    return ir


def scipy_reference(ir: ModelIR):
    n = ir.num_variables
    cost = np.zeros(n)
    for j, a in ir.objective.items():
        cost[j] = a
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row in ir.rows:
        dense = np.zeros(n)
        for j, a in row.coeffs.items():
            dense[j] = a
        if row.sense == LE:
            a_ub.append(dense), b_ub.append(row.rhs)
        elif row.sense == GE:
            a_ub.append(-dense), b_ub.append(-row.rhs)
        else:
            a_eq.append(dense), b_eq.append(row.rhs)
    res = sopt.linprog(
        cost,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=[(v.lower, v.upper) for v in ir.variables],
        method="highs")
    return res


def assert_point_feasible(ir: ModelIR, x: np.ndarray, tol: float = 1e-6):
    for v in ir.variables:
        assert v.lower - tol <= x[v.index] <= v.upper + tol
    for row in ir.rows:
        act = ir.row_activity(row, x)
        if row.sense == LE:
            assert act <= row.rhs + tol
        elif row.sense == GE:
            assert act >= row.rhs - tol
        else:
            assert act == pytest.approx(row.rhs, abs=tol)


class TestSolveConfig:
    def test_defaults(self):
        config = SolveConfig()
        assert config.backend == "external"
        assert config.mip_gap == 1e-9

    @pytest.mark.parametrize("kwargs", [
        {"backend": "cplex"},
        {"time_limit": 0.0},
        {"mip_gap": 1.0},
        {"mip_gap": -0.1},
        {"time_limit": -1.0},
        {"backend": "highs"},
        {"time_limit": float("nan")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SolveConfig(**kwargs)


class TestSimplexHandCases:
    def test_fixed_variable_substituted(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 2.0, 2.0)
        y = ir.add_variable("y", CONTINUOUS, 0.0, 1.0)
        ir.objective = {x: 1.0, y: 1.0}
        ir.add_row("floor", {y: 1.0}, GE, 0.5)
        status, obj, point = simplex_lp(ir)
        assert status == OPTIMAL
        assert obj == pytest.approx(2.5)
        assert point[x] == 2.0

    def test_shifted_lower_bound(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 3.0, 10.0)
        ir.objective = {x: 1.0}
        status, obj, _ = simplex_lp(ir)
        assert status == OPTIMAL and obj == pytest.approx(3.0)

    def test_mirrored_upper_bound(self):
        # A negative cost mirrors the column about its upper bound.
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, -10.0, 5.0)
        ir.objective = {x: -1.0}
        status, obj, point = simplex_lp(ir)
        assert status == OPTIMAL
        assert obj == pytest.approx(-5.0)
        assert point[x] == pytest.approx(5.0)

    def test_negative_lower_bound(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, -10.0, 10.0)
        ir.objective = {x: 1.0}
        ir.add_row("floor", {x: 1.0}, GE, -4.0)
        status, obj, point = simplex_lp(ir)
        assert status == OPTIMAL
        assert obj == pytest.approx(-4.0)
        assert point[x] == pytest.approx(-4.0)

    def test_equality_row(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 0.0, 2.0)
        y = ir.add_variable("y", CONTINUOUS, 0.0, 2.0)
        ir.objective = {x: 2.0, y: 1.0}
        ir.add_row("sum", {x: 1.0, y: 1.0}, EQ, 3.0)
        status, obj, point = simplex_lp(ir)
        assert status == OPTIMAL
        assert obj == pytest.approx(4.0)
        assert point[x] == pytest.approx(1.0)
        assert point[y] == pytest.approx(2.0)

    @pytest.mark.parametrize("lower, upper", [
        (3.0, np.inf), (-np.inf, 5.0), (-np.inf, np.inf)],
        ids=["upper open", "lower open", "free"])
    @pytest.mark.parametrize("solver", [simplex_lp, oracle_solve],
                             ids=["simplex_lp", "oracle_solve"])
    def test_unboxed_column_is_refused(self, solver, lower, upper):
        ir = ModelIR()
        ir.add_variable("y", BINARY)
        x = ir.add_variable("open_x", CONTINUOUS, lower, upper)
        ir.objective = {x: 1.0}
        with pytest.raises(SolverError, match="open_x"):
            solver(ir)

    def test_infeasible(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 0.0, 1.0)
        ir.objective = {x: 1.0}
        ir.add_row("cap", {x: 1.0}, LE, -1.0)
        status, obj, point = simplex_lp(ir)
        assert status == INFEASIBLE
        assert obj is None and point is None

    def test_bounds_override_pins_value(self):
        ir = ModelIR()
        y = ir.add_variable("y", BINARY)
        x = ir.add_variable("x", CONTINUOUS, 0.0, 10.0)
        ir.objective = {x: 1.0}
        ir.add_row("link", {x: 1.0, y: -3.0}, GE, 0.0)
        status, obj, point = simplex_lp(ir, bounds_override={y: (1.0, 1.0)})
        assert status == OPTIMAL
        assert obj == pytest.approx(3.0)
        assert point[y] == 1.0

    def test_relaxation_without_override(self):
        # An un-pinned binary participates with its box relaxed to [0, 1].
        ir = ModelIR()
        y = ir.add_variable("y", BINARY)
        ir.objective = {y: 1.0}
        ir.add_row("floor", {y: 1.0}, GE, 0.25)
        status, obj, _ = simplex_lp(ir)
        assert status == OPTIMAL and obj == pytest.approx(0.25)


class TestSimplexAgainstScipy:
    def test_random_instances(self):
        rng = np.random.default_rng(424242)
        n_optimal = 0
        for _ in range(60):
            ir = random_lp(rng)
            status, obj, point = simplex_lp(ir)
            ref = scipy_reference(ir)
            if ref.status == 2:
                assert status == INFEASIBLE
                continue
            assert ref.status == 0, ref.message
            assert status == OPTIMAL
            assert obj == pytest.approx(ref.fun, abs=1e-7)
            assert_point_feasible(ir, point)
            n_optimal += 1
        assert n_optimal >= 20   # the generator must exercise the happy path


class TestExternalSolve:
    def test_known_milp(self):
        ir = known_milp()
        sol = external_solve(ir)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-6.0)
        assert sol.value(ir, "y") == pytest.approx(1.0)
        assert sol.value(ir, "z") == pytest.approx(1.0)
        assert sol.backend == "external"

    def test_reports_gap_bound_and_nodes(self):
        sol = external_solve(known_milp())
        assert 0.0 <= sol.mip_gap <= SolveConfig().mip_gap
        assert sol.mip_dual_bound == pytest.approx(-6.0)
        assert sol.mip_node_count >= 0

    def test_reports_lp_iterations(self, six_bus, six_bus_robust):
        ir, _ = build_igtep(scale_to_peak(six_bus, 500.0), six_bus_robust,
                            "dc_det")
        sol = external_solve(ir)
        assert isinstance(sol.lp_iterations, int) and sol.lp_iterations > 0
        assert oracle_solve(known_milp()).lp_iterations is None

    def test_fixed_columns_replace_their_bounds(self):
        """Fixing x leaves room in the budget for z alone, and the model's
        own bounds are untouched."""
        ir = known_milp()
        sol = external_solve(ir, fixed={0: 1.0})
        assert sol.objective == pytest.approx(-5.0)
        assert list(sol.values) == pytest.approx([1.0, 0.0, 1.0])
        assert ir.variables[0].lower == 0.0
        assert external_solve(ir).objective == pytest.approx(-6.0)

    @pytest.mark.parametrize("start", [
        {0: 1.0, 1: 0.0, 2: 0.0},   # feasible but worse than the optimum
        {0: 1.0, 1: 1.0, 2: 1.0},   # breaks the budget row; HiGHS drops it
        {0: 0.0, 1: 1.0, 2: 1.0},   # the optimum itself
        {1: 1.0},                   # y alone; HiGHS completes the rest
    ])
    def test_start_never_changes_the_optimum(self, start):
        ir = known_milp()
        sol = external_solve(ir, start=start)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(-6.0)
        assert list(sol.values) == pytest.approx([0.0, 1.0, 1.0])

    def test_empty_model(self):
        sol = external_solve(ModelIR())
        assert sol.status == "optimal"
        assert sol.objective == 0.0
        assert sol.values.shape == (0,)

    @pytest.mark.parametrize("sense,rhs,holds", [
        (LE, 1.0, True), (LE, -1.0, False),
        (GE, -1.0, True), (GE, 1.0, False),
        (EQ, 0.0, True), (EQ, 1.0, False),
    ], ids=["le-holds", "le-fails", "ge-holds", "ge-fails", "eq-holds",
            "eq-fails"])
    def test_empty_model_with_impossible_row(self, sense, rhs, holds):
        ir = ModelIR()
        ir.add_row("vacuous", {}, sense, rhs)
        sol = external_solve(ir)
        assert sol.status == (OPTIMAL if holds else INFEASIBLE)
        assert sol.objective == (0.0 if holds else None)

    def test_infeasible_model(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 0.0, 1.0)
        ir.add_row("cap", {x: 1.0}, GE, 2.0)
        sol = external_solve(ir)
        assert sol.status == INFEASIBLE
        assert sol.status != "optimal"


class TestModelArrays:
    """The vectorised export both backends read, against the row-by-row
    assembly the external backend used before it: bit for bit."""

    @staticmethod
    def row_by_row(ir: ModelIR):
        cost = np.zeros(ir.num_variables)
        for j, a in ir.objective.items():
            cost[j] = a
        indptr, indices, data = [0], [], []
        dense = np.zeros((ir.num_rows, ir.num_variables))
        row_lo = np.empty(ir.num_rows)
        row_hi = np.empty(ir.num_rows)
        for r, row in enumerate(ir.rows):
            for j, a in row.coeffs.items():
                indices.append(j)
                data.append(a)
                dense[r, j] = a
            indptr.append(len(indices))
            row_lo[r] = -np.inf if row.sense == LE else row.rhs
            row_hi[r] = np.inf if row.sense == GE else row.rhs
        triple = (np.array(indptr, dtype=np.int64),
                  np.array(indices, dtype=np.int64), np.array(data))
        return cost, triple, dense, row_lo, row_hi

    def assert_same(self, ir: ModelIR):
        model = solve_module._model_arrays(ir)
        cost, (indptr, indices, data), dense, row_lo, row_hi = \
            self.row_by_row(ir)
        # the oracle's dense rows, filled from the triple
        rows = solve_module._StandardForm(model, pinned=[]).model_rows
        for a, b in ((model.cost, cost), (model.indptr, indptr),
                     (model.indices, indices), (model.data, data),
                     (rows, dense),
                     (np.where(model.direction <= 0.0, model.rhs, -np.inf),
                      row_lo),
                     (np.where(model.direction >= 0.0, model.rhs, np.inf),
                      row_hi)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_random_lps(self):
        rng = np.random.default_rng(8080)
        for _ in range(40):
            self.assert_same(random_lp(rng))

    @pytest.mark.parametrize("mode", ["dc_det", "dc_robust", "dtlr_robust"])
    def test_shipped_cases(self, six_bus, six_bus_robust, rts24,
                           rts24_scenario, mode):
        self.assert_same(build_igtep(six_bus, six_bus_robust, mode)[0])
        self.assert_same(build_igtep(rts24, rts24_scenario.robust, mode)[0])

    @pytest.mark.parametrize("mode", ["dc_det", "dc_robust", "dtlr_robust"])
    def test_highs_holds_the_column_matrix(self, monkeypatch, six_bus,
                                           six_bus_robust, rts24,
                                           rts24_scenario, mode):
        """``external_solve`` hands HiGHS the rows; HiGHS holds them as the
        column matrix scipy's ``tocsc()`` makes of the same triple, which is
        what the backend passed before it stopped using ``scipy.sparse``."""
        h = solve_module._highs
        real = h._Highs
        held = []

        class Reading:
            """Reads the model HiGHS holds at ``run`` instead of solving."""

            def __init__(self):
                self._highs = real()

            def run(self):
                a = self._highs.getLp().a_matrix_
                held.append((a.format_, np.asarray(a.start_),
                             np.asarray(a.index_), np.asarray(a.value_)))
                return h.HighsStatus.kOk

            def __getattr__(self, name):
                return getattr(self._highs, name)

        monkeypatch.setattr(h, "_Highs", Reading)
        for ir in (build_igtep(six_bus, six_bus_robust, mode)[0],
                   build_igtep(rts24, rts24_scenario.robust, mode)[0]):
            model = solve_module._model_arrays(ir)
            want = sp.csr_array((model.data, model.indices, model.indptr),
                                shape=(ir.num_rows, ir.num_variables)).tocsc()
            held.clear()
            external_solve(ir)
            fmt, start, index, value = held[0]
            assert fmt == h.MatrixFormat.kColwise
            for a, b in ((start, want.indptr), (index, want.indices),
                         (value, want.data)):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestHighsBinding:
    """The private scipy members the external backend drives.

    ``gridxpand.solve`` loads ``scipy.optimize._highspy._core`` from its
    file, under that name, and falls back to the plain import, so a scipy
    without it fails at import; these tests make a change to the members it
    uses, or a second copy of the module, fail loudly too.
    """

    @pytest.mark.parametrize("first, then", [
        ("import gridxpand.solve as s",
         "from scipy.optimize._highspy import _core"),
        ("from scipy.optimize._highspy import _core",
         "import gridxpand.solve as s")],
        ids=["gridxpand_first", "scipy_first"])
    def test_one_module_in_either_import_order(self, first, then):
        """The first import registers the binding under its own name, and
        the second finds it there."""
        out = fresh_python(
            "-c", f"import sys\n{first}\n"
            "held = sys.modules.get('scipy.optimize._highspy._core')\n"
            f"{then}\nimport scipy.optimize._highspy._core as h\n"
            "print(held is s._highs is _core is h)")
        assert out.split() == ["True"]

    def test_scipy_solvers_work_after_gridxpand(self):
        """perfbench's checks call ``linprog`` with gridxpand already
        loaded, so scipy's own HiGHS path must run on the module loaded
        from its file."""
        out = fresh_python(
            "-c", "import sys\n"
            "import numpy as np\n"
            "import gridxpand\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from scipy.optimize import (Bounds, LinearConstraint, linprog,\n"
            "                            milp)\n"
            "lp = linprog([-1, -2], A_ub=[[1, 1]], b_ub=[1],\n"
            "             bounds=[(0, 1)] * 2, method='highs')\n"
            "mip = milp([-3, -4, -2], integrality=np.ones(3),\n"
            "           bounds=Bounds(0, 1),\n"
            "           constraints=LinearConstraint([[2, 3, 1]], -np.inf, 4))\n"
            "for r in (lp, mip):\n"
            "    print(r.status, round(r.fun, 9), np.round(r.x, 9).tolist())\n")
        assert out.splitlines() == ["False", "0 -2.0 [0.0, 1.0]",
                                    "0 -6.0 [0.0, 1.0, 1.0]"]

    def test_plain_import_when_the_file_is_not_found(self):
        """With scipy's tree unfindable the plain import serves, and the
        backend still solves."""
        out = fresh_python(
            "-c", "import importlib.util, sys\n"
            "find_spec = importlib.util.find_spec\n"
            "importlib.util.find_spec = lambda name, package=None: (\n"
            "    None if name == 'scipy' else find_spec(name, package))\n"
            "import gridxpand.solve as s\n"
            "from gridxpand.ir import BINARY, LE, ModelIR\n"
            "print('scipy.optimize' in sys.modules)\n"
            "print(s._highs is sys.modules['scipy.optimize._highspy._core'])\n"
            "ir = ModelIR()\n"
            "x, y = (ir.add_variable(n, BINARY) for n in 'xy')\n"
            "ir.objective = {x: -3.0, y: -4.0}\n"
            "ir.add_row('budget', {x: 2.0, y: 3.0}, LE, 4.0)\n"
            "print(s.external_solve(ir).objective)\n")
        assert out.splitlines() == ["True", "True", "-4.0"]

    def test_members_keep_their_shape(self):
        h = solve_module._highs
        lp = h.HighsLp()
        for name in ("num_col_", "num_row_", "col_cost_", "col_lower_",
                     "col_upper_", "row_lower_", "row_upper_", "a_matrix_",
                     "integrality_"):
            assert hasattr(lp, name), f"HighsLp lost {name}"
        for name in ("format_", "num_col_", "num_row_", "start_", "index_",
                     "value_"):
            assert hasattr(lp.a_matrix_, name), f"HighsSparseMatrix lost {name}"
        # min -x - y  s.t.  x + y <= 1,  x, y binary
        lp.num_col_ = lp.a_matrix_.num_col_ = 2
        lp.num_row_ = lp.a_matrix_.num_row_ = 1
        lp.col_cost_ = np.array([-1.0, -1.0])
        lp.col_lower_ = np.zeros(2)
        lp.col_upper_ = np.ones(2)
        lp.row_lower_ = np.array([-np.inf])
        lp.row_upper_ = np.array([1.0])
        lp.a_matrix_.format_ = h.MatrixFormat.kColwise
        lp.a_matrix_.start_ = np.array([0, 1, 2])
        lp.a_matrix_.index_ = np.array([0, 0])
        lp.a_matrix_.value_ = np.array([1.0, 1.0])
        lp.integrality_ = [h.HighsVarType(1), h.HighsVarType(1)]
        highs = h._Highs()
        assert highs.setOptionValue("log_to_console", False) == h.HighsStatus.kOk
        assert highs.passModel(lp) == h.HighsStatus.kOk
        # the sparse overload, (count, int32 indices, values), as in
        # scipy 1.17.1; a start for x alone
        assert highs.setSolution(1, np.array([0], dtype=np.int32),
                                 np.array([1.0])) == h.HighsStatus.kOk
        highs.run()
        assert highs.getModelStatus().name == "kOptimal"
        info = highs.getInfo()
        assert isinstance(info.mip_gap, float)
        assert info.mip_dual_bound == pytest.approx(-1.0)
        assert int(info.mip_node_count) >= 0
        assert info.objective_function_value == pytest.approx(-1.0)
        assert (info.primal_solution_status
                == h.SolutionStatus.kSolutionStatusFeasible)
        assert list(highs.getSolution().col_value) in ([1.0, 0.0], [0.0, 1.0])

    def test_lp_members_keep_their_shape(self):
        """What :func:`~gridxpand.solve.probe_sides` drives: a warm LP
        re-solved after bound, row and cost changes, whose iteration limit
        and count hold per run."""
        h = solve_module._highs
        highs = h._Highs()
        assert highs.setOptionValue("log_to_console", False) == h.HighsStatus.kOk
        # max x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  0 <= x, y <= 3
        for _ in range(2):
            assert highs.addVar(0.0, 3.0) == h.HighsStatus.kOk
        cols = np.array([0, 1], dtype=np.int32)
        highs.changeColsCost(2, cols, np.array([-1.0, -1.0]))
        highs.addRow(-np.inf, 4.0, 2, cols, np.array([1.0, 2.0]))
        highs.addRow(-np.inf, 6.0, 2, cols, np.array([3.0, 1.0]))
        highs.run()
        assert highs.getModelStatus() == h.HighsModelStatus.kOptimal
        assert highs.getInfo().simplex_iteration_count > 0
        assert list(highs.getSolution().col_value) == pytest.approx([1.6, 1.2])
        basis = highs.getBasis()
        assert list(basis.col_status) == [h.HighsBasisStatus.kBasic] * 2
        assert highs.setBasis(basis) == h.HighsStatus.kOk
        assert highs.changeColsBounds(1, np.array([0], dtype=np.int32),
                                      np.array([0.0]), np.array([1.0])) \
            == h.HighsStatus.kOk
        for name, value in (("simplex_strategy", 4),
                            ("simplex_iteration_limit", 0)):
            assert highs.setOptionValue(name, value) == h.HighsStatus.kOk
        highs.run()
        assert highs.getModelStatus() == h.HighsModelStatus.kIterationLimit
        assert highs.getInfo().simplex_iteration_count == 0
        highs.setOptionValue("simplex_iteration_limit", 100)
        highs.run()
        assert highs.getModelStatus() == h.HighsModelStatus.kOptimal
        assert 0 < highs.getInfo().simplex_iteration_count <= 100
        assert list(highs.getSolution().col_value) == pytest.approx([1.0, 1.5])

    @pytest.mark.parametrize("name", ["mip_heuristic_run_rins",
                                      "mip_heuristic_run_rens",
                                      "mip_heuristic_run_root_reduced_cost",
                                      "mip_allow_restart"])
    def test_sub_mip_options_accept_false(self, name):
        """A renamed option would quietly bring the sub-MIP search or the
        root restarts back."""
        assert name in PROOF_OPTIONS
        h = solve_module._highs
        highs = h._Highs()
        assert highs.setOptionValue(name, False) == h.HighsStatus.kOk
        assert highs.getOptionValue(name)[1] is False

    @pytest.mark.parametrize("name", ["log_to_console",
                                      FEASIBILITY_JUMP])
    def test_fixed_options_accept_false(self, name):
        """Every solve switches these off; a renamed feasibility-jump
        option would quietly bring the heuristic back."""
        assert FIXED_OPTIONS[name] is False
        h = solve_module._highs
        highs = h._Highs()
        assert highs.setOptionValue(name, False) == h.HighsStatus.kOk
        assert highs.getOptionValue(name)[1] is False

    def test_refused_sub_mip_option_raises(self, monkeypatch):
        recorder = record_options(monkeypatch, refuse=PROOF_OPTIONS)
        with pytest.raises(SolverError, match=PROOF_OPTIONS[0]):
            external_solve(known_milp(), sub_mips=False)
        # a default solve touches none of these options: it keeps the
        # sub-MIPs and the root restarts
        recorder.clear()
        assert external_solve(known_milp()).objective == pytest.approx(-6.0)
        assert not set(recorder) & set(PROOF_OPTIONS)

    @pytest.mark.parametrize("name", ["time_limit", FEASIBILITY_JUMP])
    @pytest.mark.parametrize("sub_mips", [True, False])
    def test_any_refused_option_raises(self, monkeypatch, name, sub_mips):
        record_options(monkeypatch, refuse=(name,))
        with pytest.raises(SolverError, match=f"refused option {name}$"):
            external_solve(known_milp(), sub_mips=sub_mips)

    def test_sub_mips_false_switches_the_four_off(self, monkeypatch):
        recorder = record_options(monkeypatch)
        sol = external_solve(known_milp(), sub_mips=False)
        assert sol.objective == pytest.approx(-6.0)
        assert {name: recorder[name] for name in PROOF_OPTIONS} == \
            dict.fromkeys(PROOF_OPTIONS, False)

    @pytest.mark.parametrize("sub_mips", [True, False])
    def test_every_solve_switches_feasibility_jump_off(self, monkeypatch,
                                                       sub_mips):
        recorder = record_options(monkeypatch)
        sol = external_solve(known_milp(), SolveConfig(time_limit=7.0,
                                                       mip_gap=1e-6),
                             sub_mips=sub_mips)
        assert sol.objective == pytest.approx(-6.0)
        assert recorder[FEASIBILITY_JUMP] is False
        assert recorder["log_to_console"] is False
        assert recorder["time_limit"] == 7.0
        assert recorder["mip_rel_gap"] == 1e-6


def record_options(monkeypatch, refuse: tuple = (),
                   force: dict | None = None) -> dict:
    """Route ``_Highs.setOptionValue`` through a recorder of what the
    backend asks for.  Options named in ``refuse`` answer ``kError``;
    ``force`` maps options to the values HiGHS gets in their place."""
    h = solve_module._highs
    real = h._Highs
    force = force or {}
    recorder: dict = {}

    class Recording:
        def __init__(self):
            self._highs = real()

        def setOptionValue(self, name, value):
            recorder[name] = value
            if name in refuse:
                return h.HighsStatus.kError
            return self._highs.setOptionValue(name, force.get(name, value))

        def __getattr__(self, name):
            return getattr(self._highs, name)

    monkeypatch.setattr(h, "_Highs", Recording)
    return recorder


class TestFeasibilityJumpOff:
    """Switching the heuristic off steers the search only: plans and
    solutions found with it forced back on are the same, byte for byte."""

    CONFIG = SolveConfig(time_limit=60.0, mip_gap=1e-4)

    @staticmethod
    def _same_both_ways(monkeypatch, solve_once, *args):
        results = []
        for force in ({FEASIBILITY_JUMP: True}, {}):
            with monkeypatch.context() as m:
                recorder = record_options(m, force=force)
                results.append(solve_once(*args))
            assert recorder[FEASIBILITY_JUMP] is False
        assert results[0] == results[1]

    @classmethod
    def _plan_bytes(cls, case, params, mode):
        plan = run_plan(case, params, mode, cls.CONFIG)
        return json.dumps(plan_document(plan), sort_keys=True)

    @classmethod
    def _plan_and_solution(cls, case, params, mode):
        ir, _ = build_igtep(case, params, mode)
        sol = external_solve(ir, cls.CONFIG)
        binaries = [v.index for v in ir.free_binaries()]
        return (cls._plan_bytes(case, params, mode), sol.status,
                sol.objective,
                None if sol.values is None else sol.values[binaries].tolist())

    @pytest.mark.parametrize("mode", ["dc_det", "dc_robust"])
    @pytest.mark.parametrize("peak", [300.0, 400.0, 500.0, 600.0, 700.0])
    def test_six_bus_static_rows(self, monkeypatch, six_bus, six_bus_robust,
                                 peak, mode):
        """The document holds the status, the objective and, as the added
        lines and units, every binary of a static model."""
        params = six_bus_robust if mode == "dc_robust" else None
        self._same_both_ways(monkeypatch, self._plan_bytes,
                             scale_to_peak(six_bus, peak), params, mode)

    def test_random_instances(self, monkeypatch):
        """Planned by ``run_plan`` and solved with the defaults, as the
        oracle agreement checks solve them."""
        rng = np.random.default_rng(17)
        for _ in range(8):
            self._same_both_ways(monkeypatch, self._plan_and_solution,
                                 *random_instance(rng))


class TestPackageNamespace:
    def test_solve_submodule_is_not_shadowed(self):
        import gridxpand.solve as m
        assert m.simplex_lp is simplex_lp
        assert m is sys.modules["gridxpand.solve"]


class TestStdoutRedirect:
    def test_overlapping_threads_share_one_redirect(self):
        """Inside every overlapping solve fd 1 is fd 2; after all, stdout."""
        before = os.fstat(1)
        seen: list[bool] = []

        def worker():
            for _ in range(200):
                with solve_module._stdout_to_stderr():
                    time.sleep(0)   # let another thread enter or leave
                    seen.append(os.path.samestat(os.fstat(1), os.fstat(2)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(seen) == 8 * 200 and all(seen)
        assert os.path.samestat(os.fstat(1), before)

    def test_buffered_c_output_stays_off_stdout(self):
        """HiGHS prints through the C library, which buffers a pipe's
        output; what it printed inside the redirect must not surface on
        stdout at exit.  An empty ``PYTHONUNBUFFERED`` leaves C stdio
        buffered in the child."""
        out = fresh_python("-c", (
            "import ctypes, gridxpand.solve as s\n"
            "with s._stdout_to_stderr():\n"
            "    ctypes.CDLL(None).printf(b'from C\\n')\n"
            "print('done')"), PYTHONUNBUFFERED="")
        assert out == "done\n"


class TestOracleSolve:
    def test_agrees_with_external_on_random_milps(self):
        rng = np.random.default_rng(20260823)
        checked = 0
        for _ in range(15):
            ir = random_lp(rng)
            for b in range(int(rng.integers(1, 5))):
                j = ir.add_variable(f"b{b}", BINARY)
                ir.objective[j] = float(rng.integers(-3, 4))
            ext = external_solve(ir, SolveConfig(time_limit=30.0))
            orc = oracle_solve(ir, SolveConfig(backend="oracle",
                                               time_limit=30.0))
            assert ext.status == orc.status
            if ext.status == "optimal":
                assert orc.objective == pytest.approx(ext.objective,
                                                      rel=1e-6, abs=1e-6)
                assert_point_feasible(ir, orc.values)
                checked += 1
        assert checked >= 5

    def test_picks_best_assignment(self):
        ir = ModelIR()
        y = ir.add_variable("y", BINARY)
        x = ir.add_variable("x", CONTINUOUS, 0.0, 10.0)
        ir.objective = {y: 5.0, x: 1.0}
        ir.add_row("either", {x: 1.0, y: 4.0}, GE, 4.0)
        sol = oracle_solve(ir)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(4.0)   # x=4 beats y at cost 5
        assert sol.value(ir, "y") == 0.0
        assert sol.backend == "oracle"

    def test_infeasible_all_assignments(self):
        ir = ModelIR()
        y = ir.add_variable("y", BINARY)
        x = ir.add_variable("x", CONTINUOUS, 0.0, 1.0)
        ir.add_row("conflict", {x: 1.0, y: 1.0}, GE, 3.0)
        sol = oracle_solve(ir)
        assert sol.status == INFEASIBLE

    def test_enumeration_cap(self):
        # Refused before the first of its 2**21 assignments.
        ir = ModelIR()
        for b in range(ENUMERATION_CAP + 1):
            ir.add_variable(f"b{b}", BINARY)
        with pytest.raises(SolverError, match="enumeration cap"):
            oracle_solve(ir)

    def test_fixed_binaries_do_not_count_against_cap(self):
        ir = ModelIR()
        for b in range(ENUMERATION_CAP + 1):
            ir.add_variable(f"b{b}", BINARY, 1.0, 1.0)
        free = ir.add_variable("f", BINARY)
        ir.objective = {free: 1.0}
        sol = oracle_solve(ir)
        assert sol.status == "optimal"
        assert sol.objective == 0.0

    def test_time_limit_reports_incumbent(self):
        ir = ModelIR()
        for b in range(12):
            j = ir.add_variable(f"b{b}", BINARY)
            ir.objective[j] = 1.0
        sol = oracle_solve(ir, SolveConfig(backend="oracle",
                                           time_limit=1e-8))
        assert sol.status == LIMIT
        assert "time limit" in sol.message
        assert sol.objective is not None   # all-zero assignment found first

    def test_model_at_the_cap_solves_in_flat_memory(self):
        """2**20 assignments are priced in blocks: the right-hand sides of
        all of them at once would take 50 MB, their bits 168 MB."""
        rng = np.random.default_rng(2020)
        ir = ModelIR()
        bits = [ir.add_variable(f"b{i}", BINARY)
                for i in range(ENUMERATION_CAP)]
        xs = [ir.add_variable(f"x{j}", CONTINUOUS, 0.0, 4.0)
              for j in range(3)]
        spill = ir.add_variable("spill", CONTINUOUS, 0.0, 1.0)
        ir.objective = {**{i: float(rng.integers(2, 9)) for i in bits},
                        **{j: 5.0 for j in xs}}
        ir.add_row("demand", {**{j: 1.0 for j in xs},
                              **{i: float(rng.integers(1, 4)) for i in bits}},
                   GE, 14.0)
        ir.add_row("count", {**{i: 1.0 for i in bits}, spill: -1.0}, LE, 6.0)
        tracemalloc.start()
        try:
            began = time.perf_counter()
            sol = oracle_solve(ir, ORACLE)
            elapsed = time.perf_counter() - began
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_same_answer(sol, OPTIMAL, external_solve(ir).objective)
        assert elapsed < 10.0
        assert peak < 8e6


ORACLE = SolveConfig(backend="oracle", time_limit=60.0)


def cold_enumeration(ir: ModelIR) -> tuple[str, float | None, list[str]]:
    """The oracle as a plain loop: one cold :func:`simplex_lp` per
    assignment.  Returns the status, the objective and every assignment's
    LP status."""
    free = ir.free_binaries()
    best = None
    statuses = []
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        status, objective, _ = simplex_lp(
            ir, bounds_override={v.index: (b, b) for v, b in zip(free, bits)})
        statuses.append(status)
        if status == OPTIMAL and (best is None or objective < best):
            best = objective
    return (INFEASIBLE if best is None else OPTIMAL), best, statuses


def planning_model(seed: int) -> ModelIR:
    case, params, mode = random_instance(np.random.default_rng(seed))
    return build_igtep(case, params, mode)[0]


def assert_same_answer(sol, status, objective):
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)


def counting(monkeypatch, name: str) -> list:
    """Replace ``gridxpand.solve.<name>`` by a wrapper that logs its calls."""
    calls = []
    inner = getattr(solve_module, name)

    def wrapper(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(solve_module, name, wrapper)
    return calls


def returns(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.<name>`` by a wrapper that logs what each call
    returns."""
    results = []
    inner = getattr(owner, name)

    def wrapper(*args):
        results.append(inner(*args))
        return results[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return results


def certificate_pruned(patch, ir: ModelIR):
    """Solve ``ir`` by the oracle and list the assignments a kept Farkas
    certificate pruned, as indices in ``itertools.product`` order.

    An assignment is found by its right-hand side in the block priced;
    assignments with the same right-hand side, which have the same LP,
    are all listed."""
    weights = 2.0 ** np.arange(len(ir.free_binaries()) - 1, -1, -1)
    rhs = solve_module._StandardForm.rhs
    prunes = solve_module._farkas_prunes
    block = []                               # (bits, b) of the last block
    pruned = []

    def recorded_rhs(form, bits):
        answer = rhs(form, bits)
        block[:] = [(bits, answer[0])]
        return answer

    def recorded_prunes(certificates, b):
        mask = prunes(certificates, b)
        bits, block_b = block[0]
        for row in b[mask]:
            same = np.flatnonzero((block_b == row).all(axis=1))
            assert same.size > 0
            pruned.extend((bits[same] @ weights).astype(int).tolist())
        return mask

    patch.setattr(solve_module._StandardForm, "rhs", recorded_rhs)
    patch.setattr(solve_module, "_farkas_prunes", recorded_prunes)
    return oracle_solve(ir, ORACLE), pruned


class TestOracleWarmStarts:
    """The oracle prices each assignment by the last basis's duals and by
    the Farkas certificates it kept, and re-solves from that basis those it
    cannot prune."""

    # Seeds 54, 43 and 5 draw dc_det, dc_robust and dtlr_robust models whose
    # first 31, 11 and 7 assignments are infeasible, so the basis the later
    # ones start from was left by infeasible LPs; seed 50 has no feasible
    # assignment at all.
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(54)
    @example(43)
    @example(5)
    @example(50)
    @settings(max_examples=20, deadline=None)
    def test_matches_cold_enumeration(self, seed):
        ir = planning_model(seed)
        status, objective, _ = cold_enumeration(ir)
        assert_same_answer(oracle_solve(ir, ORACLE), status, objective)

    def test_warm_basis_serves_every_later_assignment(self, monkeypatch):
        """Only the first assignment starts from the slack basis, even when
        the assignments before the first feasible one are infeasible."""
        for seed in (54, 43, 5):
            ir = planning_model(seed)
            _, _, statuses = cold_enumeration(ir)
            assert statuses[0] == INFEASIBLE
            with monkeypatch.context() as patch:
                fresh = counting(patch, "_Basis")
                assert oracle_solve(ir, ORACLE).status == OPTIMAL
            assert len(fresh) == 1

    @pytest.mark.parametrize("corruption", ["point", "false infeasible"])
    def test_corrupted_warm_answer_is_solved_fresh(self, monkeypatch,
                                                   corruption):
        ir = planning_model(5)
        status, objective, _ = cold_enumeration(ir)
        step = solve_module._dual_simplex
        make = solve_module._Basis
        unused = []                   # a fresh basis before its first solve
        events = []

        def fresh(form):
            unused.append(make(form))
            return unused[-1]

        def corrupted(basis, b):
            answer = step(basis, b)
            if unused and basis is unused.pop():
                events.append("fresh " + answer[0])
                return answer
            if answer is None or answer[0] != OPTIMAL:
                events.append("warm")
                return answer
            events.append("corrupted")
            if corruption == "point":
                return OPTIMAL, 1.5 * answer[1] + 0.5
            return INFEASIBLE, basis.inverse()[0].copy()

        monkeypatch.setattr(solve_module, "_Basis", fresh)
        monkeypatch.setattr(solve_module, "_dual_simplex", corrupted)
        assert_same_answer(oracle_solve(ir, ORACLE), status, objective)
        # After the first solve, every corrupted warm answer is refused and
        # solved fresh, and nothing else is: with the uncorrupted warm
        # answers left out, the calls alternate.
        assert events[0] == "fresh infeasible"
        later = [e for e in events[1:] if e != "warm"]
        assert later and len(later) % 2 == 0
        assert set(later[0::2]) == {"corrupted"}
        assert set(later[1::2]) == {"fresh optimal"}

    # Seed 0 (dc_robust) would lose its optimum if the bound dropped the
    # negative reduced costs, seed 42 (dtlr_robust) if it kept duals of the
    # wrong sign.  Seed 5 is the model the other tests here solve.
    @pytest.mark.parametrize("seed, scale", [(0, 10.0), (5, -1.0),
                                             (42, -1.0)])
    def test_corrupted_duals_never_prune_the_optimum(self, monkeypatch,
                                                     seed, scale):
        """The pruning bound holds for any duals: scaled duals break
        dual feasibility and negated ones every row's sign.  The costs that
        price the duals are corrupted in every fresh basis; its reduced
        costs, which steer the pivots, are not."""
        ir = planning_model(seed)
        status, objective, _ = cold_enumeration(ir)
        make = solve_module._Basis

        def corrupted(form):
            basis = make(form)
            basis.cost = scale * basis.cost
            return basis

        monkeypatch.setattr(solve_module, "_Basis", corrupted)
        bounds = counting(monkeypatch, "_DualBound")
        assert_same_answer(oracle_solve(ir, ORACLE), status, objective)
        assert bounds

    def test_every_assignment_is_pruned_solved_or_rhs_infeasible(
            self, monkeypatch):
        """Each assignment is counted once: it breaks a row with no
        column, is pruned by the dual bound or by a kept Farkas
        certificate, or is solved.  The oracle prices assignments in
        blocks, so each count is summed over the rows of a block."""
        ir = planning_model(5)
        rhs = returns(monkeypatch, solve_module._StandardForm, "rhs")
        pruned = returns(monkeypatch, solve_module._DualBound, "prunes")
        refuted = returns(monkeypatch, solve_module, "_farkas_prunes")
        solved = counting(monkeypatch, "_assignment")
        assert oracle_solve(ir, ORACLE).status == "optimal"
        total = 2 ** len(ir.free_binaries())
        assert sum(meets.size for _, meets in rhs) == total
        rhs_infeasible = sum(int((~meets).sum()) for _, meets in rhs)
        bound_pruned = sum(int(mask.sum()) for mask in pruned)
        farkas_pruned = sum(int(mask.sum()) for mask in refuted)
        assert (bound_pruned + farkas_pruned + len(solved)
                + rhs_infeasible) == total
        assert bound_pruned > 0 and farkas_pruned > 0
        assert len(solved) < total

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @example(54)
    @example(43)
    @example(5)
    @example(50)
    @settings(max_examples=20, deadline=None)
    def test_certificate_pruned_assignments_are_infeasible(self, seed):
        """Every assignment a kept Farkas certificate prunes unsolved is
        infeasible under a cold solve of its own LP."""
        ir = planning_model(seed)
        _, _, statuses = cold_enumeration(ir)
        with pytest.MonkeyPatch.context() as patch:
            _, pruned = certificate_pruned(patch, ir)
        assert all(statuses[k] == INFEASIBLE for k in pruned)

    # Negated, a vector's entries of the right sign turn negative and are
    # dropped, so what is left must pass the checks by itself.  Scaled, it
    # meets the margin on u b as it should only once rescaled to a largest
    # entry of 1.  Tilted towards the row of least right-hand side, it
    # keeps u b < 0 but breaks u a >= 0.
    @pytest.mark.parametrize("seed", [5, 54])
    @pytest.mark.parametrize("corruption", ["negated", "scaled up",
                                            "scaled down", "tilted"])
    def test_corrupted_farkas_vectors_never_prune_the_optimum(
            self, monkeypatch, seed, corruption):
        """Every Farkas vector the dual simplex returns, warm or fresh, is
        corrupted before the oracle checks and keeps it."""
        ir = planning_model(seed)
        status, objective, statuses = cold_enumeration(ir)
        step = solve_module._dual_simplex

        def corrupted(basis, b):
            answer = step(basis, b)
            if answer is None or answer[0] != INFEASIBLE:
                return answer
            u = answer[1]
            if corruption == "tilted":
                u = u.copy()
                u[np.argmin(b)] += 10.0 * np.abs(u).max()
                return INFEASIBLE, u
            scale = {"negated": -1.0, "scaled up": 1e12,
                     "scaled down": 1e-12}[corruption]
            return INFEASIBLE, scale * u

        monkeypatch.setattr(solve_module, "_dual_simplex", corrupted)
        sol, pruned = certificate_pruned(monkeypatch, ir)
        assert_same_answer(sol, status, objective)
        assert all(statuses[k] == INFEASIBLE for k in pruned)
        if corruption.startswith("scaled"):
            assert pruned

    def test_farkas_check_needs_nonnegative_multipliers(self):
        """On ``x <= 1`` and ``x <= t`` over ``0 <= x <= 2``, (-1, 1, 0)
        meets ``u a >= 0`` and ``u b < 0`` through its negative entry only,
        which proves nothing; with ``t = -0.5``, (0, 3, 0) truly proves the
        LP infeasible, and is kept scaled to a largest entry of 1."""
        for t, u, kept in ((0.7, [-1.0, 1.0, 0.0], None),
                           (-0.5, [0.0, 3.0, 0.0], [0.0, 1.0, 0.0])):
            ir = ModelIR()
            x = ir.add_variable("x", CONTINUOUS, 0.0, 2.0)
            ir.add_row("loose", {x: 1.0}, LE, 1.0)
            ir.add_row("tight", {x: 1.0}, LE, t)
            form = solve_module._StandardForm(
                solve_module._boxed_arrays(ir), pinned=[])
            b, _ = form.rhs(np.zeros((1, 0)))
            certificate = solve_module._farkas_certificate(form, b[0],
                                                           np.array(u))
            if kept is None:
                assert certificate is None
                assert simplex_lp(ir)[0] == OPTIMAL
            else:
                assert certificate.tolist() == kept
                assert simplex_lp(ir)[0] == INFEASIBLE

    def test_objective_is_read_at_every_call(self):
        ir = planning_model(5)
        status, objective, _ = cold_enumeration(ir)
        assert_same_answer(oracle_solve(ir, ORACLE), status, objective)
        flow = ir.variable("flow[E0,p0]").index
        for sign in (1.0, -1.0):
            ir.objective = {flow: sign}
            status, objective, _ = cold_enumeration(ir)
            assert_same_answer(oracle_solve(ir, ORACLE), status, objective)


class TestSolveDispatch:
    def test_routes_by_backend(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 1.0, 2.0)
        ir.objective = {x: 1.0}
        assert solve(ir).backend == "external"
        assert solve(ir, SolveConfig(backend="oracle")).backend == "oracle"
        assert solve(ir).objective == pytest.approx(1.0)

    def test_forwards_sub_mips_to_external_only(self, monkeypatch):
        ir = known_milp()
        seen = []

        def external(ir, config, **kwargs):
            seen.append(kwargs)
            return "external"

        monkeypatch.setattr(solve_module, "external_solve", external)
        assert solve(ir, sub_mips=False) == "external"
        assert solve(ir, fixed={0: 1.0}) == "external"
        assert seen == [{"start": None, "sub_mips": False, "fixed": None},
                        {"start": None, "sub_mips": True, "fixed": {0: 1.0}}]
        oracle = solve(ir, SolveConfig(backend="oracle"), sub_mips=False)
        assert oracle.objective == pytest.approx(-6.0)
        assert len(seen) == 2

    def test_value_requires_solution(self):
        ir = ModelIR()
        x = ir.add_variable("x", CONTINUOUS, 0.0, 1.0)
        ir.add_row("cap", {x: 1.0}, GE, 2.0)
        sol = external_solve(ir)
        with pytest.raises(SolverError, match="no solution values"):
            sol.value(ir, "x")
