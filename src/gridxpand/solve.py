"""Solving layer: an external MILP backend and an enumeration oracle.

The ``external`` backend hands the model to HiGHS and is the one used for
real planning runs.  It drives the ``_Highs`` object that scipy bundles in
``scipy.optimize._highspy._core``, because only that object accepts a MIP
start (``setSolution``); the runner seeds thermal solves through it.  The
module is private to scipy, so it is imported behind a guard: when it is
missing, the backend falls back to :func:`scipy.optimize.milp` and ignores
the start.  Both paths report the proven gap, the dual bound and the node
count.  A start is only an incumbent and never changes the optimum.  The
``oracle`` backend is deliberately independent of it: every assignment of
the free binaries is enumerated and the remaining linear program is solved
by a small two-phase dense simplex written here, with no third-party
optimization code on the path.  Agreement between the two is part of the
test battery, so the oracle favours transparency over speed and refuses
models with more free binaries than the enumeration cap.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize as sopt
import scipy.sparse as sp

from .errors import CyclingGuardError, SolverError
from .ir import BINARY, EQ, GE, LE, ModelIR, Variable

try:  # private to scipy; its shape is pinned by tests/test_solve.py
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # pragma: no cover - depends on the scipy build
    _highs = None

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"
ERROR = "error"

ENUMERATION_HARD_CAP = 24

_SCIPY_STATUS = {0: OPTIMAL, 1: LIMIT, 2: INFEASIBLE, 3: UNBOUNDED, 4: ERROR}
# HiGHS model statuses by name, mapped as scipy's milp maps them; any other
# status is an error.
_HIGHS_STATUS = {"kOptimal": OPTIMAL, "kTimeLimit": LIMIT,
                 "kIterationLimit": LIMIT, "kSolutionLimit": LIMIT,
                 "kInfeasible": INFEASIBLE, "kModelError": INFEASIBLE,
                 "kUnbounded": UNBOUNDED}

_EPS = 1e-9
_BLAND_TRIGGER = 30          # consecutive degenerate pivots before Bland's rule


@dataclass(frozen=True)
class SolveConfig:
    """Knobs shared by both backends.

    ``mip_gap`` and ``time_limit`` only steer the external solver; the
    oracle is exact by construction and checks the wall clock between
    assignments.  ``binary_enumeration_cap`` bounds the oracle's search
    space and may not exceed 2**24 assignments.
    """

    backend: str = "external"
    time_limit: float = 300.0
    mip_gap: float = 1e-9
    binary_enumeration_cap: int = 20

    def __post_init__(self):
        if self.backend not in ("external", "oracle"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.time_limit <= 0:
            raise ValueError(f"time limit must be > 0, got {self.time_limit}")
        if not 0 <= self.mip_gap < 1:
            raise ValueError(f"mip gap must be in [0, 1), got {self.mip_gap}")
        if not 1 <= self.binary_enumeration_cap <= ENUMERATION_HARD_CAP:
            raise ValueError(
                f"enumeration cap must be in [1, {ENUMERATION_HARD_CAP}], "
                f"got {self.binary_enumeration_cap}")


@dataclass
class Solution:
    status: str
    objective: float | None
    values: np.ndarray | None
    runtime: float
    backend: str
    message: str = ""
    mip_gap: float | None = None          # proven relative gap at exit
    mip_dual_bound: float | None = None
    mip_node_count: int | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def value(self, ir: ModelIR, name: str) -> float:
        if self.values is None:
            raise SolverError(f"no solution values available ({self.status})")
        return float(self.values[ir.variable(name).index])


def solve(ir: ModelIR, config: SolveConfig | None = None, *,
          start: np.ndarray | None = None) -> Solution:
    """Dispatch on ``config.backend``; the oracle ignores ``start``."""
    config = config if config is not None else SolveConfig()
    if config.backend == "external":
        return external_solve(ir, config, start=start)
    return oracle_solve(ir, config)


# ---------------------------------------------------------------------------
# External backend (HiGHS via scipy)


def _vacuous_row_ok(rhs: float, sense: str) -> bool:
    if sense == LE:
        return 0.0 <= rhs + 1e-9
    if sense == GE:
        return 0.0 >= rhs - 1e-9
    return abs(rhs) <= 1e-9


def external_solve(ir: ModelIR, config: SolveConfig | None = None, *,
                   start: np.ndarray | None = None,
                   bounds_override: dict[int, tuple[float, float]]
                   | None = None) -> Solution:
    """Solve with HiGHS at ``config.mip_gap`` within ``config.time_limit``.

    ``start`` is a full value vector offered to HiGHS as a MIP start; an
    infeasible start is dropped by HiGHS, and the fallback path without
    scipy's ``_Highs`` ignores it.  ``bounds_override`` replaces the bounds
    of the listed variables, as in :func:`simplex_lp`.
    """
    config = config if config is not None else SolveConfig()
    t0 = time.perf_counter()
    n = ir.num_variables
    if n == 0:
        ok = all(_vacuous_row_ok(row.rhs, row.sense) for row in ir.rows)
        return Solution(OPTIMAL if ok else INFEASIBLE,
                        0.0 if ok else None,
                        np.zeros(0) if ok else None,
                        time.perf_counter() - t0, "external")

    cost = np.zeros(n)
    for idx, coef in ir.objective.items():
        cost[idx] = coef
    integrality = np.array([1 if v.kind == BINARY else 0 for v in ir.variables])
    lower = np.array([v.lower for v in ir.variables])
    upper = np.array([v.upper for v in ir.variables])
    for idx, (lo, hi) in (bounds_override or {}).items():
        lower[idx], upper[idx] = lo, hi

    data, rows_ix, cols_ix = [], [], []
    row_lo = np.empty(len(ir.rows))
    row_hi = np.empty(len(ir.rows))
    for r, row in enumerate(ir.rows):
        for j, a in row.coeffs.items():
            rows_ix.append(r)
            cols_ix.append(j)
            data.append(a)
        if row.sense == LE:
            row_lo[r], row_hi[r] = -np.inf, row.rhs
        elif row.sense == GE:
            row_lo[r], row_hi[r] = row.rhs, np.inf
        else:
            row_lo[r], row_hi[r] = row.rhs, row.rhs
    matrix = sp.csc_array((data, (rows_ix, cols_ix)), shape=(len(ir.rows), n))

    run = _run_highs if _highs is not None else _run_milp
    with _stdout_to_stderr():
        try:
            fields = run(cost, matrix, row_lo, row_hi, lower, upper,
                         integrality, config, start)
        except Exception as exc:  # malformed input surfaced by HiGHS or scipy
            raise SolverError(
                f"external solver rejected the model: {exc}") from exc
    return Solution(runtime=time.perf_counter() - t0, backend="external",
                    **fields)


_redirect_lock = threading.Lock()
_redirect_depth = 0
_saved_stdout_fd = -1


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at file descriptor 2 while HiGHS runs.

    HiGHS 1.12 prints some MIP messages (for example
    ``HighsMipSolverData::transformNewIntegerFeasibleSolution``) straight to
    stdout, past ``log_to_console`` and ``output_flag``.  Redirecting the
    descriptor keeps them out of a program's own output.  Overlapping
    solves in several threads share one redirect; the last one out
    restores stdout.
    """
    global _redirect_depth, _saved_stdout_fd
    with _redirect_lock:
        if _redirect_depth == 0:
            sys.stdout.flush()
            _saved_stdout_fd = os.dup(1)
            os.dup2(2, 1)
        _redirect_depth += 1
    try:
        yield
    finally:
        with _redirect_lock:
            _redirect_depth -= 1
            if _redirect_depth == 0:
                os.dup2(_saved_stdout_fd, 1)
                os.close(_saved_stdout_fd)


def _run_highs(cost, matrix, row_lo, row_hi, lower, upper, integrality,
               config, start) -> dict:
    """One HiGHS run through scipy's private ``_Highs`` object."""
    lp = _highs.HighsLp()
    lp.num_col_ = len(cost)
    lp.num_row_ = len(row_lo)
    lp.col_cost_ = cost
    lp.col_lower_ = lower
    lp.col_upper_ = upper
    lp.row_lower_ = row_lo
    lp.row_upper_ = row_hi
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = len(cost)
    lp.a_matrix_.num_row_ = len(row_lo)
    lp.a_matrix_.start_ = matrix.indptr
    lp.a_matrix_.index_ = matrix.indices
    lp.a_matrix_.value_ = matrix.data
    lp.integrality_ = [_highs.HighsVarType(int(k)) for k in integrality]

    highs = _highs._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("time_limit", float(config.time_limit))
    highs.setOptionValue("mip_rel_gap", float(config.mip_gap))
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverError("HiGHS refused the model")
    if start is not None:
        warm = _highs.HighsSolution()
        warm.col_value = np.asarray(start, dtype=float)
        warm.value_valid = True
        highs.setSolution(warm)
    highs.run()

    model_status = highs.getModelStatus()
    info = highs.getInfo()
    status = _HIGHS_STATUS.get(model_status.name, ERROR)
    feasible = (info.primal_solution_status
                == _highs.SolutionStatus.kSolutionStatusFeasible)
    values = objective = None
    if status in (OPTIMAL, LIMIT) and feasible:
        values = np.array(highs.getSolution().col_value, dtype=float)
        objective = float(info.objective_function_value)
    fields = dict(status=status, objective=objective, values=values,
                  message=highs.modelStatusToString(model_status))
    if integrality.any():
        fields.update(mip_gap=float(info.mip_gap),
                      mip_dual_bound=float(info.mip_dual_bound),
                      mip_node_count=int(info.mip_node_count))
    return fields


def _run_milp(cost, matrix, row_lo, row_hi, lower, upper, integrality,
              config, start) -> dict:
    """One HiGHS run through :func:`scipy.optimize.milp`; no MIP start."""
    constraints = ()
    if matrix.shape[0]:
        constraints = sopt.LinearConstraint(matrix, row_lo, row_hi)
    res = sopt.milp(c=cost, constraints=constraints, integrality=integrality,
                    bounds=sopt.Bounds(lower, upper),
                    options={"time_limit": config.time_limit,
                             "mip_rel_gap": config.mip_gap,
                             "disp": False})
    values = np.asarray(res.x, dtype=float) if res.x is not None else None
    objective = None
    if values is not None and res.fun is not None:
        objective = float(res.fun)
    node_count = res.get("mip_node_count")
    return dict(status=_SCIPY_STATUS.get(res.status, ERROR),
                objective=objective, values=values, message=str(res.message),
                mip_gap=res.get("mip_gap"),
                mip_dual_bound=res.get("mip_dual_bound"),
                mip_node_count=None if node_count is None else int(node_count))


# ---------------------------------------------------------------------------
# Enumeration oracle


def oracle_solve(ir: ModelIR, config: SolveConfig | None = None) -> Solution:
    """Exact reference solve by enumerating free binaries.

    Every assignment fixes the binaries through bound overrides and the
    residual LP goes to :func:`simplex_lp`.  Any unbounded assignment makes
    the whole model unbounded; otherwise the best finite optimum wins and
    infeasibility means no assignment admitted a feasible LP.
    """
    config = config if config is not None else SolveConfig(backend="oracle")
    start = time.perf_counter()
    free = ir.free_binaries()
    if len(free) > config.binary_enumeration_cap:
        raise SolverError(
            f"{len(free)} free binaries exceed the enumeration cap "
            f"{config.binary_enumeration_cap}; use the external backend")

    best_obj = math.inf
    best_x = None
    timed_out = False
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        override = {v.index: (b, b) for v, b in zip(free, bits)}
        status, objective, x = simplex_lp(ir, bounds_override=override)
        if status == UNBOUNDED:
            return Solution(UNBOUNDED, None, None,
                            time.perf_counter() - start, "oracle")
        if status == OPTIMAL and objective < best_obj:
            best_obj, best_x = objective, x
        if time.perf_counter() - start > config.time_limit:
            timed_out = True
            break

    if best_x is None:
        status = LIMIT if timed_out else INFEASIBLE
        return Solution(status, None, None,
                        time.perf_counter() - start, "oracle",
                        message="hit time limit" if timed_out else "")
    status = LIMIT if timed_out else OPTIMAL
    return Solution(status, best_obj, best_x,
                    time.perf_counter() - start, "oracle",
                    message="incumbent at time limit" if timed_out else "")


# LP standard-form transforms, one per model variable:
_CONST = "const"      # fixed value, substituted out
_SHIFT = "shift"      # x = lo + y,      y >= 0
_MIRROR = "mirror"    # x = hi - y,      y >= 0
_SPLIT = "split"      # x = y_pos - y_neg


def simplex_lp(ir: ModelIR, bounds_override: dict[int, tuple[float, float]]
               | None = None) -> tuple[str, float | None, np.ndarray | None]:
    """Solve the model's LP with optional bound overrides, from scratch.

    Hand-rolled two-phase dense simplex: variables are shifted, mirrored or
    split into nonnegative columns, rows gain slack/surplus/artificial
    columns, Dantzig pricing runs until a degeneracy streak switches to
    Bland's rule, and a pivot cap guards against cycling.  Returns
    ``(status, objective, x)`` with ``x`` covering all model variables.
    """
    override = bounds_override if bounds_override is not None else {}

    transforms: list[tuple] = []
    n_cols = 0
    width_rows: list[tuple[int, float]] = []   # (column, upper width)
    for v in ir.variables:
        lo, hi = override.get(v.index, (v.lower, v.upper))
        if lo > hi:
            return INFEASIBLE, None, None
        if lo == hi:
            transforms.append((_CONST, lo))
        elif math.isfinite(lo):
            transforms.append((_SHIFT, n_cols, lo))
            if math.isfinite(hi):
                width_rows.append((n_cols, hi - lo))
            n_cols += 1
        elif math.isfinite(hi):
            transforms.append((_MIRROR, n_cols, hi))
            n_cols += 1
        else:
            transforms.append((_SPLIT, n_cols, n_cols + 1))
            n_cols += 2

    # Rows in the y-space, rhs adjusted for substituted constants.
    work_rows: list[tuple[dict[int, float], str, float]] = []
    for row in ir.rows:
        coeffs: dict[int, float] = {}
        rhs = row.rhs
        for idx, a in row.coeffs.items():
            tr = transforms[idx]
            if tr[0] == _CONST:
                rhs -= a * tr[1]
            elif tr[0] == _SHIFT:
                coeffs[tr[1]] = coeffs.get(tr[1], 0.0) + a
                rhs -= a * tr[2]
            elif tr[0] == _MIRROR:
                coeffs[tr[1]] = coeffs.get(tr[1], 0.0) - a
                rhs -= a * tr[2]
            else:
                coeffs[tr[1]] = coeffs.get(tr[1], 0.0) + a
                coeffs[tr[2]] = coeffs.get(tr[2], 0.0) - a
        coeffs = {j: a for j, a in coeffs.items() if a != 0.0}
        if not coeffs:
            tol = 1e-9 * (1.0 + abs(row.rhs))
            sat = (rhs >= -tol if row.sense == LE
                   else rhs <= tol if row.sense == GE
                   else abs(rhs) <= tol)
            if not sat:
                return INFEASIBLE, None, None
            continue
        work_rows.append((coeffs, row.sense, rhs))
    for col, width in width_rows:
        work_rows.append(({col: 1.0}, LE, width))

    # Objective in y-space.
    obj_const = 0.0
    obj_y = np.zeros(n_cols)
    for idx, coef in ir.objective.items():
        tr = transforms[idx]
        if tr[0] == _CONST:
            obj_const += coef * tr[1]
        elif tr[0] == _SHIFT:
            obj_y[tr[1]] += coef
            obj_const += coef * tr[2]
        elif tr[0] == _MIRROR:
            obj_y[tr[1]] -= coef
            obj_const += coef * tr[2]
        else:
            obj_y[tr[1]] += coef
            obj_y[tr[2]] -= coef

    def reconstruct(y: np.ndarray) -> np.ndarray:
        x = np.empty(len(ir.variables))
        for i, tr in enumerate(transforms):
            if tr[0] == _CONST:
                x[i] = tr[1]
            elif tr[0] == _SHIFT:
                x[i] = tr[2] + y[tr[1]]
            elif tr[0] == _MIRROR:
                x[i] = tr[2] - y[tr[1]]
            else:
                x[i] = y[tr[1]] - y[tr[2]]
        return x

    if not work_rows:
        # Only nonnegativity remains; unbounded iff any payoff for growing y.
        if np.any(obj_y < -_EPS):
            return UNBOUNDED, None, None
        y = np.zeros(n_cols)
        x = reconstruct(y)
        return OPTIMAL, ir.evaluate_objective(x), x

    # Standard form with nonnegative rhs.
    m = len(work_rows)
    n_slack = sum(1 for _, sense, _ in work_rows if sense != EQ)
    senses = []
    b = np.empty(m)
    dense = np.zeros((m, n_cols))
    for r, (coeffs, sense, rhs) in enumerate(work_rows):
        flip = rhs < 0
        for j, a in coeffs.items():
            dense[r, j] = -a if flip else a
        b[r] = -rhs if flip else rhs
        if flip:
            sense = GE if sense == LE else (LE if sense == GE else EQ)
        senses.append(sense)

    total = n_cols + n_slack + m   # worst case: artificials for every row
    tableau = np.zeros((m, total + 1))
    tableau[:, :n_cols] = dense
    tableau[:, -1] = b
    basis = np.empty(m, dtype=int)
    artificial = np.zeros(total, dtype=bool)
    slack_at = n_cols
    art_at = n_cols + n_slack
    n_art = 0
    for r, sense in enumerate(senses):
        if sense == LE:
            tableau[r, slack_at] = 1.0
            basis[r] = slack_at
            slack_at += 1
        elif sense == GE:
            tableau[r, slack_at] = -1.0
            slack_at += 1
            tableau[r, art_at] = 1.0
            artificial[art_at] = True
            basis[r] = art_at
            art_at += 1
            n_art += 1
        else:
            tableau[r, art_at] = 1.0
            artificial[art_at] = True
            basis[r] = art_at
            art_at += 1
            n_art += 1
    used = art_at
    tableau = tableau[:, np.r_[0:used, total]]
    artificial = artificial[:used]

    if n_art:
        phase1_cost = np.where(artificial, 1.0, 0.0)
        status = _pivot_loop(tableau, basis, phase1_cost,
                             allowed=np.ones(used, dtype=bool))
        if status != OPTIMAL:          # phase 1 is bounded below by zero
            raise SolverError("phase-1 simplex did not terminate optimal")
        infeas = float(phase1_cost[basis] @ tableau[:, -1])
        if infeas > 1e-7 * max(1.0, float(np.abs(b).max())):
            return INFEASIBLE, None, None
        # Artificials stuck in the basis at zero level must be pivoted out
        # (any nonzero real column will do; the pivot is degenerate), or
        # phase 2 could silently regrow them.  A row with no real columns
        # left is vacuous and keeps its artificial, which then never moves.
        for r in range(m):
            if not artificial[basis[r]]:
                continue
            cols = np.where(~artificial & (np.abs(tableau[r, :-1]) > _EPS))[0]
            if cols.size == 0:
                continue
            j = int(cols[0])
            pivot_row = tableau[r] / tableau[r, j]
            factors = tableau[:, j].copy()
            factors[r] = 0.0
            tableau -= np.outer(factors, pivot_row)
            tableau[r] = pivot_row
            basis[r] = j

    phase2_cost = np.zeros(used)
    phase2_cost[:n_cols] = obj_y
    status = _pivot_loop(tableau, basis, phase2_cost, allowed=~artificial)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None

    y = np.zeros(used)
    y[basis] = np.maximum(tableau[:, -1], 0.0)
    x = reconstruct(y[:n_cols])
    return OPTIMAL, ir.evaluate_objective(x), x


def _pivot_loop(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray,
                allowed: np.ndarray) -> str:
    """Run simplex pivots in place until optimal or unbounded."""
    m, width = tableau.shape
    n = width - 1
    degenerate_run = 0
    max_pivots = 2000 + 50 * (m + n)
    for _ in range(max_pivots):
        reduced = cost[:n] - cost[basis] @ tableau[:, :n]
        entering = np.where((reduced < -_EPS) & allowed)[0]
        if entering.size == 0:
            return OPTIMAL
        if degenerate_run >= _BLAND_TRIGGER:
            j = int(entering[0])
        else:
            j = int(entering[np.argmin(reduced[entering])])
        col = tableau[:, j]
        positive = col > _EPS
        if not positive.any():
            return UNBOUNDED
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[positive, -1] / col[positive]
        best = float(ratios.min())
        ties = np.where(ratios <= best + _EPS)[0]
        if degenerate_run >= _BLAND_TRIGGER:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[0])
        degenerate_run = degenerate_run + 1 if best < _EPS else 0
        pivot_row = tableau[r] / tableau[r, j]
        factors = tableau[:, j].copy()
        factors[r] = 0.0
        tableau -= np.outer(factors, pivot_row)
        tableau[r] = pivot_row
        basis[r] = j
    raise CyclingGuardError(
        f"simplex exceeded {max_pivots} pivots on a {m}x{n} tableau")
