"""Solving layer: an external MILP backend and an enumeration oracle.

The ``external`` backend hands the model to HiGHS and is the one used for
real planning runs.  It drives the ``_Highs`` object that scipy bundles in
``scipy.optimize._highspy._core``, because only that object accepts a MIP
start (``setSolution``); the runner seeds thermal solves through it.  The
module is private to scipy, and its shape is pinned by the tests.  It is
loaded from its file (:func:`_load_highs`), so the planner runs none of
``scipy.optimize`` or ``scipy.sparse``.  Each
solve reports the proven gap, the dual bound and the node count.  A start
is only an incumbent and never changes the optimum.
Callers that already expect a good incumbent, from root rounding or a
start, may ask for a proof solve (``sub_mips=False``).  It switches off
HiGHS's sub-MIP primal heuristics (RINS, RENS and root reduced cost), which
there spend most of the search re-finding that incumbent, and its root
restarts, which presolve again and redo the root LP and cuts after
reduced-cost fixing has fixed a few binaries.  Both steer the search only,
never the optimum.

Both backends read the model through one export to arrays
(:func:`_model_arrays`): cost, the row matrix as a compressed sparse row
triple of plain arrays, right-hand sides, row directions and variable
bounds.  HiGHS takes the triple row-wise; the oracle spreads it into
dense rows.

The ``oracle`` backend is deliberately independent of HiGHS: it uses numpy
and nothing else.  It enumerates every assignment of the free binaries and
solves each remaining linear program with a small dense dual simplex
written here.  The model is put in standard form once per call, with the
binaries as constants, so only the right-hand side changes between
assignments.  Every column is boxed, and each is shifted or mirrored so
that its cost is nonnegative; the all-slack basis is then dual feasible,
and the first assignment starts from it.  Each later one starts from the
basis the last solve left, which a dual simplex exit keeps dual feasible
whether that LP was feasible or not.  No warm answer is taken on trust: an
optimum must be feasible in the model's rows and bounds and priced optimal
by its basis's duals, and an infeasibility must come with a Farkas
certificate, both checked against the original arrays.  An answer that
fails its check is solved again from the slack basis.
Once an incumbent exists, each assignment is first priced by the last
basis's duals, sign-corrected, into a lower bound on its LP that holds for
any duals and any right-hand side; an assignment whose bound exceeds the
incumbent by more than its rounding is skipped unsolved, since it could
never replace it.
Agreement between the two backends is part of the test battery, so the
oracle favours transparency over speed and refuses models with more free
binaries than :data:`ENUMERATION_CAP`.
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import CyclingGuardError, SolverError
from .ir import BINARY, EQ, GE, LE, ModelIR

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, without running ``scipy/optimize/__init__.py``.

    That package init loads ``scipy.sparse``, ``scipy.linalg`` and
    ``linprog``, none of which is used here, and takes most of a start-up.
    The compiled module is found in scipy's tree by
    :func:`importlib.util.find_spec`, which imports nothing, and loaded from
    its file under its own name, so a later ``import scipy.optimize`` finds
    it in :data:`sys.modules` and shares the one module object.  When scipy
    imported it first, that object is taken; when its file is not found,
    the plain import serves.
    """
    if _HIGHS_MODULE in sys.modules:
        return sys.modules[_HIGHS_MODULE]
    scipy = importlib.util.find_spec("scipy")
    for location in (scipy and scipy.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "optimize", "_highspy",
                                "_core" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_HIGHS_MODULE,
                                                              path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                sys.modules[_HIGHS_MODULE] = module
                return module
    from scipy.optimize._highspy import _core
    return _core


_highs = _load_highs()

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
LIMIT = "limit"
ERROR = "error"

ENUMERATION_CAP = 20             # free binaries the oracle enumerates

# HiGHS options that ``sub_mips=False`` turns off: the sub-MIP heuristics
# and root restarts.
PROOF_OPTIONS = ("mip_heuristic_run_rins", "mip_heuristic_run_rens",
                 "mip_heuristic_run_root_reduced_cost", "mip_allow_restart")

# HiGHS model statuses by name, mapped as scipy maps them; any other status
# is an error.
_HIGHS_STATUS = {"kOptimal": OPTIMAL, "kTimeLimit": LIMIT,
                 "kIterationLimit": LIMIT, "kSolutionLimit": LIMIT,
                 "kInfeasible": INFEASIBLE, "kModelError": INFEASIBLE,
                 "kUnbounded": UNBOUNDED}

_EPS = 1e-9                  # pivot and pricing tolerance
_BLAND_TRIGGER = 30          # consecutive degenerate pivots before Bland's rule
_FARKAS_TOL = 1e-7           # Farkas margin -u b (relative to |b|) = infeasible
# Tolerances of the certificates of warm answers, relative to the size of
# the terms summed.  Reduced costs get the looser one: recomputed from B^-1
# they carry its rounding, up to 2.4e-8 of their scale on small planning
# models, where row residuals stay below 1e-12 and duality gaps below 1e-14.
_CERT_TOL = 1e-9             # row residuals, duality gap, Farkas row sums
_CERT_DUAL_TOL = 1e-7        # reduced costs
_DIRECTION = {LE: 1.0, GE: -1.0, EQ: 0.0}   # row senses in the model arrays


@dataclass(frozen=True)
class SolveConfig:
    """Knobs shared by both backends.

    ``mip_gap`` only steers the external solver; the oracle is exact by
    construction and checks ``time_limit`` on the wall clock between
    assignments.
    """

    backend: str = "external"
    time_limit: float = 300.0
    mip_gap: float = 1e-9

    def __post_init__(self):
        if self.backend not in ("external", "oracle"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not self.time_limit > 0:
            raise ValueError(f"time limit must be > 0, got {self.time_limit}")
        if not 0 <= self.mip_gap < 1:
            raise ValueError(f"mip gap must be in [0, 1), got {self.mip_gap}")


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

    def value(self, ir: ModelIR, name: str) -> float:
        if self.values is None:
            raise SolverError(f"no solution values available ({self.status})")
        return float(self.values[ir.variable(name).index])


def solve(ir: ModelIR, config: SolveConfig | None = None, *,
          start: dict[int, float] | None = None,
          sub_mips: bool = True) -> Solution:
    """Dispatch on ``config.backend``; the oracle ignores ``start`` and
    ``sub_mips``."""
    config = config if config is not None else SolveConfig()
    if config.backend == "external":
        return external_solve(ir, config, start=start, sub_mips=sub_mips)
    return oracle_solve(ir, config)


# ---------------------------------------------------------------------------
# External backend (HiGHS through scipy's private binding)


def external_solve(ir: ModelIR, config: SolveConfig | None = None, *,
                   start: dict[int, float] | None = None,
                   sub_mips: bool = True) -> Solution:
    """Solve with HiGHS at ``config.mip_gap`` within ``config.time_limit``.

    ``start`` holds values for some or all columns, by index, and is offered
    to HiGHS as a MIP start; HiGHS completes a partial start by an LP over
    the other columns and drops a start it cannot complete.
    ``sub_mips=False`` makes it a proof solve: it switches off the options
    in :data:`PROOF_OPTIONS`, HiGHS's sub-MIP heuristics and its root
    restarts.  That changes how fast the optimum is found and proved, not
    the optimum.  The default leaves every search option at HiGHS's own
    value.
    """
    config = config if config is not None else SolveConfig()
    t0 = time.perf_counter()
    n = ir.num_variables
    model = _model_arrays(ir)
    if n == 0:
        ok = bool(np.all(_violation(model.direction, model.rhs) <= 1e-9))
        return Solution(OPTIMAL if ok else INFEASIBLE,
                        0.0 if ok else None,
                        np.zeros(0) if ok else None,
                        time.perf_counter() - t0, "external")

    integrality = np.array([1 if v.kind == BINARY else 0 for v in ir.variables])
    with _stdout_to_stderr():
        try:
            lp = _highs.HighsLp()
            lp.num_col_ = lp.a_matrix_.num_col_ = n
            lp.num_row_ = lp.a_matrix_.num_row_ = ir.num_rows
            lp.col_cost_ = model.cost
            lp.col_lower_ = model.lower
            lp.col_upper_ = model.upper
            lp.row_lower_ = np.where(model.direction <= 0.0, model.rhs,
                                     -np.inf)
            lp.row_upper_ = np.where(model.direction >= 0.0, model.rhs,
                                     np.inf)
            lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
            lp.a_matrix_.start_ = model.indptr
            lp.a_matrix_.index_ = model.indices
            lp.a_matrix_.value_ = model.data
            lp.integrality_ = [_highs.HighsVarType(int(k))
                               for k in integrality]

            highs = _highs._Highs()
            highs.setOptionValue("log_to_console", False)
            highs.setOptionValue("time_limit", float(config.time_limit))
            highs.setOptionValue("mip_rel_gap", float(config.mip_gap))
            if not sub_mips:
                for name in PROOF_OPTIONS:
                    if (highs.setOptionValue(name, False)
                            != _highs.HighsStatus.kOk):
                        raise SolverError(f"HiGHS refused option {name}")
            if highs.passModel(lp) == _highs.HighsStatus.kError:
                raise SolverError("HiGHS refused the model")
            if start is not None:
                highs.setSolution(len(start),
                                  np.fromiter(start, dtype=np.int32),
                                  np.fromiter(start.values(), dtype=float))
            highs.run()
            model_status = highs.getModelStatus()
            info = highs.getInfo()
        except SolverError:
            raise
        except Exception as exc:  # malformed input surfaced by HiGHS
            raise SolverError(
                f"external solver rejected the model: {exc}") from exc

    status = _HIGHS_STATUS.get(model_status.name, ERROR)
    feasible = (info.primal_solution_status
                == _highs.SolutionStatus.kSolutionStatusFeasible)
    values = objective = None
    if status in (OPTIMAL, LIMIT) and feasible:
        values = np.array(highs.getSolution().col_value, dtype=float)
        objective = float(info.objective_function_value)
    solution = Solution(status, objective, values,
                        time.perf_counter() - t0, "external",
                        highs.modelStatusToString(model_status))
    if integrality.any():
        solution.mip_gap = float(info.mip_gap)
        solution.mip_dual_bound = float(info.mip_dual_bound)
        solution.mip_node_count = int(info.mip_node_count)
    return solution


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


# ---------------------------------------------------------------------------
# Enumeration oracle


def oracle_solve(ir: ModelIR, config: SolveConfig | None = None) -> Solution:
    """Exact reference solve by enumerating free binaries.

    The model becomes one :class:`_StandardForm` per call, with the free
    binaries as constants, so an assignment changes only the right-hand
    side.  Every assignment's LP is solved by dual simplex
    (:func:`_dual_simplex`) from the basis the last solved assignment left,
    feasible or not; only the first starts from the all-slack basis.  A
    warm answer counts only with a certificate checked against the form's
    arrays; otherwise that assignment is solved again from the slack basis.
    With an incumbent and a basis at hand, an assignment is first priced by
    :class:`_DualBound` and skipped when its bound proves that it cannot
    beat the incumbent; the bound is valid for any duals, so a skipped
    assignment is never one that would have won.  The best optimum wins,
    and infeasibility means no assignment admitted a feasible LP.  Every
    variable that is neither fixed nor a free binary must have two finite
    bounds, or :class:`SolverError` names it.  ``ir.objective`` is read at
    every call.
    """
    config = config if config is not None else SolveConfig(backend="oracle")
    start = time.perf_counter()
    free = ir.free_binaries()
    if len(free) > ENUMERATION_CAP:
        raise SolverError(
            f"{len(free)} free binaries exceed the enumeration cap "
            f"{ENUMERATION_CAP}; use the external backend")

    form = _StandardForm(_boxed_arrays(ir), pinned=[v.index for v in free])
    basis = None
    bound = None                 # priced from ``basis``, again after a solve
    best_obj = math.inf
    best_x = None
    timed_out = False
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        bits = np.array(bits)
        b = form.rhs(bits)
        if b is not None and best_x is not None:
            if bound is None:
                bound = _DualBound(form, basis)
            if bound.prunes(bits, b, best_obj):
                b = None             # cannot beat the incumbent
        if b is not None:
            status, y, basis = _assignment(form, bits, b, basis)
            bound = None
            if status == OPTIMAL:
                x = form.point(y, bits)
                objective = float(form.model_cost @ x)
                if objective < best_obj:
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


def simplex_lp(ir: ModelIR, bounds_override: dict[int, tuple[float, float]]
               | None = None) -> tuple[str, float | None, np.ndarray | None]:
    """Solve the model's LP with optional bound overrides, from scratch.

    Hand-rolled dense dual simplex on the model's :class:`_StandardForm`,
    from its all-slack basis, with no third-party optimization code on the
    path: Dantzig pricing runs until a degeneracy streak switches to
    Bland's rule, and a pivot cap guards against cycling.  Un-pinned
    binaries take their relaxed box, and every other variable that is not
    fixed must have two finite bounds, or :class:`SolverError` names it.
    Returns ``(status, objective, x)`` with ``x`` covering all model
    variables.
    """
    model = _boxed_arrays(ir, bounds_override)
    if np.any(model.lower > model.upper):
        return INFEASIBLE, None, None
    form = _StandardForm(model, pinned=[])
    bits = np.zeros(0)
    b = form.rhs(bits)
    if b is None:
        return INFEASIBLE, None, None
    status, y, _ = _assignment(form, bits, b, None)
    if status != OPTIMAL:
        return status, None, None
    x = form.point(y, bits)
    return OPTIMAL, float(form.model_cost @ x), x


class _ModelArrays(NamedTuple):
    """A model as arrays: row ``r`` reads ``data[k] * x[indices[k]]``,
    summed over ``k`` in ``indptr[r]:indptr[r + 1]`` (a compressed sparse
    row matrix), against ``rhs[r]`` in the sense of ``direction[r]``
    (``<=`` 1, ``>=`` -1, ``=`` 0)."""

    cost: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: np.ndarray
    direction: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def _model_arrays(ir: ModelIR, override: dict[int, tuple[float, float]]
                  | None = None) -> _ModelArrays:
    """The model's arrays, with ``override``'s bounds replaced."""
    n = ir.num_variables
    cost = np.zeros(n)
    cost[list(ir.objective)] = list(ir.objective.values())
    indptr = np.zeros(ir.num_rows + 1, dtype=np.int64)
    np.cumsum([len(row.coeffs) for row in ir.rows], out=indptr[1:])
    indices = np.fromiter(itertools.chain.from_iterable(
        row.coeffs for row in ir.rows), dtype=np.int64, count=indptr[-1])
    data = np.fromiter(itertools.chain.from_iterable(
        row.coeffs.values() for row in ir.rows), dtype=float,
        count=indptr[-1])
    rhs = np.array([row.rhs for row in ir.rows], dtype=float)
    direction = np.array([_DIRECTION[row.sense] for row in ir.rows],
                         dtype=float)
    lower = np.array([v.lower for v in ir.variables], dtype=float)
    upper = np.array([v.upper for v in ir.variables], dtype=float)
    for idx, (lo, hi) in (override or {}).items():
        lower[idx], upper[idx] = lo, hi
    return _ModelArrays(cost, indptr, indices, data, rhs, direction, lower,
                        upper)


def _boxed_arrays(ir: ModelIR, override: dict[int, tuple[float, float]]
                  | None = None) -> _ModelArrays:
    """:func:`_model_arrays`, refused with :class:`SolverError` when a
    variable whose bounds do not meet has an infinite one: the oracle
    solves boxed columns only."""
    model = _model_arrays(ir, override)
    open_ = ((model.lower != model.upper)
             & ~(np.isfinite(model.lower) & np.isfinite(model.upper)))
    if open_.any():
        v = ir.variables[int(np.argmax(open_))]
        raise SolverError(
            f"variable {v.name} has bounds [{model.lower[v.index]}, "
            f"{model.upper[v.index]}]; the oracle needs every column boxed")
    return model


def _violation(direction: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """How far ``rhs - activity`` (``slack``) breaks each row's sense."""
    return np.where(direction == 0.0, np.abs(slack), -direction * slack)


class _StandardForm:
    """A model's LP, from :func:`_model_arrays`, as dense rows
    ``a y <= b`` over columns ``y >= 0`` with nonnegative costs.

    Variables whose bounds meet, and the ``pinned`` ones, are constants and
    leave the matrix.  The rest must be boxed.  Each is shifted
    (``x = lo + y``) when its cost is nonnegative and mirrored
    (``x = hi - y``) when it is negative, so no cost in ``y`` is negative,
    and each gets a row ``y <= hi - lo``; ``width`` holds that width per
    column.  ``>=`` rows are negated and each ``=`` row enters once with
    each sign.  Model rows left with no column are only tested, in
    :meth:`rhs`.  Only the right-hand side depends on the values of the
    pinned variables, so one form serves every assignment of them.  The
    model's own rows, bounds and costs are kept too, for checking answers
    in the model's terms.
    """

    def __init__(self, model: _ModelArrays, pinned: list[int]):
        dense = np.zeros((model.rhs.size, model.cost.size))
        np.add.at(dense, (np.repeat(np.arange(model.rhs.size),
                                    np.diff(model.indptr)), model.indices),
                  model.data)
        self.model_rows = dense
        self.model_rhs = model.rhs
        self.model_direction = model.direction
        self.model_cost = model.cost
        self.pinned = np.asarray(pinned, dtype=int)
        self.lower, self.upper = model.lower, model.upper

        const = model.lower == model.upper
        const[self.pinned] = True
        mirror = ~const & (model.cost < 0.0)
        self.base = np.where(mirror, model.upper, model.lower)
        self.base[self.pinned] = 0.0
        self.source = np.flatnonzero(~const)
        self.sign = np.where(mirror[self.source], -1.0, 1.0)
        self.width = (model.upper - model.lower)[self.source]

        cols = dense[:, self.source] * self.sign
        base_rhs = model.rhs - dense @ self.base
        empty = ~cols.any(axis=1)
        self._empty_rhs = base_rhs[empty]
        self._empty_pinned = dense[np.ix_(empty, self.pinned)]
        self._empty_direction = model.direction[empty]
        self._empty_tol = 1e-9 * (1.0 + np.abs(model.rhs[empty]))

        upper_rows = np.flatnonzero(~empty & (model.direction >= 0.0))
        lower_rows = np.flatnonzero(~empty & (model.direction <= 0.0))
        rows = np.r_[upper_rows, lower_rows]
        flip = np.r_[np.ones(upper_rows.size), -np.ones(lower_rows.size)]
        live = self.source.size
        self.a = np.vstack([flip[:, None] * cols[rows], np.eye(live)])
        self._rhs = np.r_[flip * base_rhs[rows], self.width]
        self._pinned = np.vstack([
            flip[:, None] * dense[np.ix_(rows, self.pinned)],
            np.zeros((live, self.pinned.size))])
        self.cost = model.cost[self.source] * self.sign
        # The model's cost is constant + pinned_cost @ bits + cost @ y.
        self.constant = float(model.cost @ self.base)
        self.pinned_cost = model.cost[self.pinned]

    def rhs(self, bits: np.ndarray) -> np.ndarray | None:
        """The LP right-hand side for pinned values ``bits``; ``None`` when
        a row with no column is broken."""
        empty = self._empty_rhs - self._empty_pinned @ bits
        if np.any(_violation(self._empty_direction, empty) > self._empty_tol):
            return None
        return self._rhs - self._pinned @ bits

    def point(self, y: np.ndarray, bits) -> np.ndarray:
        """Model values for columns ``y`` and pinned values ``bits``."""
        x = self.base.copy()
        x[self.source] += self.sign * y
        x[self.pinned] = bits
        return x


class _Basis:
    """A dual feasible basis of a form's LP, pivoted in place by
    :func:`_dual_simplex` and kept for the next right-hand side.

    ``tableau`` holds ``B^-1 [a | I | b]`` with the reduced costs as its
    last row, so its slack columns hold ``B^-1``.  A new basis is the
    all-slack one, which is dual feasible because no cost in the form is
    negative.
    """

    def __init__(self, form: _StandardForm):
        m, n = form.a.shape
        self.columns = n              # structural columns, the form's ``y``
        self.tableau = np.zeros((m + 1, n + m + 1))
        self.tableau[:m, :n] = form.a
        self.tableau[:m, n:-1] = np.eye(m)
        self.tableau[m, :n] = form.cost
        self.basis = n + np.arange(m)
        self.cost = np.r_[form.cost, np.zeros(m)]   # of every column

    def inverse(self) -> np.ndarray:
        """``B^-1``, a view into the tableau."""
        return self.tableau[:-1, self.columns:-1]

    def duals(self) -> np.ndarray:
        """``u = c_B B^-1`` of the current basis."""
        return self.cost[self.basis] @ self.inverse()


def _assignment(form: _StandardForm, bits: np.ndarray, b: np.ndarray,
                basis: _Basis | None):
    """Solve the LP of one assignment, with right-hand side ``b``:
    ``(status, y, basis)``.

    From ``basis`` when one is given, and from a fresh slack basis when none
    is or when the answer from it fails its certificate or hits the pivot
    cap.  A fresh answer is final.  The returned ``basis`` is the one to
    carry to the next assignment; a solve pivots it in place.
    """
    if basis is not None:
        answer = _dual_simplex(basis, b)
        if answer is not None:
            status, vector = answer
            if status == OPTIMAL and _optimum_certified(form, basis, bits, b,
                                                        vector):
                return OPTIMAL, vector, basis
            if status == INFEASIBLE and _farkas_certified(form, b, vector):
                return INFEASIBLE, None, basis
    basis = _Basis(form)
    answer = _dual_simplex(basis, b)
    if answer is None:
        raise CyclingGuardError(
            f"dual simplex exceeded {_pivot_cap(basis.tableau)} pivots on a "
            f"{form.a.shape[0]}x{form.a.shape[1]} LP")
    status, vector = answer
    return status, vector if status == OPTIMAL else None, basis


class _DualBound:
    """A lower bound on every assignment's LP, priced from one basis.

    The basis's duals ``u`` lose any positive entry, so ``u a y >= u b``
    holds for every ``y`` that meets the rows ``a y <= b``.  With the
    reduced costs ``r = cost - u a`` and ``y`` inside its box,
    ``cost y >= u b + sum_j min(r_j, 0) w_j``, where ``w_j`` is column
    ``j``'s width.  That holds for any ``u`` and any right-hand side, not
    only at the basis's own optimum (Land & Doig, 1960, bound the
    subproblems of an enumeration; Neumaier & Shcherbina, 2004, make such a
    bound safe from rounding of the duals).  Everything but ``u b`` depends
    on the basis alone, so it is computed once per basis.
    """

    def __init__(self, form: _StandardForm, basis: _Basis):
        u = np.minimum(basis.duals(), 0.0)
        reduced = form.cost - u @ form.a
        self.form = form
        self.u = u
        self.abs_u = np.abs(u)
        self.floor = form.constant + float(np.minimum(reduced, 0.0)
                                           @ form.width)

    def prunes(self, bits: np.ndarray, b: np.ndarray,
               incumbent: float) -> bool:
        """Whether the model's cost under ``bits`` provably exceeds
        ``incumbent``, by more than the rounding the bound can carry."""
        bound = self.floor + self.form.pinned_cost @ bits + self.u @ b
        return bool(bound - incumbent > _CERT_TOL * (
            1.0 + abs(incumbent) + self.abs_u @ np.abs(b)))


def _dual_simplex(basis: _Basis, b: np.ndarray):
    """Re-solve from ``basis``, which is dual feasible, for right-hand side
    ``b``.

    Dual simplex pivots run in place until every basic value is
    nonnegative (``(OPTIMAL, y)``) or a short row has no column to enter
    (``(INFEASIBLE, u)``, with ``u`` that row of ``B^-1``: a Farkas
    certificate).  The leaving row is the most negative one, and the
    entering column the first of least ratio, until a streak of degenerate
    pivots switches to Bland's rule.  Returns ``None`` at the pivot cap.
    """
    tableau, rows = basis.tableau, basis.basis
    m = rows.size
    tableau[:m, -1] = basis.inverse() @ b
    degenerate_run = 0
    for _ in range(_pivot_cap(tableau)):
        beta = tableau[:m, -1]
        short = np.flatnonzero(beta < -_EPS)
        if short.size == 0:
            y = np.zeros(tableau.shape[1] - 1)
            y[rows] = np.maximum(beta, 0.0)
            return OPTIMAL, y[:basis.columns]
        if degenerate_run >= _BLAND_TRIGGER:
            r = int(short[np.argmin(rows[short])])
        else:
            r = int(short[np.argmin(beta[short])])
        row = tableau[r, :-1]
        entering = np.flatnonzero(row < -_EPS)
        if entering.size == 0:
            return INFEASIBLE, basis.inverse()[r].copy()
        ratios = tableau[m, entering] / -row[entering]
        best = float(ratios.min())
        j = int(entering[np.flatnonzero(ratios <= best + _EPS)[0]])
        degenerate_run = degenerate_run + 1 if best < _EPS else 0
        _pivot(tableau, rows, r, j)
    return None


def _optimum_certified(form: _StandardForm, basis: _Basis,
                       bits: np.ndarray, b: np.ndarray, y: np.ndarray) -> bool:
    """Whether ``y`` is an optimum, checked against the form's own arrays.

    The point must satisfy the model's rows and bounds.  The duals
    ``u = c_B B^-1`` of the basis must price every column and slack
    nonnegatively, and their bound ``u b`` must meet the point's cost.
    """
    x = form.point(y, bits)
    act = form.model_rows @ x
    scale = 1.0 + np.abs(form.model_rhs) + np.abs(form.model_rows) @ np.abs(x)
    if np.any(_violation(form.model_direction, form.model_rhs - act)
              > _CERT_TOL * scale):
        return False
    box = _CERT_TOL * (1.0 + np.abs(x))
    if np.any(x < form.lower - box) or np.any(x > form.upper + box):
        return False
    u = basis.duals()
    reduced = form.cost - u @ form.a
    if np.any(reduced < -_CERT_DUAL_TOL * (1.0 + np.abs(form.cost)
                                           + np.abs(u) @ np.abs(form.a))):
        return False
    if np.any(u > _CERT_DUAL_TOL * (1.0 + np.abs(u))):
        return False
    gap = form.cost @ y - u @ b
    return gap <= _CERT_TOL * (1.0 + np.abs(form.cost) @ np.abs(y)
                               + np.abs(u) @ np.abs(b))


def _farkas_certified(form: _StandardForm, b: np.ndarray,
                      u: np.ndarray) -> bool:
    """Whether row multipliers ``u`` prove ``a y <= b, y >= 0``
    infeasible: ``u >= 0``, ``u a >= 0`` and ``u b < 0``, so no ``y`` can
    meet the rows.

    Negative entries are dropped first.  With ``u`` scaled to a largest
    entry of 1, ``-u b`` is a lower bound on the summed violation of the
    rows at any ``y >= 0``, so it must exceed :data:`_FARKAS_TOL` relative
    to ``b``: a smaller one could be rounding.
    """
    u = np.maximum(u, 0.0)
    size = float(u.max(initial=0.0))
    if size == 0.0:
        return False
    u = u / size
    if u @ b >= -_FARKAS_TOL * max(1.0, float(np.abs(b).max())):
        return False
    return bool(np.all(u @ form.a >= -_CERT_TOL * (1.0 + u @ np.abs(form.a))))


def _pivot_cap(tableau: np.ndarray) -> int:
    """Pivots allowed on ``tableau`` (rows and columns include the
    objective row and the right-hand side)."""
    rows, width = tableau.shape
    return 2000 + 50 * (rows - 1 + width - 1)


def _pivot(tableau: np.ndarray, basis: np.ndarray, r: int, j: int) -> None:
    """Pivot in place on ``tableau[r, j]``; ``j`` enters the basis at ``r``."""
    pivot_row = tableau[r] / tableau[r, j]
    factors = tableau[:, j].copy()
    factors[r] = 0.0
    tableau -= np.outer(factors, pivot_row)
    tableau[r] = pivot_row
    basis[r] = j
