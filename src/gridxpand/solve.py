"""Solving layer: an external MILP backend and an enumeration oracle.

The ``external`` backend hands the model to HiGHS and is the one used for
real planning runs.  It drives the ``_Highs`` object that scipy bundles in
``scipy.optimize._highspy._core``, because only that object accepts a MIP
start (``setSolution``); the runner seeds thermal solves through it.  The
module is private to scipy, and its shape is pinned by the tests.  Each
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
(:func:`_model_arrays`): cost, a sparse row matrix, right-hand sides, row
directions and variable bounds.

The ``oracle`` backend is deliberately independent of HiGHS: it uses numpy
and nothing else.  It enumerates every assignment of the free binaries and
solves each remaining linear program with a small dense simplex written
here.  The model is put in standard form once per call, with the binaries
as constants, so only the right-hand side changes between assignments.
Until one of them has a feasible LP, each is solved from scratch by a
two-phase primal simplex; after that, each starts from the last optimal
basis, which stays dual feasible, and runs dual simplex pivots.  No warm
answer is taken on trust: an optimum must be feasible in the model's rows
and bounds and priced optimal by its basis's duals, and an infeasibility
must come with a Farkas certificate, both checked against the original
arrays.  An answer that fails its check is solved again from scratch.
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
import itertools
import math
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _highs

from .errors import CyclingGuardError, SolverError
from .ir import BINARY, EQ, GE, LE, ModelIR

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
_PHASE1_TOL = 1e-7           # phase-1 residual (relative to |b|) = infeasible
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

    matrix = model.matrix.tocsc()
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
            lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
            lp.a_matrix_.start_ = matrix.indptr
            lp.a_matrix_.index_ = matrix.indices
            lp.a_matrix_.value_ = matrix.data
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
    side.  Until some assignment has a feasible LP, each is solved cold by
    the two-phase simplex; after that, each starts from the last optimal
    basis and runs dual simplex pivots (:func:`_dual_simplex`).  A warm
    answer counts only with a certificate checked against the form's
    arrays; otherwise that assignment is solved cold.  With an incumbent
    and a basis at hand, an assignment is first priced by
    :class:`_DualBound` and skipped when its bound proves that it cannot
    beat the incumbent; the bound is valid for any duals, so a skipped
    assignment is never one that would have won.  Any unbounded
    assignment makes the whole model unbounded (a finite bound proves an
    assignment bounded); otherwise the best finite optimum wins and
    infeasibility means no assignment admitted a feasible LP.
    ``ir.objective`` is read at every call.
    """
    config = config if config is not None else SolveConfig(backend="oracle")
    start = time.perf_counter()
    free = ir.free_binaries()
    if len(free) > ENUMERATION_CAP:
        raise SolverError(
            f"{len(free)} free binaries exceed the enumeration cap "
            f"{ENUMERATION_CAP}; use the external backend")

    form = _StandardForm(_model_arrays(ir),
                         pinned=[v.index for v in free])
    warm = None
    bound = None                 # priced from ``warm``, again after a solve
    best_obj = math.inf
    best_x = None
    timed_out = False
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        bits = np.array(bits)
        b = form.rhs(bits)
        if b is not None and best_x is not None and warm is not None:
            if bound is None:
                bound = _DualBound(form, warm)
            if bound.prunes(bits, b, best_obj):
                b = None             # cannot beat the incumbent
        if b is not None:
            status, y, warm = _assignment(form, bits, b, warm)
            bound = None
            if status == UNBOUNDED:
                return Solution(UNBOUNDED, None, None,
                                time.perf_counter() - start, "oracle")
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

    Hand-rolled two-phase dense simplex on the model's
    :class:`_StandardForm`, with no third-party optimization code on the
    path: rows gain slack/surplus/artificial columns, Dantzig pricing runs
    until a degeneracy streak switches to Bland's rule, and a pivot cap
    guards against cycling.  Un-pinned binaries take their relaxed box.
    Returns ``(status, objective, x)`` with ``x`` covering all model
    variables.
    """
    model = _model_arrays(ir, bounds_override)
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
    """A model as arrays: row ``r`` reads ``matrix[r] @ x`` against
    ``rhs[r]`` in the sense of ``direction[r]`` (``<=`` 1, ``>=`` -1,
    ``=`` 0)."""

    cost: np.ndarray
    matrix: sp.csr_array
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
    matrix = sp.csr_array((data, indices, indptr), shape=(ir.num_rows, n))
    rhs = np.array([row.rhs for row in ir.rows], dtype=float)
    direction = np.array([_DIRECTION[row.sense] for row in ir.rows],
                         dtype=float)
    lower = np.array([v.lower for v in ir.variables], dtype=float)
    upper = np.array([v.upper for v in ir.variables], dtype=float)
    for idx, (lo, hi) in (override or {}).items():
        lower[idx], upper[idx] = lo, hi
    return _ModelArrays(cost, matrix, rhs, direction, lower, upper)


def _violation(direction: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """How far ``rhs - activity`` (``slack``) breaks each row's sense."""
    return np.where(direction == 0.0, np.abs(slack), -direction * slack)


class _StandardForm:
    """A model's LP, from :func:`_model_arrays`, as dense arrays over
    nonnegative columns ``y``.

    Variables whose bounds meet, and the ``pinned`` ones, are constants and
    leave the matrix.  The rest are shifted (``x = lo + y``), mirrored
    (``x = hi - y``) or split (``x = y+ - y-``), and each shifted variable
    with a finite width gets a row ``y <= hi - lo``; ``width`` holds that
    width per column, infinite for the others.  Model rows left with
    no column are only tested, in :meth:`rhs`.  Only the right-hand side
    depends on the values of the pinned variables, so one form serves every
    assignment of them.  The model's own rows, bounds and costs are kept
    too, for checking answers in the model's terms.
    """

    def __init__(self, model: _ModelArrays, pinned: list[int]):
        dense = model.matrix.toarray()
        lower, upper = model.lower, model.upper
        self.model_rows = dense
        self.model_rhs = model.rhs
        self.model_direction = model.direction
        self.model_cost = model.cost
        self.pinned = np.asarray(pinned, dtype=int)
        self.lower, self.upper = lower, upper

        const = lower == upper
        const[self.pinned] = True
        shift = ~const & np.isfinite(lower)
        mirror = ~const & ~shift & np.isfinite(upper)
        split = ~const & ~shift & ~mirror
        self.base = np.where(shift | const, lower,
                             np.where(mirror, upper, 0.0))
        self.base[self.pinned] = 0.0
        live = np.flatnonzero(~const)
        self.source = np.repeat(live, np.where(split[live], 2, 1))
        self.sign = np.repeat(np.where(mirror[live], -1.0, 1.0),
                              np.where(split[live], 2, 1))
        self.sign[1:][self.source[1:] == self.source[:-1]] = -1.0

        cols = dense[:, self.source] * self.sign
        base_rhs = self.model_rhs - dense @ self.base
        empty = ~cols.any(axis=1)
        self._empty_rhs = base_rhs[empty]
        self._empty_pinned = dense[np.ix_(empty, self.pinned)]
        self._empty_direction = self.model_direction[empty]
        self._empty_tol = 1e-9 * (1.0 + np.abs(self.model_rhs[empty]))

        boxed = np.flatnonzero(shift[self.source] & np.isfinite(
            upper[self.source]))
        width = np.zeros((boxed.size, self.source.size))
        width[np.arange(boxed.size), boxed] = 1.0
        self.a = np.vstack([cols[~empty], width])
        self.direction = np.r_[self.model_direction[~empty],
                               np.ones(boxed.size)]
        self._rhs = np.r_[base_rhs[~empty],
                          (upper - lower)[self.source[boxed]]]
        self._pinned = np.vstack([dense[np.ix_(~empty, self.pinned)],
                                  np.zeros((boxed.size, self.pinned.size))])
        self.width = np.full(self.source.size, np.inf)
        self.width[boxed] = (upper - lower)[self.source[boxed]]
        self.cost = self.model_cost[self.source] * self.sign
        # The model's cost is constant + pinned_cost @ bits + cost @ y.
        self.constant = float(self.model_cost @ self.base)
        self.pinned_cost = self.model_cost[self.pinned]

    def rhs(self, bits: np.ndarray) -> np.ndarray | None:
        """The LP right-hand side for pinned values ``bits``; ``None`` when
        a row with no column is broken."""
        empty = self._empty_rhs - self._empty_pinned @ bits
        if np.any(_violation(self._empty_direction, empty) > self._empty_tol):
            return None
        return self._rhs - self._pinned @ bits

    def point(self, y: np.ndarray, bits) -> np.ndarray:
        """Model values for columns ``y`` and pinned values ``bits``."""
        x = self.base + np.bincount(self.source, weights=self.sign * y,
                                    minlength=self.base.size)
        x[self.pinned] = bits
        return x


@dataclass
class _WarmBasis:
    """An optimal tableau kept for re-solving under a new right-hand side.

    ``tableau`` holds ``B^-1 [A | slacks | artificials | b]`` for rows
    multiplied by ``flip`` (the cold solve made its right-hand side
    nonnegative), with the reduced costs as its last row.  Column
    ``identity[r]`` formed row ``r``'s unit column at the start, so
    ``tableau[:m, identity]`` is ``B^-1``.  ``allowed`` marks the columns
    that may enter: every one but the artificials.
    """

    tableau: np.ndarray
    basis: np.ndarray
    flip: np.ndarray
    identity: np.ndarray
    allowed: np.ndarray
    cost: np.ndarray              # phase-2 cost of every tableau column
    columns: int                  # structural columns, the form's ``y``

    def duals(self) -> np.ndarray:
        """``u = c_B B^-1`` of the current basis, in the form's row
        orientation."""
        m = self.basis.size
        return self.flip * (self.cost[self.basis]
                            @ self.tableau[:m, self.identity])


def _assignment(form: _StandardForm, bits: np.ndarray, b: np.ndarray,
                warm: _WarmBasis | None):
    """Solve the LP of one assignment, with right-hand side ``b``:
    ``(status, y, warm)``.

    Warm when a basis is at hand, cold otherwise or when the warm answer
    fails its certificate.  The returned ``warm`` is the basis to carry to
    the next assignment; a warm solve pivots the given one in place.
    """
    if warm is not None:
        answer = _dual_simplex(warm, b)
        if answer is not None:
            status, vector = answer
            if status == OPTIMAL and _optimum_certified(form, warm, bits, b,
                                                        vector):
                return OPTIMAL, vector, warm
            if status == INFEASIBLE and _farkas_certified(form, b, vector):
                return INFEASIBLE, None, warm
    return _cold_solve(form.a, form.direction, b, form.cost)


class _DualBound:
    """A lower bound on every assignment's LP, priced from one basis.

    The basis's duals ``u`` lose any entry of the wrong sign for its row,
    so ``u a y >= u b`` holds for every ``y`` that meets the rows.  With the
    reduced costs ``r = cost - u a`` and ``y`` inside its box,
    ``cost y >= u b + sum_j min(r_j, 0) w_j``, where ``w_j`` is column
    ``j``'s width.  That holds for any ``u`` and any right-hand side, not
    only at the basis's own optimum (Land & Doig, 1960, bound the
    subproblems of an enumeration; Neumaier & Shcherbina, 2004, make such a
    bound safe from rounding of the duals).  A basis with a negative
    reduced cost on a column of unbounded width gives no bound.
    Everything but ``u b`` depends on the basis alone, so it is computed
    once per basis.
    """

    def __init__(self, form: _StandardForm, warm: _WarmBasis):
        u = warm.duals()
        u = np.where(form.direction * u > 0.0, 0.0, u)
        reduced = form.cost - u @ form.a
        negative = reduced < 0.0
        self.form = form
        self.u = u
        self.abs_u = np.abs(u)
        # -inf, so nothing is pruned, when a negative reduced cost sits on
        # a column of unbounded width.
        self.floor = form.constant + float(reduced[negative]
                                           @ form.width[negative])

    def prunes(self, bits: np.ndarray, b: np.ndarray,
               incumbent: float) -> bool:
        """Whether the model's cost under ``bits`` provably exceeds
        ``incumbent``, by more than the rounding the bound can carry."""
        bound = self.floor + self.form.pinned_cost @ bits + self.u @ b
        return bool(bound - incumbent > _CERT_TOL * (
            1.0 + abs(incumbent) + self.abs_u @ np.abs(b)))


def _cold_solve(a: np.ndarray, direction: np.ndarray, b: np.ndarray,
                cost: np.ndarray):
    """Two-phase primal simplex on ``a y (direction) b, y >= 0``.

    Returns ``(status, y, warm)``; ``warm`` is the final tableau when the
    LP is optimal and ``None`` otherwise.
    """
    m, n = a.shape
    if m == 0:
        # Only nonnegativity remains; unbounded iff any payoff for growing y.
        if np.any(cost < -_EPS):
            return UNBOUNDED, None, None
        return OPTIMAL, np.zeros(n), None

    # Rows with a negative right-hand side are negated, which swaps <= and
    # >=.  A <= row starts basic in its slack, the others in an artificial.
    flip = np.where(b < 0, -1.0, 1.0)
    sense = direction * flip
    slack_rows = np.flatnonzero(sense != 0.0)
    art_rows = np.flatnonzero(sense <= 0.0)
    n_slack, n_art = slack_rows.size, art_rows.size
    used = n + n_slack + n_art
    tableau = np.zeros((m + 1, used + 1))
    tableau[:m, :n] = a * flip[:, None]
    tableau[:m, -1] = b * flip
    slack_cols = n + np.arange(n_slack)
    art_cols = n + n_slack + np.arange(n_art)
    tableau[slack_rows, slack_cols] = sense[slack_rows]
    tableau[art_rows, art_cols] = 1.0
    identity = np.empty(m, dtype=int)
    identity[slack_rows] = slack_cols
    identity[art_rows] = art_cols
    basis = identity.copy()
    artificial = np.zeros(used, dtype=bool)
    artificial[art_cols] = True

    if n_art:
        tableau[m] = -tableau[art_rows].sum(axis=0)
        tableau[m, art_cols] += 1.0
        status = _pivot_loop(tableau, basis, np.ones(used, dtype=bool))
        if status != OPTIMAL:          # phase 1 is bounded below by zero
            raise SolverError("phase-1 simplex did not terminate optimal")
        infeas = float(tableau[:m, -1][artificial[basis]].sum())
        if infeas > _PHASE1_TOL * max(1.0, float(np.abs(b).max())):
            return INFEASIBLE, None, None
        # Artificials stuck in the basis at zero level must be pivoted out
        # (any nonzero real column will do; the pivot is degenerate), or
        # phase 2 could silently regrow them.  A row with no real columns
        # left is vacuous and keeps its artificial, which then never moves.
        for r in range(m):
            if not artificial[basis[r]]:
                continue
            cols = np.flatnonzero(~artificial
                                  & (np.abs(tableau[r, :-1]) > _EPS))
            if cols.size:
                _pivot(tableau, basis, r, int(cols[0]))

    full_cost = np.zeros(used)
    full_cost[:n] = cost
    tableau[m, :-1] = full_cost - full_cost[basis] @ tableau[:m, :-1]
    if _pivot_loop(tableau, basis, ~artificial) == UNBOUNDED:
        return UNBOUNDED, None, None
    y = np.zeros(used)
    y[basis] = np.maximum(tableau[:m, -1], 0.0)
    return OPTIMAL, y[:n], _WarmBasis(tableau, basis, flip, identity,
                                      ~artificial, full_cost, n)


def _dual_simplex(warm: _WarmBasis, b: np.ndarray):
    """Re-solve from ``warm``'s dual feasible basis for right-hand side ``b``.

    Dual simplex pivots, with the same Dantzig choice and Bland guard as
    the primal loop, run in place until every basic value is nonnegative
    (``(OPTIMAL, y)``) or a short row has no column to enter
    (``(INFEASIBLE, u)``, with ``u`` that row of ``B^-1`` in the form's row
    orientation: a Farkas certificate).  A basic artificial sits in a row
    with no real column, so a nonzero level there is a certificate too.
    Returns ``None`` at the pivot cap.
    """
    tableau, basis = warm.tableau, warm.basis
    m = basis.size
    tableau[:m, -1] = tableau[:m, warm.identity] @ (warm.flip * b)
    tol = _PHASE1_TOL * max(1.0, float(np.abs(b).max()))
    degenerate_run = 0
    for _ in range(_pivot_cap(tableau)):
        beta = tableau[:m, -1]
        stuck = ~warm.allowed[basis]
        lost = np.flatnonzero(stuck & (np.abs(beta) > tol))
        if lost.size:
            r = int(lost[0])
            return INFEASIBLE, (-np.sign(beta[r]) * warm.flip
                                * tableau[r, warm.identity])
        short = np.flatnonzero((beta < -_EPS) & ~stuck)
        if short.size == 0:
            y = np.zeros(tableau.shape[1] - 1)
            y[basis] = np.maximum(beta, 0.0)
            return OPTIMAL, y[:warm.columns]
        if degenerate_run >= _BLAND_TRIGGER:
            r = int(short[np.argmin(basis[short])])
        else:
            r = int(short[np.argmin(beta[short])])
        row = tableau[r, :-1]
        entering = np.flatnonzero((row < -_EPS) & warm.allowed)
        if entering.size == 0:
            return INFEASIBLE, warm.flip * tableau[r, warm.identity]
        ratios = tableau[m, entering] / -row[entering]
        best = float(ratios.min())
        j = int(entering[np.flatnonzero(ratios <= best + _EPS)[0]])
        degenerate_run = degenerate_run + 1 if best < _EPS else 0
        _pivot(tableau, basis, r, j)
    return None


def _optimum_certified(form: _StandardForm, warm: _WarmBasis,
                       bits: np.ndarray, b: np.ndarray, y: np.ndarray) -> bool:
    """Whether ``y`` is an optimum, checked against the form's own arrays.

    The point must satisfy the model's rows and bounds.  The duals
    ``u = c_B B^-1`` of the warm basis must price every column and slack
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
    u = warm.duals()
    reduced = form.cost - u @ form.a
    if np.any(reduced < -_CERT_DUAL_TOL * (1.0 + np.abs(form.cost)
                                           + np.abs(u) @ np.abs(form.a))):
        return False
    if np.any(form.direction * u > _CERT_DUAL_TOL * (1.0 + np.abs(u))):
        return False
    gap = form.cost @ y - u @ b
    return gap <= _CERT_TOL * (1.0 + np.abs(form.cost) @ np.abs(y)
                               + np.abs(u) @ np.abs(b))


def _farkas_certified(form: _StandardForm, b: np.ndarray,
                      u: np.ndarray) -> bool:
    """Whether row multipliers ``u`` prove ``a y (direction) b, y >= 0``
    infeasible: ``u >= 0`` on ``<=`` rows, ``u <= 0`` on ``>=`` rows,
    ``u a >= 0`` and ``u b < 0``, so no ``y`` can meet the rows.

    Entries of the wrong sign are dropped first.  With ``u`` scaled to a
    largest entry of 1, ``-u b`` is a lower bound on the cold solve's
    phase-1 residual, so ``u b`` must clear the same threshold that makes a
    cold solve report ``infeasible``.
    """
    u = np.where(form.direction * u < 0.0, 0.0, u)
    size = float(np.abs(u).max(initial=0.0))
    if size == 0.0:
        return False
    u = u / size
    if u @ b >= -_PHASE1_TOL * max(1.0, float(np.abs(b).max())):
        return False
    return bool(np.all(u @ form.a >= -_CERT_TOL * (1.0 + np.abs(u)
                                                    @ np.abs(form.a))))


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


def _pivot_loop(tableau: np.ndarray, basis: np.ndarray,
                allowed: np.ndarray) -> str:
    """Run primal simplex pivots in place until optimal or unbounded.

    The last row of ``tableau`` holds the reduced costs, kept current by
    the pivots; only ``allowed`` columns may enter.
    """
    m = basis.size
    n = tableau.shape[1] - 1
    degenerate_run = 0
    max_pivots = _pivot_cap(tableau)
    for _ in range(max_pivots):
        reduced = tableau[m, :n]
        entering = np.flatnonzero((reduced < -_EPS) & allowed)
        if entering.size == 0:
            return OPTIMAL
        if degenerate_run >= _BLAND_TRIGGER:
            j = int(entering[0])
        else:
            j = int(entering[np.argmin(reduced[entering])])
        col = tableau[:m, j]
        positive = col > _EPS
        if not positive.any():
            return UNBOUNDED
        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[:m, -1][positive] / col[positive]
        best = float(ratios.min())
        ties = np.flatnonzero(ratios <= best + _EPS)
        if degenerate_run >= _BLAND_TRIGGER:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[0])
        degenerate_run = degenerate_run + 1 if best < _EPS else 0
        _pivot(tableau, basis, r, j)
    raise CyclingGuardError(
        f"simplex exceeded {max_pivots} pivots on a {m}x{n} tableau")
