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
reduced-cost fixing has fixed a few binaries.  Every solve, proof or not,
switches off the feasibility-jump primal heuristic, a fixed 8-12 ms per
solve in HiGHS 1.12 that never changed a node count or an answer on the
models measured.  These options steer the search only, never the optimum,
and an option HiGHS refuses is an error, so a renamed one cannot quietly
come back on.  Each solve also reports HiGHS's simplex iteration count.

Between the seed and the final thermal solve, :func:`probe_sides` fixes
the cosine sides that no plan as cheap as the start can flip: warm LPs on
one HiGHS object, within the seed solve's own simplex iteration count.
The final solve takes them as fixed bounds (``fixed``).  They cut off no
plan at least as cheap as the start, so the optimum stays.  When the
probe reached every side, :func:`prove_relaxed` first tries to prove the
start, or a repair of the relaxed incumbent, by the dual bound of the
model with the unfixed sides relaxed to continuous columns; the final
solve runs only when that falls short.

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
Assignments are priced in blocks of :data:`_BLOCK`, as the rows of a 0/1
matrix in ``itertools.product`` order: one matrix product gives every
right-hand side of a block and tests the model rows that have no column.
Two proofs then skip assignments unsolved.  Once an incumbent exists, the
basis of each solve prices the block's remaining assignments by its duals,
sign-corrected, into lower bounds on their LPs that hold for any duals
and any right-hand side; an assignment whose bound exceeds the incumbent
by more than its rounding could never replace it (Land & Doig, 1960,
bound the subproblems of an enumeration).  And each certified Farkas
vector is kept: it proves infeasible any later right-hand side that it
prices below the same margin as its own, so one infeasible LP can stand
for many (a reused infeasibility proof, as in Codato & Fischetti, 2006).
Memory does not grow with the number of assignments: one block is held at
a time, and one vector per kept certificate.
Agreement between the two backends is part of the test battery, so the
oracle favours transparency over speed and refuses models with more free
binaries than :data:`ENUMERATION_CAP`.
"""

from __future__ import annotations

import contextlib
import ctypes
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
_BLOCK = 4096                    # assignments the oracle prices together
PROBE_SLACK = 1e-9               # of |z|, on the probe's row cost <= z
PRIMAL_SIMPLEX = 4               # HiGHS's ``simplex_strategy`` for it

# HiGHS options every external solve sets, proof solve or not: no console
# log and no feasibility-jump heuristic (see the module docstring).
FIXED_OPTIONS = {"log_to_console": False,
                 "mip_heuristic_run_feasibility_jump": False}

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
    construction and checks ``time_limit`` on the wall clock after each
    LP it solves and after each block of assignments.
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
    lp_iterations: int | None = None      # simplex iterations, external only

    def value(self, ir: ModelIR, name: str) -> float:
        if self.values is None:
            raise SolverError(f"no solution values available ({self.status})")
        return float(self.values[ir.variable(name).index])


def solve(ir: ModelIR, config: SolveConfig | None = None, *,
          start: dict[int, float] | None = None,
          sub_mips: bool = True,
          fixed: dict[int, float] | None = None) -> Solution:
    """Dispatch on ``config.backend``; the oracle ignores ``start``,
    ``sub_mips`` and ``fixed``."""
    config = config if config is not None else SolveConfig()
    if config.backend == "external":
        return external_solve(ir, config, start=start, sub_mips=sub_mips,
                              fixed=fixed)
    return oracle_solve(ir, config)


# ---------------------------------------------------------------------------
# External backend (HiGHS through scipy's private binding)


def external_solve(ir: ModelIR, config: SolveConfig | None = None, *,
                   start: dict[int, float] | None = None,
                   sub_mips: bool = True,
                   fixed: dict[int, float] | None = None,
                   _continuous: list[int] | None = None) -> Solution:
    """Solve with HiGHS at ``config.mip_gap`` within ``config.time_limit``.

    ``start`` holds values for some or all columns, by index, and is offered
    to HiGHS as a MIP start; HiGHS completes a partial start by an LP over
    the other columns and drops a start it cannot complete.  ``fixed``
    holds values, by index, that replace those columns' bounds, as
    :func:`probe_sides` proves them for the cosine sides.
    ``sub_mips=False`` makes it a proof solve: it switches off the options
    in :data:`PROOF_OPTIONS`, HiGHS's sub-MIP heuristics and its root
    restarts.  That changes how fast the optimum is found and proved, not
    the optimum.  Every solve, proof or default, also sets
    :data:`FIXED_OPTIONS`: no console log and no feasibility-jump
    heuristic; the default leaves every other search option at HiGHS's own
    value.  An option HiGHS refuses raises :class:`SolverError` naming it.
    The solution carries HiGHS's simplex iteration count, strong branching
    and every node's LPs included.  ``_continuous``, for
    :func:`prove_relaxed`, lists binary columns to solve as continuous
    ones on their bounds.
    """
    config = config if config is not None else SolveConfig()
    t0 = time.perf_counter()
    n = ir.num_variables
    model = _model_arrays(ir, {i: (v, v) for i, v in (fixed or {}).items()})
    if n == 0:
        ok = bool(np.all(_violation(model.direction, model.rhs) <= 1e-9))
        return Solution(OPTIMAL if ok else INFEASIBLE,
                        0.0 if ok else None,
                        np.zeros(0) if ok else None,
                        time.perf_counter() - t0, "external", lp_iterations=0)

    integrality = np.array([1 if v.kind == BINARY else 0 for v in ir.variables])
    if _continuous:
        integrality[_continuous] = 0
    options = {"time_limit": float(config.time_limit),
               "mip_rel_gap": float(config.mip_gap)}
    if not sub_mips:
        options.update(dict.fromkeys(PROOF_OPTIONS, False))
    with _stdout_to_stderr():
        try:
            highs = _highs_model(model, options, integrality)
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
                        highs.modelStatusToString(model_status),
                        lp_iterations=int(info.simplex_iteration_count))
    if integrality.any():
        solution.mip_gap = float(info.mip_gap)
        solution.mip_dual_bound = float(info.mip_dual_bound)
        solution.mip_node_count = int(info.mip_node_count)
    return solution


def _highs_model(model: _ModelArrays, options: dict,
                 integrality: np.ndarray | None = None):
    """A ``_Highs`` object holding ``model``, an LP unless ``integrality``
    marks its integer columns, with :data:`FIXED_OPTIONS` and ``options``
    set."""
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = model.cost.size
    lp.num_row_ = lp.a_matrix_.num_row_ = model.rhs.size
    lp.col_cost_ = model.cost
    lp.col_lower_ = model.lower
    lp.col_upper_ = model.upper
    lp.row_lower_ = np.where(model.direction <= 0.0, model.rhs, -np.inf)
    lp.row_upper_ = np.where(model.direction >= 0.0, model.rhs, np.inf)
    lp.a_matrix_.format_ = _highs.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = model.indptr
    lp.a_matrix_.index_ = model.indices
    lp.a_matrix_.value_ = model.data
    if integrality is not None:
        lp.integrality_ = [_highs.HighsVarType(int(k)) for k in integrality]
    highs = _highs._Highs()
    _set_options(highs, {**FIXED_OPTIONS, **options})
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverError("HiGHS refused the model")
    return highs


def _set_options(highs, options: dict) -> None:
    for name, value in options.items():
        if highs.setOptionValue(name, value) != _highs.HighsStatus.kOk:
            raise SolverError(f"HiGHS refused option {name}")


class SideProbe(NamedTuple):
    """What :func:`probe_sides` proved: ``fixed`` maps each cosine side
    column it fixed to its value, and ``lp_iterations`` counts the simplex
    iterations of every LP it solved.  ``cost`` and ``point`` are the
    start's cost ``z`` and its completed point, from the LP with the
    start's binaries fixed, or ``None`` when that LP did not reach its
    optimum.  ``complete`` says whether the probe reached the end of its
    side list, rather than stopping on the iteration budget or the time
    limit."""

    fixed: dict[int, float]
    lp_iterations: int
    cost: float | None = None
    point: np.ndarray | None = None
    complete: bool = False


def probe_sides(ir: ModelIR, start: dict[int, float],
                sides: list[tuple[int, int, int]], budget: int,
                time_limit: float) -> SideProbe:
    """Cosine sides that no plan at least as cheap as ``start`` can flip.

    ``start`` must give a 0/1 value to every free binary of ``ir``, or
    nothing is probed.  ``sides`` lists ``(side, a, b)`` column triples, a
    side binary that is 1 on the angle difference ``x = a - b >= 0`` and
    0 on ``x <= 0``.  The probe is optimality-based bound tightening
    (Coffrin, Hijazi & Van Hentenryck, 2015) on one HiGHS LP object:

    1. The LP with the start's binaries fixed gives the incumbent cost
       ``z`` and each ``x``.  If it is not optimal, nothing is probed.
    2. The binaries get their bounds back, the row ``cost <= z`` (plus
       :data:`PROBE_SLACK` of ``|z|``) is added and the cost is zeroed.
       The basis stays primal feasible, so each later LP runs primal
       simplex from the last one's basis.
    3. In ``sides`` order, each side is probed once, toward the other
       side: ``x`` is minimized when the incumbent's ``x > 0`` and
       maximized when it is ``< 0``.  An optimal LP value that keeps the
       incumbent's sign (``>= 0`` or ``<= 0``, with no tolerance) fixes the
       side at the incumbent's value.  A side whose ``x`` some LP point
       has already put on the other side, strictly, is not probed
       (Gleixner, Berthold, Müller & Weltge, 2017, filter such bounds).
    4. All LPs together get at most ``budget`` simplex iterations and
       ``time_limit`` seconds; the first LP that ends short of optimal
       ends the probe.  The iteration budget keeps the fixings a
       function of the model alone.

    Every plan that costs at most ``z`` keeps each fixed side's sign or
    has ``x = 0``, where both sides give the same flow, so the fixings cut
    off no such plan, the optimum included.  The result also carries
    ``z`` and the first LP's point, the start completed, and whether the
    probe reached the end of ``sides`` (``complete``) or stopped on the
    budget or the time limit.
    """
    free = [v.index for v in ir.free_binaries()]
    if budget <= 0 or time_limit <= 0.0 or any(i not in start for i in free):
        return SideProbe({}, 0)
    model = _model_arrays(ir)
    pinned = model._replace(lower=model.lower.copy(),
                            upper=model.upper.copy())
    pinned.lower[free] = pinned.upper[free] = [start[i] for i in free]
    with _stdout_to_stderr():
        try:
            highs = _highs_model(pinned, {"time_limit": float(time_limit)})
            return _probe(highs, model, np.array(free, dtype=np.int32),
                          sides, budget)
        except SolverError:
            raise
        except Exception as exc:  # malformed input surfaced by HiGHS
            raise SolverError(
                f"external solver rejected the probe: {exc}") from exc


def _probe(highs, model: _ModelArrays, free: np.ndarray,
           sides: list[tuple[int, int, int]], budget: int) -> SideProbe:
    """The steps of :func:`probe_sides` on ``highs``, which holds ``model``
    with its ``free`` binaries fixed at the start."""
    used = 0

    def run() -> np.ndarray | None:
        """Solve within what is left of the budget: the point, or ``None``
        when the LP ends short of optimal."""
        nonlocal used
        _set_options(highs, {"simplex_iteration_limit": budget - used})
        highs.run()
        used += int(highs.getInfo().simplex_iteration_count)
        if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
            return None
        return np.array(highs.getSolution().col_value, dtype=float)

    x = run()
    if x is None:
        return SideProbe({}, used)
    z = float(highs.getInfo().objective_function_value)
    # Unfixed, a nonbasic binary stays at the bound it was fixed at, so the
    # basis stays primal feasible.
    basis = highs.getBasis()
    status = basis.col_status
    for i in free:
        if status[i] != _highs.HighsBasisStatus.kBasic:
            status[i] = (_highs.HighsBasisStatus.kUpper if x[i] > 0.5
                         else _highs.HighsBasisStatus.kLower)
    basis.col_status = status
    highs.changeColsBounds(free.size, free, model.lower[free],
                           model.upper[free])
    highs.setBasis(basis)
    priced = np.flatnonzero(model.cost).astype(np.int32)
    highs.addRow(-np.inf, z + PROBE_SLACK * abs(z), priced.size, priced,
                 model.cost[priced])
    highs.changeColsCost(priced.size, priced, np.zeros(priced.size))
    _set_options(highs, {"simplex_strategy": PRIMAL_SIMPLEX})

    side, a, b = np.array(sides, dtype=np.int32).reshape(-1, 3).T
    sign = np.sign(x[a] - x[b])      # 0 once a side needs no probe
    fixed = {}
    for k in range(side.size):
        if sign[k] == 0.0:
            continue
        cols = np.array([a[k], b[k]], dtype=np.int32)
        highs.changeColsCost(2, cols, np.array([sign[k], -sign[k]]))
        y = run()
        highs.changeColsCost(2, cols, np.zeros(2))
        if y is None:
            return SideProbe(fixed, used, z, x)
        if sign[k] * (y[a[k]] - y[b[k]]) >= 0.0:
            fixed[int(side[k])] = 1.0 if sign[k] > 0.0 else 0.0
        sign[sign * (y[a] - y[b]) < 0.0] = 0.0
    return SideProbe(fixed, used, z, x, complete=True)


class RelaxedProof(NamedTuple):
    """What :func:`prove_relaxed` settled.  ``solution`` is a plan proved
    within the gap, or ``None`` when the final solve must run, from
    ``start``.  ``bound`` is the relaxed solve's dual bound (``None`` when
    none was solved or it gave none), and ``lp_iterations`` and ``nodes``
    count the simplex iterations of the relaxed solve and its repair LP and
    the relaxed solve's nodes."""

    solution: Solution | None
    start: dict[int, float]
    bound: float | None = None
    lp_iterations: int = 0
    nodes: int = 0


def prove_relaxed(ir: ModelIR, config: SolveConfig, start: dict[int, float],
                  sides: list[tuple[int, int, int]],
                  probe: SideProbe) -> RelaxedProof:
    """Prove a probed start on the model with its unfixed cosine sides
    relaxed, before any branching on them.

    ``start`` and ``sides`` are those :func:`probe_sides` took and
    ``probe`` its result.  Every side that ``probe`` left unfixed becomes a
    continuous column on [0, 1]; build and unit binaries stay integral.
    That model is solved as a proof solve (``sub_mips=False``) with
    ``probe.fixed``, at ``config.mip_gap`` within ``config.time_limit``,
    from the start's completed point ``probe.point``.  Its HiGHS dual bound
    ``LB`` bounds every plan as cheap as the start from below: the fixings
    cut off no such plan and dropping integrality only relaxes.  So the
    bound, never the relaxed objective, decides:

    1. If ``z - LB <= mip_gap * |z|``, with ``z`` the start's cost, the
       answer is ``probe.point``.
    2. Otherwise the relaxed incumbent is repaired: it keeps its build and
       unit values, each unfixed side takes the sign of its angle
       difference (``x >= 0`` gives 1), and an LP with every binary fixed
       gives its cost ``w``.  If ``w - LB <= mip_gap * |w|``, that LP's
       point is the answer.
    3. Otherwise nothing is proved.  The final solve then starts from the
       repaired binaries when ``w < z`` and from ``start`` when not.

    A proved answer is ``optimal``, with ``LB`` as its dual bound, gap
    ``max(0, (cost - LB) / |cost|)``, and the relaxed solve's nodes.
    Nothing is solved when ``probe`` has no completed point or fixed every
    side.
    """
    t0 = time.perf_counter()
    relaxed = [side for side, _, _ in sides if side not in probe.fixed]
    if probe.point is None or not relaxed:
        return RelaxedProof(None, start)
    solution = external_solve(
        ir, config, start=dict(enumerate(probe.point.tolist())),
        sub_mips=False, fixed=probe.fixed, _continuous=relaxed)
    bound = solution.mip_dual_bound
    iterations, nodes = solution.lp_iterations, solution.mip_node_count or 0

    def proved(objective: float, values: np.ndarray,
               what: str) -> RelaxedProof | None:
        if bound is None or objective - bound > config.mip_gap * abs(objective):
            return None
        gap = max(0.0, objective - bound) / abs(objective) if objective else 0.0
        return RelaxedProof(
            Solution(OPTIMAL, objective, values, time.perf_counter() - t0,
                     "external", f"Optimal: {what}, proved on the cosine-side "
                     "relaxation", mip_gap=gap, mip_dual_bound=bound,
                     mip_node_count=nodes, lp_iterations=iterations),
            start, bound, iterations, nodes)

    answer = proved(probe.cost, probe.point, "the start")
    if answer is not None:
        return answer
    left = config.time_limit - (time.perf_counter() - t0)
    if solution.values is not None and left > 0.0:
        x = solution.values
        repaired = {i: float(round(x[i])) for i in start}
        for side, a, b in sides:
            if side not in probe.fixed:
                repaired[side] = 1.0 if x[a] - x[b] >= 0.0 else 0.0
        lp = _pinned_lp(ir, repaired, left)
        if lp is not None:
            cost, values, lp_iterations = lp
            iterations += lp_iterations
            answer = proved(cost, values, "the repaired relaxed incumbent")
            if answer is not None:
                return answer
            if cost < probe.cost:
                start = repaired
    return RelaxedProof(None, start, bound, iterations, nodes)


def _pinned_lp(ir: ModelIR, values: dict[int, float], time_limit: float):
    """The LP of ``ir`` with the columns in ``values`` fixed there:
    ``(cost, point, simplex iterations)``, or ``None`` when it does not
    reach its optimum within ``time_limit`` seconds."""
    model = _model_arrays(ir, {i: (v, v) for i, v in values.items()})
    with _stdout_to_stderr():
        try:
            highs = _highs_model(model, {"time_limit": float(time_limit)})
            highs.run()
        except SolverError:
            raise
        except Exception as exc:  # malformed input surfaced by HiGHS
            raise SolverError(
                f"external solver rejected the LP: {exc}") from exc
    if highs.getModelStatus() != _highs.HighsModelStatus.kOptimal:
        return None
    info = highs.getInfo()
    return (float(info.objective_function_value),
            np.array(highs.getSolution().col_value, dtype=float),
            int(info.simplex_iteration_count))


_redirect_lock = threading.Lock()
_redirect_depth = 0
_saved_stdout_fd = -1
try:
    _c_fflush = ctypes.CDLL(None).fflush     # C stdio, where HiGHS prints
except (OSError, TypeError, AttributeError):  # no C library by that handle
    _c_fflush = None


def _flush_c_stdio():
    """Write out what the C library holds buffered for its streams."""
    if _c_fflush is not None:
        _c_fflush(None)


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at file descriptor 2 while HiGHS runs.

    HiGHS 1.12 prints some MIP messages (for example
    ``HighsMipSolverData::transformNewIntegerFeasibleSolution``) straight to
    stdout, past ``log_to_console`` and ``output_flag``.  Redirecting the
    descriptor keeps them out of a program's own output.  When stdout is
    not a terminal, the C library buffers those messages; they are flushed
    before stdout is restored, or they would reach it when the program
    exits, after its own output.  Overlapping solves in several threads
    share one redirect; the last one out restores stdout.
    """
    global _redirect_depth, _saved_stdout_fd
    with _redirect_lock:
        if _redirect_depth == 0:
            sys.stdout.flush()
            _flush_c_stdio()
            _saved_stdout_fd = os.dup(1)
            os.dup2(2, 1)
        _redirect_depth += 1
    try:
        yield
    finally:
        with _redirect_lock:
            _redirect_depth -= 1
            if _redirect_depth == 0:
                _flush_c_stdio()
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
    Assignments are taken in blocks of :data:`_BLOCK`, whose right-hand
    sides and rows without columns one :meth:`_StandardForm.rhs` call
    prices.  Within a block they keep ``itertools.product`` order, and one
    is skipped unsolved when the rows without columns break, when a kept
    Farkas certificate (:func:`_farkas_prunes`) proves its LP infeasible,
    or, once there is an incumbent, when the :class:`_DualBound` of the
    last solve's basis proves that it cannot beat the incumbent; the bound
    is valid for any duals, so a skipped assignment is never one that would
    have won.  After each solve the new basis, and a new certificate, price
    the block's remaining assignments at once.  The wall clock is read
    after each solve and after each block.  The best optimum wins, and
    infeasibility means no assignment admitted a feasible LP.  Every
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
    total = 2 ** len(free)
    shifts = np.arange(len(free) - 1, -1, -1)
    basis = None
    bound = None                 # from ``basis``, once there is an incumbent
    farkas = []                  # certified Farkas vectors of solved LPs
    best_obj = math.inf
    best_x = None
    timed_out = False
    for first in range(0, total, _BLOCK):
        index = np.arange(first, min(first + _BLOCK, total))
        bits = ((index[:, None] >> shifts) & 1).astype(float)
        b, meets = form.rhs(bits)
        todo = np.flatnonzero(meets)          # in ``itertools.product`` order
        if farkas:
            todo = todo[~_farkas_prunes(np.array(farkas), b[todo])]
        if bound is not None:
            todo = todo[~bound.prunes(bits[todo], b[todo], best_obj)]
        while todo.size:
            k, todo = todo[0], todo[1:]
            status, vector, basis = _assignment(form, bits[k], b[k], basis)
            if status == OPTIMAL:
                x = form.point(vector, bits[k])
                objective = float(form.model_cost @ x)
                if objective < best_obj:
                    best_obj, best_x = objective, x
            elif vector is not None:
                farkas.append(vector)
                todo = todo[~_farkas_prunes(vector[None], b[todo])]
            if best_x is not None:
                bound = _DualBound(form, basis)
                todo = todo[~bound.prunes(bits[todo], b[todo], best_obj)]
            if time.perf_counter() - start > config.time_limit:
                break
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
    b, meets = form.rhs(bits[None])
    if not meets[0]:
        return INFEASIBLE, None, None
    status, y, _ = _assignment(form, bits, b[0], None)
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

    def rhs(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The LP right-hand sides for pinned values ``bits``, one
        assignment per row, and whether each assignment meets the rows
        with no column."""
        empty = self._empty_rhs - bits @ self._empty_pinned.T
        broken = _violation(self._empty_direction, empty) > self._empty_tol
        return self._rhs - bits @ self._pinned.T, ~broken.any(axis=1)

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
    ``(status, vector, basis)``.

    ``vector`` is the optimal ``y``, or for an infeasible LP its Farkas
    vector as :func:`_farkas_certificate` returns it, ``None`` when that
    check fails.  The LP is solved from ``basis`` when one is given, and
    from a fresh slack basis when none is or when the answer from it fails
    its certificate or hits the pivot cap.  A fresh answer is final.  The
    returned ``basis`` is the one to carry to the next assignment; a solve
    pivots it in place.
    """
    if basis is not None:
        answer = _dual_simplex(basis, b)
        if answer is not None:
            status, vector = answer
            if status == OPTIMAL and _optimum_certified(form, basis, bits, b,
                                                        vector):
                return OPTIMAL, vector, basis
            if status == INFEASIBLE:
                u = _farkas_certificate(form, b, vector)
                if u is not None:
                    return INFEASIBLE, u, basis
    basis = _Basis(form)
    answer = _dual_simplex(basis, b)
    if answer is None:
        raise CyclingGuardError(
            f"dual simplex exceeded {_pivot_cap(basis.tableau)} pivots on a "
            f"{form.a.shape[0]}x{form.a.shape[1]} LP")
    status, vector = answer
    if status == INFEASIBLE:
        vector = _farkas_certificate(form, b, vector)
    return status, vector, basis


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
               incumbent: float) -> np.ndarray:
        """Whether the model's cost under each row of ``bits``, with the
        right-hand side in the same row of ``b``, provably exceeds
        ``incumbent``, by more than the rounding the bound can carry."""
        bound = self.floor + bits @ self.form.pinned_cost + b @ self.u
        return bound - incumbent > _CERT_TOL * (
            1.0 + abs(incumbent) + np.abs(b) @ self.abs_u)


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


def _farkas_certificate(form: _StandardForm, b: np.ndarray,
                        u: np.ndarray) -> np.ndarray | None:
    """Row multipliers ``u`` as a proof that ``a y <= b, y >= 0`` is
    infeasible, or ``None`` when they are none: ``u >= 0``, ``u a >= 0``
    and ``u b < 0``, so no ``y`` can meet the rows.

    Negative entries are dropped first and ``u`` is scaled to a largest
    entry of 1; that is the vector returned.  ``u b`` must fall below
    :func:`_farkas_margin`.  ``u a >= 0`` does not depend on ``b``, so the
    vector proves infeasible any other right-hand side that passes the
    same test (:func:`_farkas_prunes`).
    """
    u = np.maximum(u, 0.0)
    size = float(u.max(initial=0.0))
    if size == 0.0:
        return None
    u = u / size
    if u @ b >= _farkas_margin(b):
        return None
    if np.all(u @ form.a >= -_CERT_TOL * (1.0 + u @ np.abs(form.a))):
        return u
    return None


def _farkas_prunes(certificates: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Which right-hand sides, the rows of ``b``, some row of
    ``certificates`` (vectors from :func:`_farkas_certificate`) proves
    infeasible: ``u b'`` below :func:`_farkas_margin` of ``b'``."""
    return np.any(b @ certificates.T < _farkas_margin(b)[:, None], axis=1)


def _farkas_margin(b: np.ndarray) -> np.ndarray:
    """The bound ``u b`` must fall below for a Farkas vector ``u >= 0``
    with largest entry 1 and ``u a >= 0`` to prove the right-hand side
    ``b`` (or each row of it) infeasible.

    ``-u b`` is a lower bound on the summed violation of the rows at any
    ``y >= 0``, so it must exceed :data:`_FARKAS_TOL` relative to ``b``: a
    smaller one could be rounding.
    """
    return -_FARKAS_TOL * np.maximum(1.0, np.abs(b).max(axis=-1,
                                                        initial=0.0))


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
