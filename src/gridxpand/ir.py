"""Solver-agnostic container for mixed-integer linear programs.

A :class:`ModelIR` is a plain in-memory description of a minimization MILP:
variables with bounds and a kind (continuous or binary), sparse linear rows
with a sense, and a sparse linear objective.  Backends in :mod:`.solve`
translate it; nothing in here knows about any particular solver.

Construction is incremental through ``add_variable`` / ``add_row``.  Once a
model has been handed to a solver it should be treated as frozen; builders
never mutate rows they have already emitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CONTINUOUS = "continuous"
BINARY = "binary"
KINDS = (CONTINUOUS, BINARY)

LE = "<="
GE = ">="
EQ = "="
SENSES = (LE, GE, EQ)


@dataclass(frozen=True)
class Variable:
    index: int
    name: str
    kind: str
    lower: float
    upper: float

    @property
    def is_fixed(self) -> bool:
        return self.lower == self.upper


@dataclass(frozen=True)
class Row:
    index: int
    name: str
    coeffs: dict[int, float]
    sense: str
    rhs: float


class ModelIR:
    """Incrementally built MILP in sparse row form."""

    def __init__(self, name: str = "model", metadata: dict | None = None):
        self.name = name
        self.variables: list[Variable] = []
        self.rows: list[Row] = []
        self.objective: dict[int, float] = {}
        self.metadata: dict = metadata if metadata is not None else {}
        self._var_index: dict[str, int] = {}
        self._row_index: dict[str, int] = {}

    # -- construction -----------------------------------------------------

    def add_variable(self, name: str, kind: str = CONTINUOUS,
                     lower: float = -math.inf, upper: float = math.inf) -> int:
        if kind not in KINDS:
            raise ValueError(f"unknown variable kind {kind!r}")
        if name in self._var_index:
            raise ValueError(f"duplicate variable name {name!r}")
        if kind == BINARY:
            # Binary bounds may be tightened (fixed existing elements) but
            # never widened beyond the unit interval.
            if lower == -math.inf:
                lower = 0.0
            if upper == math.inf:
                upper = 1.0
            if not (0.0 <= lower <= upper <= 1.0):
                raise ValueError(
                    f"binary variable {name!r} must have bounds within [0, 1], "
                    f"got [{lower}, {upper}]")
        elif lower > upper:
            raise ValueError(f"variable {name!r} has empty bound interval "
                             f"[{lower}, {upper}]")
        index = len(self.variables)
        self.variables.append(Variable(index, name, kind, float(lower), float(upper)))
        self._var_index[name] = index
        return index

    def add_row(self, name: str, coeffs: dict[int, float], sense: str, rhs: float) -> int:
        if sense not in SENSES:
            raise ValueError(f"unknown row sense {sense!r}")
        if name in self._row_index:
            raise ValueError(f"duplicate row name {name!r}")
        clean = {}
        for var, coef in coeffs.items():
            if not (0 <= var < len(self.variables)):
                raise ValueError(f"row {name!r} references unknown variable id {var}")
            if coef != 0.0:
                clean[int(var)] = float(coef)
        index = len(self.rows)
        self.rows.append(Row(index, name, clean, sense, float(rhs)))
        self._row_index[name] = index
        return index

    def add_objective_term(self, var: int, coef: float) -> None:
        if not (0 <= var < len(self.variables)):
            raise ValueError(f"objective references unknown variable id {var}")
        if coef == 0.0:
            return
        self.objective[var] = self.objective.get(var, 0.0) + float(coef)

    # -- queries ----------------------------------------------------------

    def variable(self, name: str) -> Variable:
        return self.variables[self._var_index[name]]

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def binaries(self) -> list[Variable]:
        return [v for v in self.variables if v.kind == BINARY]

    def free_binaries(self) -> list[Variable]:
        """Binary variables whose value is not already pinned by bounds."""
        return [v for v in self.variables if v.kind == BINARY and not v.is_fixed]

    def row_activity(self, row: Row, values) -> float:
        return sum(coef * values[var] for var, coef in row.coeffs.items())

