"""The MILP model container and its standard-form compilation.

:class:`MilpModel` owns variables and constraints, and compiles itself
into the standard form consumed by every backend::

    optimize   c @ x
    subject to A_ub @ x <= b_ub
               A_eq @ x == b_eq
               lower <= x <= upper,   x[i] integral where marked

Maximization is normalized to minimization by negating ``c`` at compile
time; backends always minimize and :class:`Solution` objects report the
objective in the model's original sense.

Compilation is **sparse**: the constraint matrices come back as
canonical scipy CSR, assembled in ``O(nnz + rows)`` from a
per-constraint sparse-row memo.  The deployment formulations are well
under 1% dense at catalog scale, where a dense ``np.zeros(n)``-per-row
form would cost ``O(rows x vars)`` time and memory per compile —
seconds and hundreds of megabytes at 1000+ monitors.  The differential
suite in ``tests/solver/test_sparse_compile.py`` pins the CSR form
cell for cell against a dense reference compile kept under ``tests/``.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np
import scipy.sparse as _sp

from repro import obs
from repro.errors import SolverError
from repro.solver.expressions import (
    Constraint,
    ConstraintSense,
    LinearExpression,
    Variable,
    VarKind,
)
from repro.solver.sparse import csr_from_rows, dense_equivalent_nbytes, matrix_nbytes

__all__ = [
    "ObjectiveSense",
    "MilpModel",
    "StandardForm",
    "SolutionStatus",
    "BackendAttempt",
    "Solution",
]


class ObjectiveSense(str, enum.Enum):
    """Whether the model maximizes or minimizes its objective."""

    MAXIMIZE = "maximize"
    MINIMIZE = "minimize"


@dataclass(frozen=True, slots=True)
class StandardForm:
    """Numeric form of a model (minimization convention).

    ``A_ub``/``A_eq`` are canonical CSR; every other field is a dense
    vector.  Emptiness of a constraint block must be tested via
    ``b_ub.size``/``b_eq.size`` (or the row count of the shape) — for a
    sparse matrix ``.size`` is the *nonzero* count, so a genuine
    all-zero row would vanish from a ``A_ub.size`` test.
    """

    c: np.ndarray
    A_ub: _sp.csr_matrix
    b_ub: np.ndarray
    A_eq: _sp.csr_matrix
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray  # bool mask
    objective_constant: float
    maximize: bool

    @property
    def num_variables(self) -> int:
        return self.c.shape[0]

    @property
    def matrix_nbytes(self) -> int:
        """Actual payload bytes of ``A_ub`` + ``A_eq`` as stored."""
        return matrix_nbytes(self.A_ub) + matrix_nbytes(self.A_eq)

    @property
    def dense_matrix_nbytes(self) -> int:
        """Bytes the constraint matrices would occupy densely."""
        return dense_equivalent_nbytes(self.A_ub) + dense_equivalent_nbytes(self.A_eq)

    def objective_in_model_sense(self, minimized_value: float) -> float:
        """Convert a backend's minimized objective to the model's sense."""
        value = minimized_value + (-self.objective_constant if self.maximize else self.objective_constant)
        return -value if self.maximize else value

    def minimized_from_model_sense(self, model_value: float) -> float:
        """Inverse of :meth:`objective_in_model_sense`.

        Converts an objective reported in the model's sense (e.g. a
        previous solve's optimum reused as a dual bound) back to the
        minimization convention the backends search in.
        """
        value = -model_value if self.maximize else model_value
        return value - (-self.objective_constant if self.maximize else self.objective_constant)


class SolutionStatus(str, enum.Enum):
    """Terminal status of a solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FEASIBLE = "feasible"  # incumbent found but optimality not proven


@dataclass(frozen=True, slots=True)
class BackendAttempt:
    """One backend's turn in the fallback chain."""

    backend: str
    answered: bool
    error_type: str = ""
    error: str = ""


@dataclass(frozen=True, slots=True)
class Solution:
    """A solve result: status, objective (model sense), and assignment.

    ``attempts`` is the fallback chain's history, in chain order, ending
    with the backend that answered; it is empty for every other solve.
    """

    status: SolutionStatus
    objective: float
    values: Mapping[str, float]
    backend: str
    nodes_explored: int = 0
    attempts: tuple[BackendAttempt, ...] = ()

    @property
    def is_optimal(self) -> bool:
        return self.status is SolutionStatus.OPTIMAL

    def value(self, variable: Variable | str) -> float:
        """The solved value of a variable (by object or name)."""
        name = variable.name if isinstance(variable, Variable) else variable
        try:
            return self.values[name]
        except KeyError:
            raise SolverError(f"solution has no variable {name!r}") from None


class MilpModel:
    """A mixed-integer linear program under construction."""

    def __init__(self, name: str = "milp", sense: ObjectiveSense = ObjectiveSense.MAXIMIZE):
        self.name = name
        self.sense = sense
        self._variables: list[Variable] = []
        self._names: set[str] = set()
        self._constraints: list[Constraint] = []
        self._objective: LinearExpression = LinearExpression()
        # Sparse-row memo aligned with _constraints: entry i is
        # (constraint, cols, vals, signed rhs, is_eq) and is valid
        # while _constraints[i] is that same (immutable) object — the
        # fragments name columns, not a vector length, so rows stay
        # valid even after new variables are added.  Lets a formulation
        # family recompile after truncate/append cycles paying only for
        # the rows that actually changed.  ``cols`` is sorted int32 and
        # ``vals`` carries no explicit zeros (the LinearExpression
        # constructor strips them), so compiled matrices are canonical
        # CSR by construction.
        self._row_cache: list[tuple[Constraint, np.ndarray, np.ndarray, float, bool]] = []

    # -- variable factories ------------------------------------------------

    def _new_variable(self, name: str, lower: float, upper: float, kind: VarKind) -> Variable:
        if name in self._names:
            raise SolverError(f"duplicate variable name {name!r} in model {self.name!r}")
        variable = Variable(name, lower, upper, kind, index=len(self._variables))
        self._variables.append(variable)
        self._names.add(name)
        return variable

    def binary(self, name: str) -> Variable:
        """A 0/1 decision variable."""
        return self._new_variable(name, 0.0, 1.0, VarKind.BINARY)

    def integer(self, name: str, lower: float = 0.0, upper: float = float("inf")) -> Variable:
        """An integer variable with the given bounds."""
        return self._new_variable(name, lower, upper, VarKind.INTEGER)

    def continuous(
        self, name: str, lower: float = 0.0, upper: float = float("inf")
    ) -> Variable:
        """A continuous variable with the given bounds."""
        return self._new_variable(name, lower, upper, VarKind.CONTINUOUS)

    # -- constraints and objective -------------------------------------------

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Add a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                f"expected a Constraint (use <=, >=, == on expressions), got "
                f"{type(constraint).__name__}"
            )
        for var in constraint.expression.terms:
            self._check_owned(var)
        if name:
            constraint = constraint.named(name)
        self._constraints.append(constraint)
        return constraint

    def truncate_constraints(self, count: int) -> None:
        """Drop every constraint added after the first ``count``.

        This is the rollback primitive behind formulation reuse: a
        family of related instances builds the expensive shared core
        once, records ``num_constraints``, and between instances rolls
        back to that mark before appending the per-instance rows.
        Variables and the objective are untouched — per-instance rows
        must not introduce new variables.
        """
        if not 0 <= count <= len(self._constraints):
            raise SolverError(
                f"cannot truncate to {count} constraints: model {self.name!r} "
                f"has {len(self._constraints)}"
            )
        del self._constraints[count:]

    def set_objective(self, expression: LinearExpression | Variable) -> None:
        """Set the objective function (in the model's sense)."""
        if isinstance(expression, Variable):
            expression = expression + 0.0
        if not isinstance(expression, LinearExpression):
            raise SolverError(
                f"objective must be a linear expression, got {type(expression).__name__}"
            )
        for var in expression.terms:
            self._check_owned(var)
        self._objective = expression

    def _check_owned(self, var: Variable) -> None:
        if var.index >= len(self._variables) or self._variables[var.index] is not var:
            raise SolverError(f"variable {var.name!r} does not belong to model {self.name!r}")

    # -- accessors ----------------------------------------------------------

    @property
    def variables(self) -> list[Variable]:
        """All variables, in creation (column) order."""
        return list(self._variables)

    @property
    def constraints(self) -> list[Constraint]:
        """All constraints, in insertion order."""
        return list(self._constraints)

    @property
    def objective(self) -> LinearExpression:
        """The current objective expression."""
        return self._objective

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def num_constraints(self) -> int:
        return len(self._constraints)

    @property
    def num_integer_variables(self) -> int:
        return sum(1 for v in self._variables if v.is_integral)

    # -- compilation -----------------------------------------------------------

    def compile(self) -> StandardForm:
        """Compile to standard (minimization) form with CSR matrices.

        ``GE`` rows are negated into ``LE`` rows; a maximization
        objective is negated, with the flip recorded so solutions can be
        reported in the model's original sense.
        """
        with obs.span("solver.compile", model=self.name):
            return self._compile()

    def _compile(self) -> StandardForm:
        n = len(self._variables)
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            c[var.index] = coef
        maximize = self.sense is ObjectiveSense.MAXIMIZE
        if maximize:
            c = -c

        ub_rows: list[tuple[np.ndarray, np.ndarray]] = []
        ub_rhs: list[float] = []
        eq_rows: list[tuple[np.ndarray, np.ndarray]] = []
        eq_rhs: list[float] = []
        cache = self._row_cache
        del cache[len(self._constraints):]
        for i, constraint in enumerate(self._constraints):
            entry = cache[i] if i < len(cache) else None
            if entry is not None and entry[0] is constraint:
                _, cols, vals, rhs, is_eq = entry
            else:
                terms = constraint.expression.terms
                cols = np.empty(len(terms), dtype=np.int32)
                vals = np.empty(len(terms), dtype=np.float64)
                for k, (var, coef) in enumerate(terms.items()):
                    cols[k] = var.index
                    vals[k] = coef
                order = np.argsort(cols, kind="stable")
                cols = np.ascontiguousarray(cols[order])
                vals = np.ascontiguousarray(vals[order])
                rhs = constraint.rhs
                if constraint.sense is ConstraintSense.GE:
                    vals, rhs = -vals, -rhs
                is_eq = constraint.sense is ConstraintSense.EQ
                if i < len(cache):
                    cache[i] = (constraint, cols, vals, rhs, is_eq)
                else:
                    cache.append((constraint, cols, vals, rhs, is_eq))
            if is_eq:
                eq_rows.append((cols, vals))
                eq_rhs.append(rhs)
            else:
                ub_rows.append((cols, vals))
                ub_rhs.append(rhs)

        form = StandardForm(
            c=c,
            A_ub=csr_from_rows(ub_rows, n),
            b_ub=np.array(ub_rhs) if ub_rhs else np.empty(0),
            A_eq=csr_from_rows(eq_rows, n),
            b_eq=np.array(eq_rhs) if eq_rhs else np.empty(0),
            lower=np.array([v.lower for v in self._variables]),
            upper=np.array([v.upper for v in self._variables]),
            integrality=np.array([v.is_integral for v in self._variables], dtype=bool),
            objective_constant=self._objective.constant,
            maximize=maximize,
        )
        obs.gauge("solver.matrix.nbytes").set(float(form.matrix_nbytes))
        obs.gauge("solver.matrix.dense_nbytes").set(float(form.dense_matrix_nbytes))
        return form

    # -- solution checking -------------------------------------------------------

    def assignment_from_values(self, values: Mapping[str, float]) -> dict[Variable, float]:
        """Map a name-keyed solution back onto this model's variables."""
        assignment: dict[Variable, float] = {}
        for var in self._variables:
            if var.name not in values:
                raise SolverError(f"assignment is missing variable {var.name!r}")
            assignment[var] = values[var.name]
        return assignment

    def is_feasible(self, values: Mapping[str, float], tolerance: float = 1e-6) -> bool:
        """Whether a name-keyed assignment satisfies bounds, integrality, constraints."""
        assignment = self.assignment_from_values(values)
        for var, value in assignment.items():
            if value < var.lower - tolerance or value > var.upper + tolerance:
                return False
            if var.is_integral and abs(value - round(value)) > tolerance:
                return False
        return all(c.satisfied_by(assignment, tolerance) for c in self._constraints)

    def objective_value(self, values: Mapping[str, float]) -> float:
        """Evaluate the objective at a name-keyed assignment (model sense)."""
        return self._objective.evaluate(self.assignment_from_values(values))

    def __repr__(self) -> str:
        return (
            f"MilpModel({self.name!r}, {self.sense.value}, "
            f"{self.num_variables} vars ({self.num_integer_variables} int), "
            f"{self.num_constraints} constraints)"
        )
