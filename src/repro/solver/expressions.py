"""Linear expressions, variables, and constraints for the MILP substrate.

This is a small algebraic layer in the style of PuLP: variables combine
with ``+ - *`` into :class:`LinearExpression` objects, and comparison
operators (``<=``, ``>=``, ``==``) against expressions or numbers yield
:class:`Constraint` objects ready to be added to a
:class:`~repro.solver.model.MilpModel`.

Expressions are immutable; every operation returns a new object.  A
sum of many terms is built with :meth:`LinearExpression.sum_of` in one
pass; accumulating ``expr = expr + ...`` copies the growing term dict
at every step and is quadratic in the number of terms.

Every expression, built by hand or by an operator, passes through the
one constructor, which checks its finished coefficients and constant
with a single C-level sum: a NaN or infinity anywhere — passed in, or
produced by an overflowing ``*`` or ``+`` — makes the sum non-finite
and raises :class:`~repro.errors.SolverError`, so no non-finite value
reaches a backend.  Coefficients are tested one by one only to name
the culprit.  A non-finite scale factor (``x * nan``) is refused before
it is applied.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterable, Mapping
from numbers import Real

from repro.errors import SolverError

__all__ = ["VarKind", "Variable", "LinearExpression", "ConstraintSense", "Constraint"]


class VarKind(str, enum.Enum):
    """Domain of a decision variable."""

    CONTINUOUS = "continuous"
    INTEGER = "integer"
    BINARY = "binary"


class Variable:
    """A named decision variable with bounds and a domain kind.

    Variables are created through :class:`~repro.solver.model.MilpModel`
    factory methods, which guarantee unique names and assign each
    variable its column ``index``.  Identity (not name) defines hashing,
    so two models can safely use the same variable names.
    """

    __slots__ = ("name", "lower", "upper", "kind", "index")

    def __init__(self, name: str, lower: float, upper: float, kind: VarKind, index: int):
        if not name:
            raise SolverError("variable name must be non-empty")
        if math.isnan(lower) or math.isnan(upper):
            raise SolverError(f"variable {name!r} has NaN bounds")
        if lower > upper:
            raise SolverError(f"variable {name!r} has empty domain [{lower}, {upper}]")
        self.name = name
        self.lower = lower
        self.upper = upper
        self.kind = kind
        self.index = index

    @property
    def is_integral(self) -> bool:
        """Whether the variable must take integer values."""
        return self.kind in (VarKind.INTEGER, VarKind.BINARY)

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, [{self.lower}, {self.upper}], {self.kind.value})"

    # -- algebra (delegate to LinearExpression) --------------------------

    def _as_expression(self) -> "LinearExpression":
        return LinearExpression({self: 1.0}, 0.0)

    def __add__(self, other):
        return self._as_expression() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._as_expression() - other

    def __rsub__(self, other):
        return (-self._as_expression()) + other

    def __neg__(self):
        return -self._as_expression()

    def __mul__(self, factor):
        return self._as_expression() * factor

    __rmul__ = __mul__

    def __le__(self, other):
        return self._as_expression() <= other

    def __ge__(self, other):
        return self._as_expression() >= other

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinearExpression, Real)):
            return self._as_expression() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)


def _reject_non_finite(terms: Mapping[Variable, float], constant: float) -> None:
    """Raise :class:`SolverError` naming the first non-finite value, if any."""
    for var, coef in terms.items():
        if not math.isfinite(coef):
            raise SolverError(f"non-finite coefficient {coef!r} for variable {var.name!r}")
    if not math.isfinite(constant):
        raise SolverError(f"non-finite expression constant {constant!r}")


class LinearExpression:
    """An immutable affine expression ``sum(coef * var) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[Variable, float] | None = None, constant: float = 0.0):
        cleaned: dict[Variable, float] = {}
        for var, coef in (terms or {}).items():
            coef = float(coef)
            if coef != 0.0:
                cleaned[var] = coef
        constant = float(constant)
        # Any NaN or infinity makes the sum non-finite; a sum that merely
        # overflows on finite values is rejected by the scan below only
        # if some value really is non-finite.
        if not math.isfinite(constant + sum(cleaned.values())):
            _reject_non_finite(cleaned, constant)
        self.terms = cleaned
        self.constant = constant

    # -- construction helpers ---------------------------------------------

    @classmethod
    def sum_of(
        cls, pairs: Iterable[tuple[Variable, float]], constant: float = 0.0
    ) -> "LinearExpression":
        """Build ``sum(coef * var) + constant`` in one pass, merging duplicates."""
        terms: dict[Variable, float] = {}
        for var, coef in pairs:
            terms[var] = terms.get(var, 0.0) + float(coef)
        return cls(terms, constant)

    @staticmethod
    def _coerce(value) -> "LinearExpression":
        if isinstance(value, LinearExpression):
            return value
        if isinstance(value, Variable):
            return value._as_expression()
        if isinstance(value, Real):
            return LinearExpression({}, float(value))
        raise SolverError(f"cannot use {type(value).__name__} in a linear expression")

    # -- algebra ------------------------------------------------------------

    def __add__(self, other) -> "LinearExpression":
        other = self._coerce(other)
        terms = dict(self.terms)
        for var, coef in other.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
        return LinearExpression(terms, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other) -> "LinearExpression":
        return self + (self._coerce(other) * -1.0)

    def __rsub__(self, other) -> "LinearExpression":
        return self._coerce(other) + (self * -1.0)

    def __neg__(self) -> "LinearExpression":
        return self * -1.0

    def __mul__(self, factor) -> "LinearExpression":
        if not isinstance(factor, Real):
            raise SolverError("linear expressions can only be scaled by numbers")
        factor = float(factor)
        if not math.isfinite(factor):
            raise SolverError(f"non-finite scale factor {factor!r}")
        return LinearExpression(
            {var: coef * factor for var, coef in self.terms.items()}, self.constant * factor
        )

    __rmul__ = __mul__

    # -- comparisons build constraints ---------------------------------------

    def __le__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), ConstraintSense.LE)

    def __ge__(self, other) -> "Constraint":
        return Constraint(self - self._coerce(other), ConstraintSense.GE)

    def __eq__(self, other):  # type: ignore[override]
        if isinstance(other, (Variable, LinearExpression, Real)):
            return Constraint(self - self._coerce(other), ConstraintSense.EQ)
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, assignment: Mapping[Variable, float]) -> float:
        """The expression's value under a variable assignment."""
        return self.constant + sum(coef * assignment[var] for var, coef in self.terms.items())

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        if self.constant or not parts:
            parts.append(f"{self.constant:+g}")
        return " ".join(parts)


class ConstraintSense(str, enum.Enum):
    """Direction of a linear constraint, normalized as ``expr SENSE 0``."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expression (<=|>=|==) 0``.

    Comparison operators on expressions move everything to the left-hand
    side, so ``rhs`` below is the *normalized* right-hand side
    (``-expression.constant``) against the pure linear part.
    """

    __slots__ = ("expression", "sense", "name")

    def __init__(self, expression: LinearExpression, sense: ConstraintSense, name: str = ""):
        self.expression = expression
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        """Right-hand side once the constant moves across the relation."""
        return -self.expression.constant

    def named(self, name: str) -> "Constraint":
        """A copy of this constraint carrying ``name`` (for diagnostics)."""
        return Constraint(self.expression, self.sense, name)

    def satisfied_by(self, assignment: Mapping[Variable, float], tolerance: float = 1e-7) -> bool:
        """Whether the assignment satisfies the constraint within tolerance."""
        lhs = self.expression.evaluate(assignment)
        if self.sense is ConstraintSense.LE:
            return lhs <= tolerance
        if self.sense is ConstraintSense.GE:
            return lhs >= -tolerance
        return abs(lhs) <= tolerance

    def __repr__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        linear = LinearExpression(self.expression.terms, 0.0)
        return f"{label}{linear!r} {self.sense.value} {self.rhs:g}"
