"""Tests for the linear-expression DSL."""

import pytest

from repro.errors import SolverError
from repro.solver.expressions import ConstraintSense, LinearExpression
from repro.solver.model import MilpModel


@pytest.fixture()
def variables():
    model = MilpModel("expr-test")
    return model.binary("x"), model.binary("y"), model.continuous("z", 0, 10)


class TestAlgebra:
    def test_variable_plus_variable(self, variables):
        x, y, _ = variables
        expr = x + y
        assert expr.terms == {x: 1.0, y: 1.0}
        assert expr.constant == 0.0

    def test_scaling(self, variables):
        x, _, _ = variables
        assert (3 * x).terms == {x: 3.0}
        assert (x * 3).terms == {x: 3.0}

    def test_constant_folding(self, variables):
        x, _, _ = variables
        expr = 2 * x + 1 + 2
        assert expr.constant == 3.0

    def test_subtraction(self, variables):
        x, y, _ = variables
        expr = 2 * x - y - 1
        assert expr.terms == {x: 2.0, y: -1.0}
        assert expr.constant == -1.0

    def test_rsub(self, variables):
        x, _, _ = variables
        expr = 5 - x
        assert expr.terms == {x: -1.0}
        assert expr.constant == 5.0

    def test_negation(self, variables):
        x, y, _ = variables
        expr = -(x + 2 * y + 1)
        assert expr.terms == {x: -1.0, y: -2.0}
        assert expr.constant == -1.0

    def test_zero_coefficients_dropped(self, variables):
        x, y, _ = variables
        expr = x + y - x
        assert expr.terms == {y: 1.0}

    def test_sum_of_merges_duplicates(self, variables):
        x, y, _ = variables
        expr = LinearExpression.sum_of([(x, 1.0), (x, 2.0), (y, -1.0)])
        assert expr.terms == {x: 3.0, y: -1.0}

    def test_builtin_sum_works(self, variables):
        x, y, z = variables
        expr = sum([x, y, z], LinearExpression())
        assert set(expr.terms) == {x, y, z}

    def test_nonlinear_rejected(self, variables):
        x, y, _ = variables
        with pytest.raises((SolverError, TypeError)):
            x * y  # noqa: B018 — the multiplication itself must fail

    def test_non_finite_rejected(self, variables):
        x, _, _ = variables
        with pytest.raises(SolverError):
            x * float("nan")

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_factor_rejected_on_any_expression(self, variables, factor):
        x, y, _ = variables
        with pytest.raises(SolverError, match="scale factor"):
            (2 * x + y + 1) * factor
        with pytest.raises(SolverError, match="scale factor"):
            LinearExpression() * factor

    def test_overflow_rejected(self, variables):
        x, y, _ = variables
        big = x * 1e308
        with pytest.raises(SolverError, match="non-finite coefficient"):
            big * 10.0
        with pytest.raises(SolverError, match="non-finite coefficient"):
            big + x * 1e308
        with pytest.raises(SolverError, match="non-finite expression constant"):
            (x + 1e308) + 1e308
        with pytest.raises(SolverError, match="non-finite coefficient"):
            LinearExpression.sum_of([(x, 1e308), (y, 1.0), (x, 1e308)])

    def test_non_finite_inputs_rejected(self, variables):
        x, y, _ = variables
        with pytest.raises(SolverError, match="non-finite coefficient"):
            LinearExpression({x: 1.0, y: float("inf")})
        with pytest.raises(SolverError, match="non-finite coefficient"):
            LinearExpression.sum_of([(x, 1.0), (y, float("nan"))])
        with pytest.raises(SolverError, match="non-finite expression constant"):
            LinearExpression({x: 1.0}, float("nan"))
        with pytest.raises(SolverError, match="non-finite expression constant"):
            x + float("inf")

    def test_large_finite_terms_whose_sum_overflows_are_valid(self, variables):
        x, y, z = variables
        expr = x * 1e308 + y * 1e308 + z * 1e308 + 1e308
        assert expr.terms == {x: 1e308, y: 1e308, z: 1e308}
        assert expr.constant == 1e308

    def test_evaluate(self, variables):
        x, y, _ = variables
        expr = 2 * x + 3 * y + 1
        assert expr.evaluate({x: 1.0, y: 0.0}) == 3.0
        assert expr.evaluate({x: 1.0, y: 1.0}) == 6.0


class TestConstraints:
    def test_le_moves_constant(self, variables):
        x, _, _ = variables
        constraint = 2 * x + 1 <= 5
        assert constraint.sense is ConstraintSense.LE
        assert constraint.rhs == 4.0

    def test_ge(self, variables):
        x, y, _ = variables
        constraint = x + y >= 1
        assert constraint.sense is ConstraintSense.GE
        assert constraint.rhs == 1.0

    def test_eq(self, variables):
        x, _, _ = variables
        constraint = x + 0.0 == 1
        assert constraint.sense is ConstraintSense.EQ

    def test_expression_vs_expression(self, variables):
        x, y, _ = variables
        constraint = x + 1 <= y + 3
        assert constraint.expression.terms == {x: 1.0, y: -1.0}
        assert constraint.rhs == 2.0

    def test_satisfied_by(self, variables):
        x, y, _ = variables
        constraint = x + y <= 1
        assert constraint.satisfied_by({x: 1.0, y: 0.0})
        assert not constraint.satisfied_by({x: 1.0, y: 1.0})

    def test_ge_satisfied_by(self, variables):
        x, y, _ = variables
        constraint = x + y >= 1
        assert constraint.satisfied_by({x: 0.0, y: 1.0})
        assert not constraint.satisfied_by({x: 0.0, y: 0.0})

    def test_named(self, variables):
        x, _, _ = variables
        constraint = (x <= 1).named("cap")
        assert constraint.name == "cap"
        assert "cap" in repr(constraint)
