"""Tests for MilpModel construction and standard-form compilation."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import SolverError
from repro.solver.expressions import VarKind
from repro.solver.model import MilpModel, ObjectiveSense
from repro.solver.sparse import matrices_equal
from tests.solver.dense_oracle import dense_compile, to_dense


class TestVariables:
    def test_binary_bounds(self):
        model = MilpModel()
        x = model.binary("x")
        assert (x.lower, x.upper) == (0.0, 1.0)
        assert x.kind is VarKind.BINARY
        assert x.is_integral

    def test_continuous_not_integral(self):
        model = MilpModel()
        z = model.continuous("z", 1.0, 5.0)
        assert not z.is_integral

    def test_duplicate_name_rejected(self):
        model = MilpModel()
        model.binary("x")
        with pytest.raises(SolverError, match="duplicate"):
            model.continuous("x")

    def test_empty_domain_rejected(self):
        model = MilpModel()
        with pytest.raises(SolverError, match="empty domain"):
            model.integer("x", 3, 2)

    def test_counts(self):
        model = MilpModel()
        model.binary("a")
        model.integer("b", 0, 5)
        model.continuous("c")
        assert model.num_variables == 3
        assert model.num_integer_variables == 2

    def test_foreign_variable_rejected(self):
        m1, m2 = MilpModel("m1"), MilpModel("m2")
        x = m1.binary("x")
        m2.binary("x")  # same name, different model
        with pytest.raises(SolverError, match="belong"):
            m2.add_constraint(x <= 1)
        with pytest.raises(SolverError, match="belong"):
            m2.set_objective(x + 0.0)


class TestCompile:
    def test_maximize_negates_objective(self):
        model = MilpModel(sense=ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        model.set_objective(2 * x)
        form = model.compile()
        assert form.c[x.index] == -2.0
        assert form.maximize

    def test_minimize_keeps_objective(self):
        model = MilpModel(sense=ObjectiveSense.MINIMIZE)
        x = model.binary("x")
        model.set_objective(2 * x)
        assert model.compile().c[x.index] == 2.0

    def test_ge_converted_to_le(self):
        model = MilpModel()
        x, y = model.binary("x"), model.binary("y")
        model.add_constraint(x + 2 * y >= 1)
        form = model.compile()
        assert form.A_ub.shape == (1, 2)
        assert sp.isspmatrix_csr(form.A_ub)
        np.testing.assert_allclose(to_dense(form.A_ub)[0], [-1.0, -2.0])
        assert form.b_ub[0] == -1.0

    def test_compile_is_csr_and_matches_the_dense_oracle(self):
        model = MilpModel()
        x, y = model.binary("x"), model.binary("y")
        model.add_constraint(x + 2 * y <= 1, name="r")
        model.set_objective(x + y)
        form = model.compile()
        assert sp.isspmatrix_csr(form.A_ub) and sp.isspmatrix_csr(form.A_eq)
        oracle = dense_compile(model)
        np.testing.assert_array_equal(to_dense(form.A_ub), oracle.A_ub)
        np.testing.assert_array_equal(to_dense(form.A_eq), oracle.A_eq)

    def test_eq_rows_separate(self):
        model = MilpModel()
        x = model.binary("x")
        model.add_constraint(x + 0.0 == 1)
        form = model.compile()
        assert form.A_eq.shape == (1, 1)
        assert form.A_ub.shape == (0, 1)

    def test_integrality_mask(self):
        model = MilpModel()
        model.binary("x")
        model.continuous("z")
        mask = model.compile().integrality
        np.testing.assert_array_equal(mask, [True, False])

    def test_objective_constant_round_trip(self):
        model = MilpModel(sense=ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        model.set_objective(x + 5.0)
        form = model.compile()
        # backend minimizes -x; at x=1 the minimized value is -1
        assert form.objective_in_model_sense(-1.0) == pytest.approx(6.0)


class TestFeasibility:
    @pytest.fixture()
    def model(self):
        m = MilpModel()
        x = m.binary("x")
        z = m.continuous("z", 0, 2)
        m.add_constraint(x + z <= 2)
        m.set_objective(x + z)
        return m

    def test_feasible_assignment(self, model):
        assert model.is_feasible({"x": 1.0, "z": 1.0})

    def test_constraint_violation(self, model):
        assert not model.is_feasible({"x": 1.0, "z": 1.5})

    def test_bound_violation(self, model):
        assert not model.is_feasible({"x": 0.0, "z": 3.0})

    def test_integrality_violation(self, model):
        assert not model.is_feasible({"x": 0.5, "z": 0.0})

    def test_missing_variable(self, model):
        with pytest.raises(SolverError, match="missing"):
            model.is_feasible({"x": 1.0})

    def test_objective_value(self, model):
        assert model.objective_value({"x": 1.0, "z": 0.5}) == 1.5

    def test_constraint_requires_constraint_object(self, model):
        with pytest.raises(SolverError, match="expected a Constraint"):
            model.add_constraint(True)  # a comparison that collapsed to bool


class TestTruncateAndRecompile:
    """The rollback primitive behind formulation reuse must be exact."""

    def build(self, rhs: float) -> MilpModel:
        m = MilpModel("core", ObjectiveSense.MAXIMIZE)
        x, y = m.binary("x"), m.binary("y")
        z = m.continuous("z", 0, 2)
        m.add_constraint(x + y + z <= 2, name="shared")
        m.add_constraint(2 * x + y >= 1, name="shared_ge")
        m.set_objective(3 * x + 2 * y + z)
        m.add_constraint(x + 2 * y <= rhs, name="budget")
        return m

    def assert_identical(self, left, right):
        import numpy as np

        for field in ("c", "b_ub", "b_eq", "lower", "upper", "integrality"):
            assert np.array_equal(getattr(left, field), getattr(right, field)), field
        for field in ("A_ub", "A_eq"):
            assert matrices_equal(getattr(left, field), getattr(right, field)), field
        assert left.objective_constant == right.objective_constant
        assert left.maximize == right.maximize

    def test_truncate_then_reappend_is_bit_identical(self):
        reused = self.build(1.5)
        reused.compile()  # populate the row memo
        x, y = reused.variables[0], reused.variables[1]
        for rhs in (0.5, 1.0, 2.0):
            reused.truncate_constraints(2)
            reused.add_constraint(x + 2 * y <= rhs, name="budget")
            self.assert_identical(reused.compile(), self.build(rhs).compile())

    def test_truncate_drops_trailing_constraints(self):
        model = self.build(1.0)
        model.truncate_constraints(2)
        assert [c.name for c in model.constraints] == ["shared", "shared_ge"]

    def test_truncate_rejects_out_of_range_counts(self):
        model = self.build(1.0)
        with pytest.raises(SolverError, match="cannot truncate"):
            model.truncate_constraints(4)
        with pytest.raises(SolverError, match="cannot truncate"):
            model.truncate_constraints(-1)

    def test_row_memo_survives_new_variables(self):
        # Sparse memo rows name columns, not a vector width, so rows
        # memoized before a variable was added stay valid and the new
        # compile widens the matrix around them.
        model = MilpModel("grow", ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        model.add_constraint(x <= 1, name="r")
        model.set_objective(x)
        assert model.compile().A_ub.shape == (1, 1)
        y = model.binary("y")
        model.add_constraint(x + y <= 1, name="r2")
        form = model.compile()
        assert form.A_ub.shape == (2, 2)
        assert to_dense(form.A_ub)[0].tolist() == [1.0, 0.0]
        assert to_dense(form.A_ub)[1].tolist() == [1.0, 1.0]
