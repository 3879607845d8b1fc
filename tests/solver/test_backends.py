"""Tests for the solver backends, and the enumeration oracle, on known instances."""

import numpy as np
import pytest

from repro.errors import LimitReachedError, SolverError, UnboundedError
from repro.solver import BACKENDS as BACKEND_NAMES
from repro.solver import MilpModel, ObjectiveSense, SolutionStatus, solve
from repro.solver.lp import solve_lp
from tests.conftest import knapsack_model, set_cover_model
from tests.solver.enumeration_oracle import MAX_INTEGER_VARIABLES, solve_by_enumeration

BACKENDS = ["scipy", "branch-and-bound", "enumeration"]


def solve_with(model, backend):
    """``solve`` for the real backends, the test-only oracle otherwise."""
    if backend == "enumeration":
        return solve_by_enumeration(model)
    return solve(model, backend)


class TestLp:
    def test_simple_lp(self):
        # max x + y st x + y <= 1.5, 0 <= x,y <= 1 -> 1.5
        result = solve_lp(
            c=np.array([-1.0, -1.0]),
            A_ub=np.array([[1.0, 1.0]]),
            b_ub=np.array([1.5]),
            A_eq=np.empty((0, 2)),
            b_eq=np.empty(0),
            lower=np.zeros(2),
            upper=np.ones(2),
        )
        assert result.is_optimal
        assert result.objective == pytest.approx(-1.5)

    def test_infeasible_lp(self):
        result = solve_lp(
            c=np.array([1.0]),
            A_ub=np.array([[1.0], [-1.0]]),
            b_ub=np.array([0.0, -1.0]),  # x <= 0 and x >= 1
            A_eq=np.empty((0, 1)),
            b_eq=np.empty(0),
            lower=np.zeros(1),
            upper=np.ones(1),
        )
        assert result.status == "infeasible"

    def test_unbounded_lp(self):
        result = solve_lp(
            c=np.array([-1.0]),
            A_ub=np.empty((0, 1)),
            b_ub=np.empty(0),
            A_eq=np.empty((0, 1)),
            b_eq=np.empty(0),
            lower=np.zeros(1),
            upper=np.array([np.inf]),
        )
        assert result.status == "unbounded"


@pytest.mark.parametrize("backend", BACKENDS)
class TestBackendsAgree:
    def test_knapsack_optimum(self, backend):
        solution = solve_with(knapsack_model(), backend)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(25.0)

    def test_set_cover_optimum(self, backend):
        solution = solve_with(set_cover_model(), backend)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(5.0)
        assert solution.value("A") == 1.0
        assert solution.value("B") == 0.0
        assert solution.value("C") == 1.0

    def test_infeasible(self, backend):
        model = MilpModel()
        x = model.binary("x")
        model.add_constraint(x >= 2)
        model.set_objective(x + 0.0)
        assert solve_with(model, backend).status is SolutionStatus.INFEASIBLE

    def test_solution_is_feasible(self, backend):
        model = knapsack_model()
        solution = solve_with(model, backend)
        assert model.is_feasible(solution.values)

    def test_mixed_integer_continuous(self, backend):
        # max 3x + z st 2x + z <= 3, z <= 1.5: x=1 (int), z=1 -> 4
        model = MilpModel()
        x = model.integer("x", 0, 5)
        z = model.continuous("z", 0, 1.5)
        model.add_constraint(2 * x + z <= 3)
        model.set_objective(3 * x + z)
        solution = solve_with(model, backend)
        assert solution.objective == pytest.approx(4.0)
        assert solution.value(x) == pytest.approx(1.0)

    def test_minimization_with_constant(self, backend):
        model = MilpModel(sense=ObjectiveSense.MINIMIZE)
        x = model.binary("x")
        model.add_constraint(x >= 1)
        model.set_objective(2 * x + 10)
        assert solve_with(model, backend).objective == pytest.approx(12.0)


class TestBackendSpecifics:
    def test_unknown_backend(self):
        with pytest.raises(SolverError, match="unknown backend"):
            solve(knapsack_model(), "cplex")

    @pytest.mark.parametrize("retired", ["enumeration", "parallel-bb"])
    def test_oracle_and_parallel_names_are_not_backends(self, retired):
        # The oracle lives under tests/; parallel B&B was retired.
        assert BACKEND_NAMES == ("scipy", "branch-and-bound", "fallback")
        with pytest.raises(SolverError, match="unknown backend"):
            solve(knapsack_model(), retired)

    def test_unbounded_raises(self):
        model = MilpModel(sense=ObjectiveSense.MAXIMIZE)
        z = model.continuous("z", 0, float("inf"))
        model.set_objective(z + 0.0)
        with pytest.raises(UnboundedError):
            solve(model, "scipy")
        with pytest.raises(UnboundedError):
            solve(model, "branch-and-bound")

    def test_enumeration_raises_on_unbounded_milp(self):
        # A leaf LP that is unbounded makes the MILP unbounded; it is not
        # an infeasible leaf to skip.
        model = MilpModel(sense=ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        y = model.continuous("y", 0, float("inf"))
        model.add_constraint(x <= 1)
        model.set_objective(x + y)
        with pytest.raises(UnboundedError):
            solve_by_enumeration(model)
        with pytest.raises(UnboundedError):
            solve(model, "branch-and-bound")

    def test_enumeration_refuses_large_models(self):
        model = MilpModel()
        x = [model.binary(f"x{i}") for i in range(MAX_INTEGER_VARIABLES + 1)]
        model.set_objective(sum(x, start=x[0] * 0))
        with pytest.raises(SolverError, match="at most"):
            solve_by_enumeration(model)

    def test_enumeration_refuses_unbounded_integers(self):
        model = MilpModel()
        x = model.integer("x", 0, float("inf"))
        model.set_objective(-1 * x)
        with pytest.raises(SolverError, match="finite bounds"):
            solve_by_enumeration(model)

    def test_bnb_reports_nodes(self):
        solution = solve(knapsack_model(), "branch-and-bound")
        assert solution.nodes_explored >= 1

    def test_bnb_time_limit_returns_incumbent_or_limit_stop(self):
        # The knapsack is feasible, so a limit stop is never INFEASIBLE.
        try:
            solution = solve(knapsack_model(), "branch-and-bound", time_limit=1e-9)
        except LimitReachedError as exc:
            assert exc.nodes_explored >= 1
        else:
            assert solution.status in (
                SolutionStatus.OPTIMAL,  # may finish within the first node
                SolutionStatus.FEASIBLE,
            )

    def test_empty_model_solves(self):
        model = MilpModel()
        x = model.binary("x")
        model.set_objective(x * 0)
        solution = solve(model, "scipy")
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(0.0)
