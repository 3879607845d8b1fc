"""Branch-and-bound regressions and warm-start controls.

Covers three behaviours that plain backend cross-validation misses: the
pure-LP degenerate case (no integral variables at all), the snapped-
incumbent feasibility check (an LP point inside the integrality
tolerance whose rounding violates a large-coefficient row), and the
warm-start / dual-bound / node-budget knobs that the solve sessions and
the fallback chain rely on.
"""

import numpy as np
import pytest

from repro import obs
from repro.solver import MilpModel, ObjectiveSense, SolutionStatus, solve
from repro.solver.branch_and_bound import (
    _most_fractional,
    _snapped_if_feasible,
    solve_branch_and_bound,
)
from tests.conftest import knapsack_model as knapsack


class TestPureLpModels:
    def test_most_fractional_handles_no_integral_variables(self):
        # Regression: np.argmax over an empty candidate set raised
        # "attempt to get argmax of an empty sequence".
        assert _most_fractional(np.array([0.5, 0.25]), np.array([], dtype=int)) is None

    def test_continuous_only_model_solves(self):
        model = MilpModel("lp-only", ObjectiveSense.MAXIMIZE)
        x = model.continuous("x", 0, 4)
        y = model.continuous("y", 0, 4)
        model.add_constraint(x + y <= 5, name="cap")
        model.set_objective(2 * x + 3 * y)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(14.0)  # y=4, x=1


class TestSnappedIncumbentFeasibility:
    def test_rounding_across_a_tight_big_coefficient_row_is_rejected(self):
        # x = 1 - 1e-8 is inside the integrality tolerance, but rounding
        # to 1 pushes the 10000-coefficient row 1e-4 over its cap.
        model = MilpModel("tight", ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        model.add_constraint(10000 * x <= 9999.9999, name="cap")
        model.set_objective(5 * x)
        form = model.compile()
        assert (
            _snapped_if_feasible(form, np.array([1.0 - 1e-8]), np.array([0])) is None
        )

    def test_solver_reports_the_true_feasible_optimum(self):
        # End-to-end version of the case above: the LP relaxation's
        # optimum snaps infeasible, so the only integer-feasible choice
        # is x = 0.  An unchecked snap used to report x = 1 (objective
        # 5) — an infeasible "optimum".
        model = MilpModel("tight", ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        model.add_constraint(10000 * x <= 9999.9999, name="cap")
        model.set_objective(5 * x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.values == {"x": 0.0}
        assert solution.objective == pytest.approx(0.0)
        assert model.is_feasible(solution.values)

    def test_feasible_snap_is_accepted_verbatim(self):
        form = knapsack().compile()
        snapped = _snapped_if_feasible(
            form, np.array([1.0 - 1e-8, 1.0, 0.0, 1e-9, 0.0]), np.arange(5)
        )
        assert snapped is not None
        assert snapped.tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]


class TestWarmStartControls:
    def test_feasible_seed_is_accepted_and_optimum_unchanged(self):
        seed = {"x0": 0.0, "x1": 1.0, "x2": 0.0, "x3": 0.0, "x4": 1.0}  # value 25
        with obs.capture() as cap:
            solution = solve_branch_and_bound(knapsack(), warm_start=seed)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(25.0)
        counters = cap.registry.snapshot()["counters"]
        assert counters.get("solver.warm_start.accepted") == 1.0

    def test_infeasible_seed_is_rejected_not_fatal(self):
        seed = {f"x{i}": 1.0 for i in range(5)}  # weight 16 > capacity 8
        with obs.capture() as cap:
            solution = solve_branch_and_bound(knapsack(), warm_start=seed)
        assert solution.objective == pytest.approx(25.0)
        counters = cap.registry.snapshot()["counters"]
        assert counters.get("solver.warm_start.rejected") == 1.0

    def test_incomplete_seed_is_rejected_not_fatal(self):
        solution = solve_branch_and_bound(knapsack(), warm_start={"x0": 1.0})
        assert solution.objective == pytest.approx(25.0)

    def test_known_bound_preserves_the_optimum(self):
        cold = solve_branch_and_bound(knapsack())
        seed = {"x0": 0.0, "x1": 1.0, "x2": 0.0, "x3": 0.0, "x4": 1.0}
        warm = solve_branch_and_bound(
            knapsack(), warm_start=seed, known_bound=cold.objective
        )
        assert warm.status is SolutionStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        # Seed + exact bound close the gap at the root.
        assert warm.nodes_explored <= cold.nodes_explored

    def test_node_budget_degrades_to_feasible_with_a_seed(self):
        seed = {"x0": 1.0, "x1": 1.0, "x2": 0.0, "x3": 0.0, "x4": 0.0}  # value 23
        solution = solve_branch_and_bound(knapsack(), max_nodes=1, warm_start=seed)
        assert solution.status in (SolutionStatus.OPTIMAL, SolutionStatus.FEASIBLE)
        assert solution.objective >= 23.0 - 1e-9

    def test_loose_gap_accepts_the_seed_early(self):
        seed = {"x0": 0.0, "x1": 1.0, "x2": 0.0, "x3": 0.0, "x4": 1.0}  # the optimum
        solution = solve_branch_and_bound(knapsack(), warm_start=seed, gap=0.5)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(25.0)


class TestDispatcherControls:
    @pytest.mark.parametrize("backend", ["scipy", "branch-and-bound"])
    def test_gap_and_node_controls_thread_through_solve(self, backend):
        solution = solve(knapsack(), backend, max_nodes=100_000, gap=1e-9)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(25.0)
