"""Tests for budget sweeps and Pareto frontier extraction."""

import pytest

from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment
from repro.optimize.greedy import solve_greedy
from repro.optimize.pareto import (
    budget_sweep,
    heuristic_sweep,
    pareto_frontier,
    solve_time_profile,
)

FRACTIONS = [0.0, 0.25, 0.5, 1.0]


class TestBudgetSweep:
    def test_utility_nondecreasing_in_budget(self, toy_model):
        points = budget_sweep(toy_model, FRACTIONS)
        utilities = [p.utility for p in points]
        assert utilities == sorted(utilities)

    def test_zero_fraction_zero_utility(self, toy_model):
        points = budget_sweep(toy_model, [0.0])
        assert points[0].utility == 0.0

    def test_full_fraction_reaches_full_utility(self, toy_model):
        from repro.metrics.utility import utility

        points = budget_sweep(toy_model, [1.0])
        assert points[0].utility == pytest.approx(
            utility(toy_model, toy_model.monitors)
        )

    def test_points_carry_budget_and_result(self, toy_model):
        point = budget_sweep(toy_model, [0.5])[0]
        assert point.fraction == 0.5
        assert point.budget.allows(point.result.deployment.cost())
        assert point.scalar_cost <= toy_model.total_cost().scalarize() * 0.5 + 1e-9


class TestHeuristicSweep:
    def test_same_budgets_as_exact_sweep(self, toy_model):
        exact = budget_sweep(toy_model, FRACTIONS)
        greedy = heuristic_sweep(toy_model, FRACTIONS, solve_greedy)
        for e, g in zip(exact, greedy):
            assert e.fraction == g.fraction
            assert g.utility <= e.utility + 1e-9

    def test_custom_weights_forwarded(self, toy_model):
        weights = UtilityWeights.coverage_only()
        points = heuristic_sweep(toy_model, [1.0], solve_greedy, weights)
        from repro.metrics.coverage import overall_coverage

        assert points[0].utility == pytest.approx(
            overall_coverage(toy_model, points[0].result.monitor_ids)
        )


class TestParetoFrontier:
    def test_dominated_deployments_removed(self, toy_model):
        cheap_good = Deployment.of(toy_model, ["mnet@n1"])  # cost 6
        expensive_same = Deployment.of(toy_model, ["mnet@n1", "mlog@h2"])  # higher utility
        everything = Deployment.full(toy_model)
        frontier = pareto_frontier([cheap_good, expensive_same, everything])
        costs = [c for c, _, _ in frontier]
        utilities = [u for _, u, _ in frontier]
        assert costs == sorted(costs)
        assert utilities == sorted(utilities)
        # strictly increasing utility along the frontier
        assert all(b > a for a, b in zip(utilities, utilities[1:]))

    def test_duplicate_cost_keeps_best(self, toy_model):
        a = Deployment.of(toy_model, ["mlog@h1"])  # cpu 2, storage 1
        b = Deployment.of(toy_model, ["mlog@h2"])  # same cost, different utility
        frontier = pareto_frontier([a, b])
        assert len(frontier) == 1

    def test_empty_input(self):
        assert pareto_frontier([]) == []


class TestSolveTimeProfile:
    def test_aggregates(self, toy_model):
        points = budget_sweep(toy_model, [0.5, 1.0])
        profile = solve_time_profile(points)
        assert profile["total"] >= profile["max"] >= profile["mean"] > 0

    def test_empty(self):
        assert solve_time_profile([]) == {"total": 0.0, "mean": 0.0, "max": 0.0}
