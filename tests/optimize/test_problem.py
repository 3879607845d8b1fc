"""Tests for MaxUtilityProblem and MinCostProblem."""

import itertools

import pytest

from repro.errors import InfeasibleError, OptimizationError
from repro.metrics.cost import Budget
from repro.metrics.coverage import attack_coverage
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem

BACKENDS = ["scipy", "branch-and-bound"]


def brute_force_max_utility(model, budget, weights):
    """Reference optimum by exhausting all subsets."""
    best = (0.0, frozenset())
    ids = sorted(model.monitors)
    for r in range(len(ids) + 1):
        for combo in itertools.combinations(ids, r):
            selected = frozenset(combo)
            if not budget.allows(model.deployment_cost(selected)):
                continue
            value = utility(model, selected, weights)
            if value > best[0] + 1e-12:
                best = (value, selected)
    return best


@pytest.mark.parametrize("backend", BACKENDS)
class TestMaxUtility:
    @pytest.mark.parametrize("cpu_budget", [0, 2, 4, 6, 9, 100])
    def test_matches_brute_force(self, toy_model, backend, cpu_budget):
        budget = Budget.of(cpu=cpu_budget)
        weights = UtilityWeights()
        result = MaxUtilityProblem(toy_model, budget, weights).solve(backend)
        best_value, _ = brute_force_max_utility(toy_model, budget, weights)
        assert result.utility == pytest.approx(best_value, abs=1e-6)
        assert result.optimal

    def test_objective_equals_reference_utility(self, toy_model, backend):
        result = MaxUtilityProblem(toy_model, Budget.of(cpu=6)).solve(backend)
        assert result.objective == pytest.approx(result.utility, abs=1e-6)

    def test_budget_respected(self, toy_model, backend):
        budget = Budget.of(cpu=6, network=2)
        result = MaxUtilityProblem(toy_model, budget).solve(backend)
        assert budget.allows(result.deployment.cost())

    def test_forced_monitors_present(self, toy_model, backend):
        result = MaxUtilityProblem(
            toy_model, Budget.of(cpu=100), forced_monitors=["mdb@h2"]
        ).solve(backend)
        assert "mdb@h2" in result.monitor_ids

    def test_forced_monitors_exceeding_budget_infeasible(self, toy_model, backend):
        with pytest.raises(InfeasibleError):
            MaxUtilityProblem(
                toy_model, Budget.of(cpu=1), forced_monitors=["mnet@n1"]
            ).solve(backend)


class TestMaxUtilityMisc:
    def test_zero_budget_selects_nothing_costly(self, toy_model):
        result = MaxUtilityProblem(toy_model, Budget.of(cpu=0.5)).solve()
        assert result.monitor_ids == frozenset()
        assert result.utility == 0.0

    def test_stats_reported(self, toy_model):
        result = MaxUtilityProblem(toy_model, Budget.of(cpu=6)).solve()
        assert result.stats["variables"] > 0
        assert result.stats["constraints"] > 0

    def test_multidimensional_budget_binds_tightest_dimension(self, toy_model):
        # Generous cpu but zero network forbids mnet@n1 specifically.
        result = MaxUtilityProblem(toy_model, Budget.of(cpu=100, network=1)).solve()
        assert "mnet@n1" not in result.monitor_ids

    def test_build_without_solve(self, toy_model):
        milp, builder = MaxUtilityProblem(toy_model, Budget.of(cpu=6)).build()
        assert milp.num_variables >= len(toy_model.monitors)
        assert set(builder.selection) == set(toy_model.monitors)


class TestMinCost:
    def test_requires_some_requirement(self, toy_model):
        with pytest.raises(OptimizationError, match="at least one requirement"):
            MinCostProblem(toy_model)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_min_utility_floor_met_cheaply(self, toy_model, backend):
        weights = UtilityWeights.coverage_only()
        result = MinCostProblem(toy_model, min_utility=0.5, weights=weights).solve(backend)
        assert utility(toy_model, result.monitor_ids, weights) >= 0.5 - 1e-6
        # No strictly cheaper subset satisfies the floor (brute force).
        ids = sorted(toy_model.monitors)
        for r in range(len(ids) + 1):
            for combo in itertools.combinations(ids, r):
                selected = frozenset(combo)
                if utility(toy_model, selected, weights) >= 0.5 - 1e-9:
                    cost = toy_model.deployment_cost(selected).scalarize()
                    assert cost >= result.objective - 1e-6

    def test_attack_coverage_floors(self, toy_model):
        result = MinCostProblem(toy_model, min_attack_coverage={"A": 0.9}).solve()
        assert attack_coverage(toy_model, result.monitor_ids, "A") >= 0.9 - 1e-6

    def test_fully_cover(self, toy_model):
        result = MinCostProblem(toy_model, fully_cover=["A", "B"]).solve()
        from repro.metrics.coverage import fully_covered_attacks

        assert fully_covered_attacks(toy_model, result.monitor_ids) >= {"A", "B"}

    def test_unattainable_floor_infeasible(self, toy_model):
        # Attack A's best possible coverage is 0.9 (e1=1.0, e2=0.8).
        with pytest.raises(InfeasibleError):
            MinCostProblem(toy_model, min_attack_coverage={"A": 0.95}).solve()

    def test_unknown_attack_rejected(self, toy_model):
        with pytest.raises(OptimizationError, match="unknown attack"):
            MinCostProblem(toy_model, min_attack_coverage={"ghost": 0.5})
        with pytest.raises(OptimizationError, match="unknown attack"):
            MinCostProblem(toy_model, fully_cover=["ghost"])

    def test_floor_out_of_range_rejected(self, toy_model):
        with pytest.raises(OptimizationError):
            MinCostProblem(toy_model, min_utility=1.5)
        with pytest.raises(OptimizationError):
            MinCostProblem(toy_model, min_attack_coverage={"A": -0.1})

    def test_cost_dimension_weights_change_optimum(self, toy_model):
        # Weighting network cost heavily should steer away from mnet@n1
        # when an alternative covering deployment exists.
        cheap_network = MinCostProblem(
            toy_model,
            fully_cover=["A"],
            cost_dimension_weights={"cpu": 1.0, "network": 100.0, "storage": 1.0},
        ).solve()
        assert "mnet@n1" not in cheap_network.monitor_ids

    def test_zero_floor_costs_nothing(self, toy_model):
        result = MinCostProblem(toy_model, min_utility=0.0).solve()
        assert result.monitor_ids == frozenset()
        assert result.objective == pytest.approx(0.0)


class TestCardinalityCap:
    def test_cap_respected(self, toy_model):
        result = MaxUtilityProblem(
            toy_model, Budget.of(cpu=100), max_monitors=2
        ).solve()
        assert len(result.deployment) <= 2
        assert result.optimal

    def test_cap_zero_selects_nothing(self, toy_model):
        result = MaxUtilityProblem(
            toy_model, Budget.of(cpu=100), max_monitors=0
        ).solve()
        assert result.monitor_ids == frozenset()

    def test_cap_binds_versus_uncapped(self, toy_model):
        uncapped = MaxUtilityProblem(toy_model, Budget.of(cpu=100)).solve()
        capped = MaxUtilityProblem(toy_model, Budget.of(cpu=100), max_monitors=1).solve()
        assert capped.utility <= uncapped.utility
        assert len(capped.deployment) == 1

    def test_capped_optimum_is_best_subset(self, toy_model):
        """max_monitors=1 must return the best single monitor."""
        weights = UtilityWeights()
        best_single = max(
            utility(toy_model, {m}, weights) for m in toy_model.monitors
        )
        capped = MaxUtilityProblem(
            toy_model, Budget.of(cpu=100), weights, max_monitors=1
        ).solve()
        assert capped.utility == pytest.approx(best_single)

    def test_negative_cap_rejected(self, toy_model):
        with pytest.raises(OptimizationError):
            MaxUtilityProblem(toy_model, Budget.of(cpu=100), max_monitors=-1)


class TestRedundantCover:
    def test_two_source_floor(self, toy_model):
        from repro.metrics.redundancy import event_evidence_count

        # Attack A's required events e1 and e2 each have two providers.
        result = MinCostProblem(toy_model, redundant_cover={"A": 2}).solve()
        attack = toy_model.attack("A")
        for event_id in attack.required_event_ids:
            assert event_evidence_count(toy_model, result.monitor_ids, event_id) >= 2

    def test_unattainable_floor_infeasible(self, toy_model):
        # e1 and e2 only have two providers each; three are impossible.
        with pytest.raises(InfeasibleError):
            MinCostProblem(toy_model, redundant_cover={"A": 3}).solve()

    def test_costs_more_than_single_cover(self, toy_model):
        single = MinCostProblem(toy_model, fully_cover=["A"]).solve()
        double = MinCostProblem(toy_model, redundant_cover={"A": 2}).solve()
        assert double.objective >= single.objective

    def test_validation(self, toy_model):
        with pytest.raises(OptimizationError, match="unknown attack"):
            MinCostProblem(toy_model, redundant_cover={"ghost": 2})
        with pytest.raises(OptimizationError, match=">= 1"):
            MinCostProblem(toy_model, redundant_cover={"A": 0})

    def test_counts_as_a_requirement(self, toy_model):
        # redundant_cover alone is a valid requirement set.
        result = MinCostProblem(toy_model, redundant_cover={"B": 1}).solve()
        assert result.optimal
