"""Tests for the combined utility function and its weights."""

import pytest

from repro.errors import MetricError, UnknownIdError
from repro.metrics.coverage import overall_coverage
from repro.metrics.redundancy import overall_redundancy
from repro.metrics.richness import overall_richness
from repro.metrics.utility import UtilityWeights, attack_utility, utility, utility_breakdown

NET_ONLY = {"mnet@n1"}
ALL = {"mlog@h1", "mlog@h2", "mnet@n1", "mdb@h2"}


class TestUtilityWeights:
    def test_default_sums_to_one(self):
        w = UtilityWeights()
        assert w.coverage + w.redundancy + w.richness == pytest.approx(1.0)

    def test_rejects_bad_sum(self):
        with pytest.raises(MetricError, match="sum to 1"):
            UtilityWeights(coverage=0.5, redundancy=0.5, richness=0.5)

    def test_rejects_negative(self):
        with pytest.raises(MetricError):
            UtilityWeights(coverage=1.2, redundancy=-0.2, richness=0.0)

    def test_rejects_bad_cap(self):
        with pytest.raises(MetricError):
            UtilityWeights(coverage=1.0, redundancy=0.0, richness=0.0, redundancy_cap=0)

    def test_coverage_only(self):
        w = UtilityWeights.coverage_only()
        assert (w.coverage, w.redundancy, w.richness) == (1.0, 0.0, 0.0)

    def test_tradeoff(self):
        w = UtilityWeights.tradeoff(0.3)
        assert w.coverage == pytest.approx(0.7)
        assert w.redundancy == pytest.approx(0.3)
        assert w.richness == 0.0

    def test_tradeoff_range(self):
        with pytest.raises(MetricError):
            UtilityWeights.tradeoff(1.5)


class TestUtility:
    def test_coverage_only_equals_coverage(self, toy_model):
        w = UtilityWeights.coverage_only()
        assert utility(toy_model, NET_ONLY, w) == pytest.approx(
            overall_coverage(toy_model, NET_ONLY)
        )

    def test_convex_combination(self, toy_model):
        w = UtilityWeights(coverage=0.6, redundancy=0.25, richness=0.15)
        expected = (
            0.6 * overall_coverage(toy_model, NET_ONLY)
            + 0.25 * overall_redundancy(toy_model, NET_ONLY, 2)
            + 0.15 * overall_richness(toy_model, NET_ONLY)
        )
        assert utility(toy_model, NET_ONLY, w) == pytest.approx(expected)

    def test_default_weights_used_when_omitted(self, toy_model):
        assert utility(toy_model, NET_ONLY) == pytest.approx(
            utility(toy_model, NET_ONLY, UtilityWeights())
        )

    def test_empty_deployment_zero(self, toy_model):
        assert utility(toy_model, set()) == 0.0

    def test_bounded_by_one(self, toy_model):
        assert utility(toy_model, ALL) <= 1.0

    def test_redundancy_cap_changes_value(self, toy_model):
        w2 = UtilityWeights(coverage=0.0, redundancy=1.0, richness=0.0, redundancy_cap=2)
        w3 = UtilityWeights(coverage=0.0, redundancy=1.0, richness=0.0, redundancy_cap=3)
        assert utility(toy_model, ALL, w2) > utility(toy_model, ALL, w3)


class TestBreakdown:
    def test_components_match_metrics(self, toy_model):
        breakdown = utility_breakdown(toy_model, NET_ONLY)
        assert breakdown["coverage"] == pytest.approx(overall_coverage(toy_model, NET_ONLY))
        assert breakdown["redundancy"] == pytest.approx(
            overall_redundancy(toy_model, NET_ONLY, 2)
        )
        assert breakdown["richness"] == pytest.approx(overall_richness(toy_model, NET_ONLY))

    def test_utility_consistent_with_components(self, toy_model):
        w = UtilityWeights()
        breakdown = utility_breakdown(toy_model, NET_ONLY, w)
        recombined = (
            w.coverage * breakdown["coverage"]
            + w.redundancy * breakdown["redundancy"]
            + w.richness * breakdown["richness"]
        )
        assert breakdown["utility"] == pytest.approx(recombined)
        assert breakdown["utility"] == pytest.approx(utility(toy_model, NET_ONLY, w))


class TestAttackUtility:
    def test_per_attack_value(self, toy_model):
        w = UtilityWeights.coverage_only()
        assert attack_utility(toy_model, NET_ONLY, "A", w) == pytest.approx(0.45)

    def test_bounded(self, toy_model):
        for attack_id in toy_model.attacks:
            value = attack_utility(toy_model, ALL, attack_id)
            assert 0.0 <= value <= 1.0


WEIGHT_VECTORS = {
    "default": UtilityWeights(),
    "coverage_only": UtilityWeights.coverage_only(),
    "redundancy_only": UtilityWeights(coverage=0.0, redundancy=1.0, richness=0.0),
    "richness_only": UtilityWeights(coverage=0.0, redundancy=0.0, richness=1.0),
    "tradeoff": UtilityWeights.tradeoff(0.5),
}


class TestUnknownIds:
    """Every weight vector rejects an unknown deployed id the same way."""

    @pytest.mark.parametrize("weights", WEIGHT_VECTORS.values(), ids=WEIGHT_VECTORS.keys())
    @pytest.mark.parametrize("deployed", [["nope"], ["mnet@n1", "nope"]])
    def test_utility_raises(self, toy_model, weights, deployed):
        with pytest.raises(UnknownIdError, match="nope"):
            utility(toy_model, deployed, weights)

    @pytest.mark.parametrize("weights", WEIGHT_VECTORS.values(), ids=WEIGHT_VECTORS.keys())
    def test_breakdown_raises(self, toy_model, weights):
        with pytest.raises(UnknownIdError, match="nope"):
            utility_breakdown(toy_model, ["nope"], weights)

    @pytest.mark.parametrize("weights", WEIGHT_VECTORS.values(), ids=WEIGHT_VECTORS.keys())
    def test_attack_utility_raises(self, toy_model, weights):
        with pytest.raises(UnknownIdError, match="nope"):
            attack_utility(toy_model, ["nope"], "A", weights)

    def test_single_pass_iterable_accepted(self, toy_model):
        assert utility(toy_model, iter(sorted(ALL))) == utility(toy_model, ALL)
