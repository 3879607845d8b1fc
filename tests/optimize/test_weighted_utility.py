"""The builder's single utility assembly, nominal and scenario-weighted."""

from __future__ import annotations

import pytest

from repro.casestudy.scaling import synthetic_model
from repro.metrics.utility import UtilityWeights
from repro.optimize.formulation import FormulationBuilder
from repro.optimize.robust import ImportanceScenario, _scenario_event_weights
from repro.solver.model import MilpModel


@pytest.fixture(scope="module")
def model():
    return synthetic_model(assets=12, monitors=24, attacks=10, seed=3)


def by_name(expr) -> dict[str, str]:
    return {var.name: coef.hex() for var, coef in expr.terms.items()}


def shifted(model) -> ImportanceScenario:
    first, second = sorted(model.attacks)[:2]
    return ImportanceScenario("shift", {first: 0.0, second: 1.0})


def test_nominal_assembly_is_the_cached_utility_expression(model):
    builder = FormulationBuilder(MilpModel("t"), model)
    weights = UtilityWeights()
    cached = builder.utility_expression(weights)
    assert builder.utility_expression(weights) is cached
    direct = builder.weighted_utility_expression(builder.event_objective_weights(), weights)
    assert direct is not cached
    assert by_name(direct) == by_name(cached)


def test_scenario_weights_never_reach_the_nominal_cache(model):
    weights = UtilityWeights()
    fresh = FormulationBuilder(MilpModel("fresh"), model).utility_expression(weights)

    builder = FormulationBuilder(MilpModel("robust"), model)
    scenario = builder.weighted_utility_expression(
        _scenario_event_weights(model, shifted(model)), weights
    )
    nominal = builder.utility_expression(weights)
    assert by_name(nominal) == by_name(fresh)
    assert by_name(scenario) != by_name(nominal)


def test_levels_are_shared_between_scenarios(model):
    builder = FormulationBuilder(MilpModel("t"), model)
    weights = UtilityWeights()
    builder.utility_expression(weights)
    variables = builder.milp.num_variables
    builder.weighted_utility_expression(_scenario_event_weights(model, shifted(model)), weights)
    assert builder.milp.num_variables == variables
