"""Tests for per-monitor contribution analysis."""

import pytest

from repro import obs
from repro.analysis.contribution import (
    add_one_in,
    contribution_report,
    leave_one_out,
    shapley_values,
)
from repro.errors import MetricError
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.deployment import Deployment
from repro.runtime.engine import engine_for

WEIGHTS = UtilityWeights()


class TestLeaveOneOut:
    def test_values_match_direct_computation(self, toy_model):
        deployment = Deployment.of(toy_model, ["mnet@n1", "mdb@h2"])
        base = utility(toy_model, deployment.monitor_ids, WEIGHTS)
        values = {v.monitor_id: v.value for v in leave_one_out(toy_model, deployment, WEIGHTS)}
        for monitor_id in deployment.monitor_ids:
            expected = base - utility(
                toy_model, deployment.monitor_ids - {monitor_id}, WEIGHTS
            )
            assert values[monitor_id] == pytest.approx(expected)

    def test_sorted_descending(self, toy_model):
        values = leave_one_out(toy_model, Deployment.full(toy_model), WEIGHTS)
        assert [v.value for v in values] == sorted((v.value for v in values), reverse=True)

    def test_values_nonnegative(self, toy_model):
        # Utility is monotone, so removing a monitor never helps.
        for v in leave_one_out(toy_model, Deployment.full(toy_model), WEIGHTS):
            assert v.value >= -1e-12

    def test_empty_deployment(self, toy_model):
        assert leave_one_out(toy_model, Deployment.empty(toy_model), WEIGHTS) == []


class TestAddOneIn:
    def test_only_unselected_monitors(self, toy_model):
        deployment = Deployment.of(toy_model, ["mnet@n1"])
        ids = {v.monitor_id for v in add_one_in(toy_model, deployment, WEIGHTS)}
        assert ids == set(toy_model.monitors) - {"mnet@n1"}

    def test_values_match_direct_computation(self, toy_model):
        deployment = Deployment.of(toy_model, ["mnet@n1"])
        base = utility(toy_model, deployment.monitor_ids, WEIGHTS)
        for v in add_one_in(toy_model, deployment, WEIGHTS):
            expected = (
                utility(toy_model, deployment.monitor_ids | {v.monitor_id}, WEIGHTS) - base
            )
            assert v.value == pytest.approx(expected)

    def test_full_deployment_nothing_to_add(self, toy_model):
        assert add_one_in(toy_model, Deployment.full(toy_model), WEIGHTS) == []


class TestShapley:
    def test_efficiency_axiom(self, toy_model):
        """Shapley values sum to the deployment's total utility."""
        deployment = Deployment.full(toy_model)
        values = shapley_values(toy_model, deployment, WEIGHTS, samples=300, seed=1)
        total = sum(v.value for v in values)
        assert total == pytest.approx(utility(toy_model, deployment.monitor_ids, WEIGHTS))

    def test_deterministic_per_seed(self, toy_model):
        deployment = Deployment.full(toy_model)
        a = shapley_values(toy_model, deployment, WEIGHTS, samples=50, seed=3)
        b = shapley_values(toy_model, deployment, WEIGHTS, samples=50, seed=3)
        assert [(v.monitor_id, v.value) for v in a] == [(v.monitor_id, v.value) for v in b]

    def test_shapley_at_least_leave_one_out(self, toy_model):
        """For a monotone (submodular) utility, Shapley credit for each
        monitor is at least its leave-one-out value."""
        deployment = Deployment.full(toy_model)
        loo = {v.monitor_id: v.value for v in leave_one_out(toy_model, deployment, WEIGHTS)}
        for v in shapley_values(toy_model, deployment, WEIGHTS, samples=400, seed=0):
            assert v.value >= loo[v.monitor_id] - 0.02  # sampling tolerance

    def test_empty_deployment(self, toy_model):
        assert shapley_values(toy_model, Deployment.empty(toy_model), WEIGHTS) == []

    def test_invalid_samples(self, toy_model):
        with pytest.raises(MetricError):
            shapley_values(toy_model, Deployment.full(toy_model), samples=0)

    def test_traced_run_opens_one_shapley_span_around_the_chunk_map(self, toy_model):
        deployment = Deployment.full(toy_model)
        with obs.capture() as cap:
            shapley_values(toy_model, deployment, WEIGHTS, samples=40, seed=2, workers=1)
        (span,) = [s for s in cap.tracer.export_spans() if s["name"] == "analysis.shapley"]
        table = engine_for(toy_model).provider_table(sorted(deployment.monitor_ids), WEIGHTS)
        assert span["args"] == {"samples": 40, "chunks": 2, "monitors": 4, "cells": table.cells}
        assert [child["name"] for child in span["children"]] == ["parallel.map"]


class TestValuePerCost:
    def test_finite_ratio(self, toy_model):
        deployment = Deployment.of(toy_model, ["mnet@n1"])
        (value,) = leave_one_out(toy_model, deployment, WEIGHTS)
        assert value.value_per_cost == pytest.approx(value.value / 6.0)

    def test_report_renders(self, toy_model):
        text = contribution_report(
            toy_model, Deployment.full(toy_model), WEIGHTS, shapley_samples=50
        )
        assert "Monitor contributions" in text
        assert "mnet@n1" in text
