"""Regression tests pinning the :class:`OptimizationResult` schema.

Every solver — exact and heuristic — returns the same dataclass with
the same field set, reports ``solve_seconds`` in **seconds sourced from
the ambient tracer**, and publishes a documented per-method ``stats``
dict.  Downstream consumers (CLI tables, benchmark JSON, the sweep
plots) key on these names; this file is the contract that keeps them
from drifting.
"""

import dataclasses

import pytest

from repro import obs
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.annealing import solve_annealing
from repro.optimize.deployment import OptimizationResult
from repro.optimize.greedy import solve_greedy
from repro.optimize.greedy_cover import solve_greedy_cover
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.optimize.random_search import solve_random

WEIGHTS = UtilityWeights()

RESULT_FIELDS = {
    "deployment",
    "objective",
    "utility",
    "solve_seconds",
    "method",
    "optimal",
    "stats",
    "selection_order",
    "failures",
}

STATS_KEYS = {
    "greedy": {"evaluations"},
    "annealing": {"iterations", "accepted"},
    "random": {"samples"},
    "greedy-cover": {"evaluations"},
    "ilp/scipy-milp": {"variables", "constraints", "nodes"},
}


def _results(toy_model) -> dict[str, OptimizationResult]:
    budget = Budget.of(cpu=6)
    return {
        "greedy": solve_greedy(toy_model, budget, WEIGHTS),
        "annealing": solve_annealing(toy_model, budget, WEIGHTS, iterations=50, seed=3),
        "random": solve_random(toy_model, budget, WEIGHTS, samples=20, seed=3),
        "greedy-cover": solve_greedy_cover(toy_model, 0.3, WEIGHTS),
        "ilp/scipy-milp": MaxUtilityProblem(toy_model, budget, WEIGHTS).solve(),
    }


def test_result_field_set_is_pinned():
    fields = {f.name for f in dataclasses.fields(OptimizationResult)}
    assert fields == RESULT_FIELDS


def test_every_method_reports_its_documented_stats(toy_model):
    for method, result in _results(toy_model).items():
        assert result.method == method
        assert set(result.stats) == STATS_KEYS[method], method
        assert all(isinstance(v, float) for v in result.stats.values()), method


def test_min_cost_shares_the_ilp_stats_schema(toy_model):
    result = MinCostProblem(toy_model, min_utility=0.3, weights=WEIGHTS).solve()
    assert result.method == "ilp/scipy-milp"
    assert set(result.stats) == STATS_KEYS["ilp/scipy-milp"]


def test_solve_seconds_is_sourced_from_the_tracer():
    """Under a ManualClock, solve_seconds is an exact tick count.

    The heuristics and ILP wrappers all take their wall time from the
    ambient tracer span, so with a fake clock ticking 1 s per reading
    the reported duration is a whole, positive, deterministic number of
    seconds — impossible if any solver still read real time directly.
    Each capture gets a fresh model so both runs pay for the same
    engine build.
    """
    from repro.casestudy.scaling import synthetic_model

    def fresh():
        return synthetic_model(
            assets=5, data_types=6, monitor_types=4, monitors=12, attacks=8, seed=11
        )

    for make in (
        lambda: solve_greedy(fresh(), Budget.of(cpu=6), WEIGHTS),
        lambda: solve_random(fresh(), Budget.of(cpu=6), WEIGHTS, samples=5),
        lambda: MaxUtilityProblem(fresh(), Budget.of(cpu=6), WEIGHTS).solve(),
    ):
        with obs.capture(clock=obs.ManualClock(autostep=1.0)):
            first = make()
        with obs.capture(clock=obs.ManualClock(autostep=1.0)):
            second = make()
        assert first.solve_seconds == second.solve_seconds
        assert first.solve_seconds > 0.0
        assert first.solve_seconds == int(first.solve_seconds)


def test_solve_seconds_is_plausible_wall_time(toy_model):
    """With the real clock, durations are small positive seconds."""
    for result in _results(toy_model).values():
        assert 0.0 < result.solve_seconds < 60.0, result.method


def test_heuristics_report_selection_order(toy_model):
    greedy = solve_greedy(toy_model, Budget.of(cpu=6), WEIGHTS)
    assert frozenset(greedy.selection_order) == greedy.monitor_ids
    exact = MaxUtilityProblem(toy_model, Budget.of(cpu=6), WEIGHTS).solve()
    assert exact.selection_order == ()


def test_results_round_trip_through_summary(toy_model):
    for result in _results(toy_model).values():
        line = result.summary()
        assert result.method in line
        assert f"{result.utility:.4f}" in line
