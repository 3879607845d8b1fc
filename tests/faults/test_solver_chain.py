"""The solver fallback chain under injected backend failures.

Backend crashes are scripted through the ambient fault plan
(``solver.<backend>`` sites), so these tests never monkey-patch solver
internals: the chain takes exactly the code path a real HiGHS failure
would trigger.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import FallbackExhaustedError, InfeasibleError, LimitReachedError, SolverError
from repro.metrics.cost import Budget
from repro.optimize.problem import MaxUtilityProblem
from repro.runtime import faults
from repro.runtime.faults import FaultPlan, FaultSpec
import repro.solver
from repro.solver import DEFAULT_CHAIN, MilpModel, SolutionStatus, SolveSession, presolve, solve
from tests.conftest import knapsack_model as _knapsack


def _plan(tmp_path, specs) -> FaultPlan:
    state = tmp_path / "state"
    state.mkdir(exist_ok=True)
    return FaultPlan.of(state, specs)


def _failures(solution):
    return [a for a in solution.attempts if not a.answered]


def test_clean_chain_answers_with_the_first_backend():
    solution = solve(_knapsack(), "fallback")
    assert solution.attempts[-1].backend == DEFAULT_CHAIN[0]
    assert len(solution.attempts) == 1
    assert _failures(solution) == []
    assert solution.objective == pytest.approx(25.0)


def test_failed_backend_falls_through_and_records_why(tmp_path):
    plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="error", times=-1)})
    with faults.inject(plan), obs.capture() as cap:
        solution = solve(_knapsack(), "fallback")
    assert solution.attempts[-1].backend == solution.backend == "branch-and-bound"
    assert len(solution.attempts) > 1
    assert [a.backend for a in solution.attempts] == ["scipy", "branch-and-bound"]
    assert solution.attempts[0].answered is False
    assert solution.attempts[0].error_type == "InjectedFault"
    assert solution.objective == pytest.approx(25.0)
    counters = cap.registry.snapshot()["counters"]
    assert counters["solver.fallback.attempts"] == 2.0
    assert counters["solver.fallback.failures"] == 1.0
    assert counters["solver.fallback.rescues"] == 1.0


def test_exhausted_chain_raises_with_full_history(tmp_path):
    plan = _plan(
        tmp_path,
        {
            "solver.scipy": FaultSpec(kind="error", times=-1, message="scipy down"),
            "solver.branch-and-bound": FaultSpec(kind="error", times=-1, message="bb down"),
        },
    )
    with faults.inject(plan), obs.capture() as cap:
        with pytest.raises(SolverError) as excinfo:
            solve(_knapsack(), "fallback")
    message = str(excinfo.value)
    assert "scipy down" in message and "bb down" in message
    counters = cap.registry.snapshot()["counters"]
    assert counters["solver.fallback.exhausted"] == 1.0


def test_infeasible_verdict_stops_the_chain(tmp_path):
    """Infeasibility is a property of the model, not a backend failure.

    The chain must report the first backend's INFEASIBLE verdict rather
    than fall through to another solver (or a heuristic) that would
    "find" something.
    """
    plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="infeasible", times=-1)})
    with faults.inject(plan):
        solution = solve(_knapsack(), "fallback")
    assert solution.status is SolutionStatus.INFEASIBLE
    assert solution.attempts[-1].backend == "scipy"
    assert len(solution.attempts) == 1


def test_fallback_backend_name_routes_through_the_chain(tmp_path):
    plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="error", times=-1)})
    with faults.inject(plan):
        solution = solve(_knapsack(), "fallback")
    assert solution.objective == pytest.approx(25.0)


def test_the_chain_has_one_entry():
    for name in ("solve_with_fallback", "FallbackOutcome", "solve_presolved"):
        assert not hasattr(repro.solver, name), name


@pytest.mark.parametrize("entry", ["cold", "session"])
def test_presolve_lift_keeps_the_chain_history(tmp_path, entry):
    # x4 alone overflows the capacity, so presolve fixes it and the
    # chain solves a reduced model that the answer is lifted from.
    model = _knapsack(weights=(3, 4, 2, 3, 9))
    assert presolve(model).stats.columns_after == 4
    plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="error", times=-1)})
    with faults.inject(plan):
        if entry == "cold":
            solution = solve(model, "fallback", presolve=True)
        else:
            solution = SolveSession("fallback").solve(model)
    assert [(a.backend, a.answered) for a in solution.attempts] == [
        ("scipy", False),
        ("branch-and-bound", True),
    ]
    assert set(solution.values) == {v.name for v in model.variables}
    assert solution.values["x4"] == 0.0


class TestChainControls:
    def test_node_and_gap_controls_forward_to_the_chain(self):
        solution = solve(_knapsack(), "fallback", max_nodes=100_000, gap=1e-9)
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(25.0)

    def test_node_budget_without_incumbent_fails_backend(self, tmp_path):
        # Starve scipy out of the chain, then give branch-and-bound a
        # node budget too small to find a feasible point: the limit stop
        # is a failed attempt, never an INFEASIBLE verdict on the model.
        plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="error", times=-1)})
        with faults.inject(plan), pytest.raises(FallbackExhaustedError) as exhausted:
            solve(_knapsack(), "fallback", max_nodes=1)
        assert exhausted.value.failures[-1].startswith(
            f"branch-and-bound: {LimitReachedError.__name__}:"
        )

    def test_presolve_once_before_the_chain_lifts_back(self):
        cold = solve(_knapsack(), "fallback")
        warm = solve(_knapsack(), "fallback", presolve=True)
        assert warm.objective == pytest.approx(cold.objective)
        model = _knapsack()
        assert set(warm.values) == {v.name for v in model.variables}
        assert model.is_feasible(warm.values, tolerance=1e-6)

    def test_presolve_detected_infeasibility_answers_the_chain(self):
        model = MilpModel("impossible")
        x = model.binary("x")
        model.add_constraint(x + 0.0 >= 2, name="cannot")
        model.set_objective(x * 1)
        solution = solve(model, "fallback", presolve=True)
        assert solution.status is SolutionStatus.INFEASIBLE
        assert solution.backend == "presolve"
        assert solution.attempts == ()

    def test_presolve_solved_model_never_reaches_a_backend(self, tmp_path):
        # Every real backend is scripted to fail; presolve alone must
        # still answer a model it can fully reduce.
        plan = _plan(
            tmp_path,
            {
                "solver.scipy": FaultSpec(kind="error", times=-1),
                "solver.branch-and-bound": FaultSpec(kind="error", times=-1),
            },
        )
        model = MilpModel("forced")
        x = model.binary("x")
        model.add_constraint(x + 0.0 >= 1, name="must")
        model.set_objective(3 * x)
        with faults.inject(plan):
            solution = solve(model, "fallback", presolve=True)
        assert solution.backend == "presolve"
        assert solution.status is SolutionStatus.OPTIMAL
        assert solution.objective == pytest.approx(3.0)
        assert solution.values == {"x": 1.0}


class TestProblemFallback:
    def test_answers_like_a_plain_solve(self, toy_model):
        problem = MaxUtilityProblem(toy_model, Budget.of(cpu=6))
        plain = problem.solve()
        result = problem.solve("fallback")
        assert result.deployment.monitor_ids == plain.deployment.monitor_ids
        assert result.utility == pytest.approx(plain.utility)
        assert result.stats["fallback_attempts"] == 1.0
        assert result.stats["fallback_failures"] == 0.0

    def test_rescued_by_the_second_backend(self, tmp_path, toy_model):
        plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="error", times=-1)})
        problem = MaxUtilityProblem(toy_model, Budget.of(cpu=6))
        with faults.inject(plan):
            result = problem.solve("fallback")
        assert result.method == "ilp/branch-and-bound"
        assert result.stats["fallback_attempts"] == 2.0
        assert result.stats["fallback_failures"] == 1.0
        assert result.utility == pytest.approx(problem.solve().utility)

    def test_greedy_stands_in_when_every_backend_errors(self, tmp_path, toy_model):
        plan = _plan(
            tmp_path,
            {
                "solver.scipy": FaultSpec(kind="error", times=-1),
                "solver.branch-and-bound": FaultSpec(kind="error", times=-1),
            },
        )
        problem = MaxUtilityProblem(toy_model, Budget.of(cpu=6))
        with faults.inject(plan):
            result = problem.solve("fallback")
        assert result.method == "greedy-fallback"
        assert result.optimal is False
        assert all(isinstance(v, float) for v in result.stats.values())
        assert result.deployment.cost().get("cpu") <= 6.0

    def test_greedy_rescue_is_refused_under_a_cardinality_cap(self, tmp_path, toy_model):
        plan = _plan(
            tmp_path,
            {
                "solver.scipy": FaultSpec(kind="error", times=-1),
                "solver.branch-and-bound": FaultSpec(kind="error", times=-1),
            },
        )
        problem = MaxUtilityProblem(toy_model, Budget.of(cpu=6), max_monitors=1)
        with faults.inject(plan):
            with pytest.raises(SolverError):
                problem.solve("fallback")

    def test_infeasible_verdict_never_reaches_greedy(self, tmp_path, toy_model):
        plan = _plan(tmp_path, {"solver.scipy": FaultSpec(kind="infeasible", times=-1)})
        problem = MaxUtilityProblem(toy_model, Budget.of(cpu=6))
        with faults.inject(plan):
            with pytest.raises(InfeasibleError):
                problem.solve("fallback")
