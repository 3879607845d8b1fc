"""A solve stopped by a limit before any feasible point is not INFEASIBLE.

Infeasibility is a verdict on the model; running out of nodes or time
is not.  Both exact backends raise :class:`~repro.errors.
LimitReachedError` for such a stop, the fallback chain records it as a
failed attempt, and ``MaxUtilityProblem.solve("fallback")`` rescues the
request with greedy.
"""

from __future__ import annotations

import pytest

from repro.casestudy import enterprise_web_service
from repro.errors import LimitReachedError
from repro.metrics.cost import Budget
from repro.optimize.problem import MaxUtilityProblem
from repro.solver.branch_and_bound import solve_branch_and_bound
from tests.conftest import wide_knapsack_model as knapsack


def _case_study_problem() -> MaxUtilityProblem:
    model = enterprise_web_service()
    return MaxUtilityProblem(model, Budget.fraction_of_total(model, 0.3))


@pytest.mark.parametrize("backend", ["scipy", "branch-and-bound"])
def test_truncated_case_study_solve_raises_limit_reached(backend):
    with pytest.raises(LimitReachedError):
        _case_study_problem().solve(backend, time_limit=1e-6)


def test_truncated_case_study_fallback_is_rescued_by_greedy():
    result = _case_study_problem().solve("fallback", time_limit=1e-6)
    assert result.method == "greedy-fallback"
    assert not result.optimal
    assert [line.split(":")[:2] for line in result.failures] == [
        ["scipy", " LimitReachedError"],
        ["branch-and-bound", " LimitReachedError"],
    ]


def test_node_limit_knapsack_raises_limit_reached_on_serial_bb():
    with pytest.raises(LimitReachedError) as stop:
        solve_branch_and_bound(knapsack(24), max_nodes=1)
    assert stop.value.nodes_explored == 2

