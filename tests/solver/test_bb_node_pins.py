"""Pinned node accounting for the serial branch-and-bound solver.

``nodes_explored`` and the status are a fingerprint of the search
order: the same pruning margins, branching rule, warm-start seeding and
dual-bound floor visit the same nodes.  These pins were recorded from
the solver and guard every refactor of its search loop — a change here
means the search itself changed, not just its code.

Covered: the 50 seeded instances of the parallel differential suite
(cold), the same instances truncated by ``max_nodes``, and warm-start,
``known_bound`` and truncated warm-start runs on the instances that
branch.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import LimitReachedError
from repro.solver.branch_and_bound import solve_branch_and_bound
from tests.conftest import random_binary_model as random_model
from tests.conftest import wide_knapsack_model as knapsack

OPT, FEAS, INF = "OPTIMAL", "FEASIBLE", "INFEASIBLE"
#: A limit stop with no incumbent (:class:`~repro.errors.LimitReachedError`).
LIMIT = "LIMIT"

#: seed -> (status, nodes_explored) of a cold default solve.
COLD = {
    0: (INF, 1), 1: (OPT, 1), 2: (OPT, 3), 3: (OPT, 1), 4: (OPT, 3),
    5: (INF, 1), 6: (OPT, 1), 7: (INF, 1), 8: (OPT, 3), 9: (OPT, 27),
    10: (OPT, 17), 11: (OPT, 5), 12: (OPT, 9), 13: (INF, 3), 14: (INF, 1),
    15: (OPT, 27), 16: (OPT, 1), 17: (OPT, 13), 18: (OPT, 7), 19: (INF, 1),
    20: (OPT, 7), 21: (INF, 5), 22: (OPT, 21), 23: (INF, 1), 24: (OPT, 1),
    25: (OPT, 1), 26: (OPT, 15), 27: (INF, 1), 28: (INF, 1), 29: (OPT, 5),
    30: (OPT, 1), 31: (INF, 1), 32: (OPT, 7), 33: (OPT, 13), 34: (INF, 1),
    35: (OPT, 5), 36: (INF, 1), 37: (INF, 1), 38: (INF, 1), 39: (INF, 1),
    40: (OPT, 1), 41: (OPT, 15), 42: (INF, 1), 43: (INF, 1), 44: (OPT, 1),
    45: (OPT, 19), 46: (INF, 1), 47: (INF, 1), 48: (INF, 3), 49: (OPT, 3),
}

#: seed -> (status, nodes_explored) with ``max_nodes=3``: the limit
#: check fires on the fourth pop, so truncated searches report 4.
TRUNCATED = {
    0: (INF, 1), 1: (OPT, 1), 2: (OPT, 3), 3: (OPT, 1), 4: (OPT, 3),
    5: (INF, 1), 6: (OPT, 1), 7: (INF, 1), 8: (OPT, 3), 9: (LIMIT, 4),
    10: (LIMIT, 4), 11: (LIMIT, 4), 12: (LIMIT, 4), 13: (INF, 3), 14: (INF, 1),
    15: (LIMIT, 4), 16: (OPT, 1), 17: (LIMIT, 4), 18: (LIMIT, 4), 19: (INF, 1),
    20: (LIMIT, 4), 21: (LIMIT, 4), 22: (LIMIT, 4), 23: (INF, 1), 24: (OPT, 1),
    25: (OPT, 1), 26: (LIMIT, 4), 27: (INF, 1), 28: (INF, 1), 29: (FEAS, 4),
    30: (OPT, 1), 31: (INF, 1), 32: (FEAS, 4), 33: (FEAS, 4), 34: (INF, 1),
    35: (LIMIT, 4), 36: (INF, 1), 37: (INF, 1), 38: (INF, 1), 39: (INF, 1),
    40: (OPT, 1), 41: (LIMIT, 4), 42: (INF, 1), 43: (INF, 1), 44: (OPT, 1),
    45: (LIMIT, 4), 46: (INF, 1), 47: (INF, 1), 48: (INF, 3), 49: (OPT, 3),
}

#: seed -> nodes_explored when the instance's own optimum is passed as
#: ``known_bound`` (the floor closes the gap before the search would).
KNOWN_BOUND = {9: 27, 10: 17, 15: 17, 17: 12, 22: 12, 26: 11, 33: 9, 41: 6, 45: 19}

#: Instances where the floor, not the popped bound, closed the search.
FLOOR_CLOSED = {15, 17, 22, 26, 33, 41}


def _outcome(solution) -> tuple[str, int]:
    return solution.status.name, solution.nodes_explored


def _truncated_outcome(seed: int) -> tuple[str, int]:
    try:
        return _outcome(solve_branch_and_bound(random_model(seed), max_nodes=3))
    except LimitReachedError as exc:
        return LIMIT, exc.nodes_explored


@pytest.fixture(scope="module")
def optima():
    return {seed: solve_branch_and_bound(random_model(seed)) for seed in KNOWN_BOUND}


def test_cold_node_counts_are_pinned():
    for seed, expected in COLD.items():
        assert _outcome(solve_branch_and_bound(random_model(seed))) == expected, seed


def test_max_nodes_truncation_is_pinned():
    for seed, expected in TRUNCATED.items():
        assert _truncated_outcome(seed) == expected, seed


def test_warm_start_is_pinned(optima):
    """Seeding with the optimum prunes nothing here, but must be accepted."""
    for seed, optimum in optima.items():
        with obs.capture() as cap:
            warm = solve_branch_and_bound(random_model(seed), warm_start=optimum.values)
        assert _outcome(warm) == (OPT, COLD[seed][1]), seed
        assert warm.objective == optimum.objective, seed
        assert warm.values == optimum.values, seed
        assert cap.registry.snapshot()["counters"]["solver.warm_start.accepted"] == 1.0


def test_truncated_warm_start_reports_the_seed_as_feasible(optima):
    for seed, optimum in optima.items():
        truncated = solve_branch_and_bound(
            random_model(seed), warm_start=optimum.values, max_nodes=2
        )
        assert _outcome(truncated) == (FEAS, 3), seed
        assert truncated.values == optimum.values, seed


def test_known_bound_is_pinned(optima):
    for seed, optimum in optima.items():
        with obs.capture() as cap:
            bounded = solve_branch_and_bound(random_model(seed), known_bound=optimum.objective)
        assert _outcome(bounded) == (OPT, KNOWN_BOUND[seed]), seed
        assert bounded.values == optimum.values, seed
        closures = cap.registry.snapshot()["counters"].get("solver.bound_floor.closures", 0.0)
        assert closures == (1.0 if seed in FLOOR_CLOSED else 0.0), seed


def test_known_bound_from_a_looser_sibling_is_pinned():
    loose = solve_branch_and_bound(knapsack(30))
    assert loose.objective == 91.0
    assert _outcome(solve_branch_and_bound(knapsack(24))) == (OPT, 11)
    bounded = solve_branch_and_bound(knapsack(24), known_bound=loose.objective)
    assert _outcome(bounded) == (OPT, 11)
    assert bounded.objective == 74.0
    exact = solve_branch_and_bound(knapsack(24), known_bound=74.0)
    assert _outcome(exact) == (OPT, 5)
