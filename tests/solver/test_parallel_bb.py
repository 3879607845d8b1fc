"""Differential stress suite: parallel branch & bound vs. the serial solver.

The determinism contract of :mod:`repro.solver.parallel_bb`, pinned on
50 seeded instances:

* objectives, deployments (variable values), and statuses match the
  serial solver exactly (the instances draw continuous objective
  coefficients, so optima are unique almost surely);
* objectives, values, *and node accounting* are bit-identical at every
  worker count — 1, 2, and 4, with and without a persistent pool;
* a worker killed mid-subtree (injected ``exit`` fault) is respawned
  and the final answer is unchanged;
* warm-started :class:`~repro.solver.session.SolveSession` runs return
  what cold serial solves return.

Everything here compares full result tuples, never just objectives:
silent tie-break drift is exactly the bug class this suite exists to
catch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import LimitReachedError
from repro.runtime.faults import FaultPlan, FaultSpec, inject
from repro.runtime.pool import PersistentPool, use_pool
from repro.solver import (
    MilpModel,
    ObjectiveSense,
    SolutionStatus,
    SolveSession,
)
from repro.solver.branch_and_bound import solve_branch_and_bound
from repro.solver.parallel_bb import solve_parallel_branch_and_bound
from tests.conftest import random_binary_model as random_model
from tests.conftest import wide_knapsack_model as knapsack

SEEDS = range(50)


def same_objective(a: float, b: float) -> bool:
    """Exact equality, treating the two NaNs (infeasible) as equal."""
    return a == b or (np.isnan(a) and np.isnan(b))


@pytest.fixture(scope="module")
def serial_answers():
    """The serial oracle, solved once per module."""
    return {seed: solve_branch_and_bound(random_model(seed)) for seed in SEEDS}


@pytest.fixture(scope="module")
def shared_pool():
    """One warm 4-worker pool for the whole module (spawn paid once)."""
    with PersistentPool(workers=4) as pool:
        yield pool


class TestSerialEquivalence:
    def test_objectives_values_and_status_match_serial(self, serial_answers):
        for seed in SEEDS:
            serial = serial_answers[seed]
            parallel = solve_parallel_branch_and_bound(random_model(seed), workers=1)
            assert parallel.status == serial.status, seed
            assert same_objective(parallel.objective, serial.objective), seed
            assert parallel.values == serial.values, seed

    def test_solutions_are_feasible_in_the_model(self, serial_answers):
        for seed in SEEDS:
            if serial_answers[seed].status is not SolutionStatus.OPTIMAL:
                continue
            model = random_model(seed)
            parallel = solve_parallel_branch_and_bound(model, workers=1)
            assert model.is_feasible(parallel.values, tolerance=1e-6), seed


class TestWorkerCountInvariance:
    def test_bit_identical_at_1_2_and_4_workers(self, shared_pool):
        """Objectives, values, AND node accounting never move with workers.

        Workers 2 and 4 share one persistent pool, so this also pins the
        pooled task path against the in-process path.
        """
        for seed in SEEDS:
            reference = solve_parallel_branch_and_bound(random_model(seed), workers=1)
            for workers in (2, 4):
                run = solve_parallel_branch_and_bound(
                    random_model(seed), workers=workers, pool=shared_pool
                )
                key = (seed, workers)
                assert run.status == reference.status, key
                assert same_objective(run.objective, reference.objective), key
                assert run.values == reference.values, key
                assert run.nodes_explored == reference.nodes_explored, key

    def test_fresh_spawned_pools_agree_too(self):
        """A per-call executor (no PersistentPool) changes nothing either."""
        for seed in (3, 11, 27):
            reference = solve_parallel_branch_and_bound(random_model(seed), workers=1)
            spawned = solve_parallel_branch_and_bound(random_model(seed), workers=2)
            assert same_objective(spawned.objective, reference.objective), seed
            assert spawned.values == reference.values, seed
            assert spawned.nodes_explored == reference.nodes_explored, seed


def _first_decomposed_seed() -> int:
    """The first stress seed whose instance actually reaches phase 2."""
    for seed in SEEDS:
        with obs.capture() as cap:
            solve_parallel_branch_and_bound(random_model(seed), workers=1)
        if cap.registry.snapshot()["counters"].get("solver.parallel.subtrees", 0) > 0:
            return seed
    raise AssertionError("no stress instance decomposes; suite is vacuous")


class TestFaultInjection:
    def test_killed_worker_respawns_and_answer_is_unchanged(self, tmp_path):
        """An ``exit`` fault inside subtree 0 must not move the result.

        The dead worker surfaces as a transport error; the pool respawns
        its executor and the subtree re-runs (attempt 2 is fault-free).
        The merge is commutative, so the recovery schedule cannot leak
        into the answer.
        """
        seed = _first_decomposed_seed()
        reference = solve_parallel_branch_and_bound(random_model(seed), workers=1)
        state = tmp_path / "faults"
        state.mkdir()
        plan = FaultPlan.of(
            state, {"solver.parallel_bb.subtree[0]": FaultSpec(kind="exit", times=1)}
        )
        with PersistentPool(workers=2) as pool, inject(plan):
            survived = solve_parallel_branch_and_bound(
                random_model(seed), workers=2, pool=pool
            )
            assert pool.respawns >= 1
        assert plan.attempts_seen("solver.parallel_bb.subtree[0]") == 2
        assert survived.status == reference.status
        assert same_objective(survived.objective, reference.objective)
        assert survived.values == reference.values
        assert survived.nodes_explored == reference.nodes_explored

    def test_injected_error_fault_propagates_cleanly(self, tmp_path):
        """A scripted task *error* (not a death) surfaces, not silently."""
        seed = _first_decomposed_seed()
        state = tmp_path / "faults"
        state.mkdir()
        plan = FaultPlan.of(
            state, {"solver.parallel_bb.subtree[1]": FaultSpec(kind="error", times=-1)}
        )
        with inject(plan), pytest.raises(Exception, match="subtree"):
            solve_parallel_branch_and_bound(random_model(seed), workers=1)


class TestWarmSessions:
    def test_warm_parallel_session_matches_cold_serial(self, shared_pool):
        """Descending capacities: warm starts + dual bounds, same answers."""
        with use_pool(shared_pool):
            session = SolveSession("branch-and-bound", bb_workers=2, presolve=True)
            for capacity in (24, 18, 14, 9, 5):
                warm = session.solve(knapsack(capacity))
                cold = solve_branch_and_bound(knapsack(capacity))
                assert warm.status == cold.status, capacity
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9), capacity
                assert knapsack(capacity).is_feasible(warm.values, tolerance=1e-6)

    def test_bb_workers_upgrade_of_serial_backend_matches(self):
        """``branch-and-bound`` + ``bb_workers>1`` routes parallel, same answers."""
        session = SolveSession("branch-and-bound", bb_workers=2, presolve=False)
        upgraded = session.solve(knapsack(14))
        cold = solve_branch_and_bound(knapsack(14))
        assert upgraded.backend == "parallel-bb"
        assert upgraded.objective == pytest.approx(cold.objective, abs=1e-9)


class TestEdgeCases:
    def test_infeasible_model(self):
        model = MilpModel("impossible", ObjectiveSense.MAXIMIZE)
        x = model.binary("x")
        model.add_constraint(x + 0.0 >= 2, name="cannot")
        model.set_objective(x * 1)
        solution = solve_parallel_branch_and_bound(model, workers=2)
        assert solution.status is SolutionStatus.INFEASIBLE
        assert np.isnan(solution.objective)
        assert solution.values == {}

    def test_node_budget_truncation_without_incumbent_raises(self):
        seed = _first_decomposed_seed()
        with pytest.raises(LimitReachedError) as stop:
            solve_parallel_branch_and_bound(random_model(seed), workers=1, max_nodes=1)
        assert stop.value.nodes_explored == 2

    def test_backend_stamp(self):
        solution = solve_parallel_branch_and_bound(random_model(1), workers=1)
        assert solution.backend == "parallel-bb"
