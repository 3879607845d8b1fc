"""Sibling node LPs solved in pairs on a helper thread.

:func:`repro.solver.branch_and_bound._explore` solves the second child
of every branching on a helper thread while the main thread solves the
first.  These tests pin what that must never change:

* a search that stops while a sibling solve is still running — by
  ``"gap"``, the node budget or the deadline — joins the helper before
  it returns, so the process keeps its thread count;
* an error raised in a sibling solve surfaces only if the search uses
  that sibling;
* the root LP is solved once.

Bit-identity of the answers themselves is pinned by
``test_bb_node_pins.py`` and ``test_lp_differential.py``.
"""

from __future__ import annotations

import sys
import threading
import time
import types

import pytest

from repro import obs
from repro.errors import LimitReachedError, SolverError
from repro.solver import MilpModel, ObjectiveSense, SolutionStatus
from repro.solver import branch_and_bound
from repro.solver.branch_and_bound import solve_branch_and_bound
from repro.solver.lp import LpRelaxation
from tests.conftest import random_binary_model

#: Its root branches into two children; 27 nodes in all.
MODEL_SEED = 9


def _on_helper() -> bool:
    return threading.current_thread() is not threading.main_thread()


@pytest.fixture
def slow_helper(monkeypatch):
    """Sibling solves take long enough to still be running when a search stops."""
    run = LpRelaxation.run

    def slow_run(self, lower, upper):
        if _on_helper():
            time.sleep(0.2)
        return run(self, lower, upper)

    monkeypatch.setattr(LpRelaxation, "run", slow_run)


@pytest.fixture
def failing_helper(monkeypatch):
    """Every sibling solve raises."""
    run = LpRelaxation.run

    def failing_run(self, lower, upper):
        if _on_helper():
            raise SolverError("injected sibling failure")
        return run(self, lower, upper)

    monkeypatch.setattr(LpRelaxation, "run", failing_run)


def _bb_span_args(cap: obs.Capture) -> dict:
    (span,) = [root for root in cap.tracer.roots if root.name == "solver.branch_and_bound"]
    return span.args


def _gap_model() -> MilpModel:
    """max x0 + x1 st x0 + x1 <= 1.5: the down child is integral (1), the up child is not (1.5).

    Under ``gap=0.6`` the down child's incumbent closes the gap against
    the up child's bound, so the search stops as the up child is popped.
    """
    model = MilpModel("pair-gap", ObjectiveSense.MAXIMIZE)
    x0, x1 = model.binary("x0"), model.binary("x1")
    model.add_constraint(x0 + x1 <= 1.5, name="cap")
    model.set_objective(x0 + x1)
    return model


class TestStopsJoinTheHelper:
    def test_gap_stop(self, slow_helper):
        before = threading.active_count()
        with obs.capture() as cap:
            solution = solve_branch_and_bound(_gap_model(), gap=0.6)
        assert threading.active_count() == before
        assert solution.status is SolutionStatus.OPTIMAL and solution.objective == 1.0
        assert _bb_span_args(cap)["lp_unused"] == 1

    def test_node_budget_stop(self, slow_helper):
        before = threading.active_count()
        with obs.capture() as cap, pytest.raises(LimitReachedError) as stop:
            solve_branch_and_bound(random_binary_model(MODEL_SEED), max_nodes=2)
        assert threading.active_count() == before
        assert stop.value.nodes_explored == 3
        assert _bb_span_args(cap)["lp_unused"] == 1

    def test_deadline_stop(self, slow_helper, monkeypatch):
        # A clock that ticks once per read: the deadline (2.5 past the
        # start read) passes at the third node, the root's second child.
        ticks = iter(range(1_000))
        monkeypatch.setattr(
            branch_and_bound, "time", types.SimpleNamespace(monotonic=lambda: next(ticks))
        )
        before = threading.active_count()
        with obs.capture() as cap, pytest.raises(LimitReachedError) as stop:
            solve_branch_and_bound(random_binary_model(MODEL_SEED), time_limit=2.5)
        assert threading.active_count() == before
        assert stop.value.nodes_explored == 3
        assert _bb_span_args(cap)["lp_unused"] == 1


class TestSiblingErrors:
    def test_unused_sibling_error_does_not_surface(self, failing_helper):
        # The node budget, not the injected sibling failure, ends the solve.
        with pytest.raises(LimitReachedError) as stop:
            solve_branch_and_bound(random_binary_model(MODEL_SEED), max_nodes=2)
        assert stop.value.nodes_explored == 3

    def test_used_sibling_error_surfaces(self, failing_helper):
        with pytest.raises(SolverError, match="injected sibling failure"):
            solve_branch_and_bound(random_binary_model(MODEL_SEED))


def test_root_lp_is_solved_once():
    with obs.capture() as cap:
        solution = solve_branch_and_bound(random_binary_model(MODEL_SEED))
    assert solution.nodes_explored == 27
    assert cap.registry.counter("solver.lp.solves").value == 27
    args = _bb_span_args(cap)
    assert args["lp_pairs"] > 0 and args["lp_unused"] == 0


def test_answers_hold_under_rapid_thread_switching():
    """Switching threads every microsecond changes no answer or node count."""
    models = [random_binary_model(seed) for seed in range(12)]

    def answers() -> list[tuple]:
        solutions = [solve_branch_and_bound(model) for model in models]
        return [(s.status, s.objective.hex(), s.values, s.nodes_explored) for s in solutions]

    expected = answers()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        stressed = answers()
    finally:
        sys.setswitchinterval(interval)
    assert stressed == expected

