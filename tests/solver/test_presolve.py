"""Exactness of the presolve reduction pipeline.

The property suite solves >= 50 seeded random programs twice — cold,
and through presolve + lift — and requires identical feasibility
verdicts, identical objectives, and lifted assignments the *original*
model verifies as feasible.  The pins exercise each reduction rule on a
hand-built instance where the intended reduction (or, for the dominance
counterexample, its intended absence) is checkable by eye.
"""

import numpy as np
import pytest

from repro.solver import (
    MilpModel,
    ObjectiveSense,
    PresolveStatus,
    SolutionStatus,
    SolveSession,
    presolve,
    solve,
)
from tests.solver.enumeration_oracle import solve_by_enumeration

SEEDS = range(60)


def random_program(seed: int) -> MilpModel:
    """A random bounded 0/1-plus-integers program, enumeration-sized."""
    rng = np.random.default_rng(seed)
    num_bin = int(rng.integers(1, 7))
    num_int = int(rng.integers(0, 3))
    sense = ObjectiveSense.MAXIMIZE if rng.random() < 0.5 else ObjectiveSense.MINIMIZE
    model = MilpModel(f"random[{seed}]", sense)
    variables = [model.binary(f"x{i}") for i in range(num_bin)]
    variables += [
        model.integer(f"n{i}", 0, int(rng.integers(1, 4))) for i in range(num_int)
    ]

    for index in range(int(rng.integers(1, 6))):
        coefficients = rng.integers(-4, 5, size=len(variables))
        if not coefficients.any():
            continue
        expression = sum(
            int(k) * v for k, v in zip(coefficients, variables) if k
        )
        rhs = int(rng.integers(-4, 10))
        if rng.random() < 0.7:
            model.add_constraint(expression <= rhs, name=f"c{index}")
        else:
            model.add_constraint(expression >= rhs, name=f"c{index}")

    objective_coefficients = rng.integers(-5, 6, size=len(variables))
    objective = sum(int(k) * v for k, v in zip(objective_coefficients, variables))
    if isinstance(objective, int):
        objective = variables[0] * 0
    model.set_objective(objective)
    return model


@pytest.mark.parametrize("seed", SEEDS)
def test_lifted_solutions_match_cold_solves(seed):
    model = random_program(seed)
    cold = solve_by_enumeration(model)
    pre = presolve(model)

    if cold.status is SolutionStatus.INFEASIBLE:
        if pre.status is not PresolveStatus.INFEASIBLE:
            # Presolve may not detect infeasibility itself; the reduced
            # model must then still be infeasible for the backend.
            warm = solve(model, presolve=True)
            assert warm.status is SolutionStatus.INFEASIBLE
        return

    warm = solve(model, presolve=True)
    assert warm.status is SolutionStatus.OPTIMAL
    assert warm.objective == pytest.approx(cold.objective, abs=1e-6)
    # The lifted assignment must be feasible in the ORIGINAL model and
    # cover every original variable by name.
    assert model.is_feasible(warm.values, tolerance=1e-6)
    assert set(warm.values) == {v.name for v in model.variables}
    assert model.objective_value(warm.values) == pytest.approx(
        cold.objective, abs=1e-6
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_presolve_shrinks_or_preserves(seed):
    model = random_program(seed)
    pre = presolve(model)
    assert pre.stats.columns_after <= pre.stats.columns_before
    assert pre.stats.rows_after <= pre.stats.rows_before
    if pre.status is PresolveStatus.REDUCED:
        assert pre.reduced is not None
        assert len(pre.reduced.variables) == pre.stats.columns_after


def test_dominated_column_is_fixed_to_zero():
    # Min-cost cover: monitor a covers the step at cost 2, monitor b
    # covers the same step at cost 3.  b can never appear in an optimum
    # a could not be swapped into, so it is dominated and fixed to 0.
    # (A profitable column — negative cost in minimized form — must NOT
    # be droppable this way; that case is the knapsack pin below.)
    model = MilpModel("dominated", ObjectiveSense.MINIMIZE)
    a = model.binary("a")
    b = model.binary("b")
    model.add_constraint(a + b >= 1, name="cover")
    model.set_objective(2 * a + 3 * b)

    pre = presolve(model)
    assert pre.stats.dominated_columns >= 1
    assert pre.fixed.get("b") == 0.0
    warm = solve(model, presolve=True)
    assert warm.objective == pytest.approx(2.0)
    assert warm.values == {"a": 1.0, "b": 0.0}


def test_dominance_respects_knapsack_counterexample():
    # values (10, 7), weights (3, 4), capacity 8: the optimum takes BOTH
    # items (17).  A dominance rule without the negative-coefficient
    # guard would "eliminate" the second item and report 10.
    model = MilpModel("knapsack-trap", ObjectiveSense.MAXIMIZE)
    x0 = model.binary("x0")
    x1 = model.binary("x1")
    model.add_constraint(3 * x0 + 4 * x1 <= 8, name="cap")
    model.set_objective(10 * x0 + 7 * x1)

    warm = solve(model, presolve=True)
    assert warm.objective == pytest.approx(17.0)
    assert warm.values == {"x0": 1.0, "x1": 1.0}


def test_duplicate_rows_are_merged():
    model = MilpModel("dupes", ObjectiveSense.MAXIMIZE)
    x = [model.binary(f"x{i}") for i in range(3)]
    total = x[0] + x[1] + x[2]
    model.add_constraint(total <= 2, name="first")
    model.add_constraint(total <= 1, name="tighter-twin")
    model.set_objective(x[0] + 2 * x[1] + 3 * x[2])

    pre = presolve(model)
    assert pre.stats.duplicate_rows >= 1
    warm = solve(model, presolve=True)
    # The surviving merged row must keep the TIGHTER rhs.
    assert warm.objective == pytest.approx(3.0)


def test_forced_fixing_via_singleton_row():
    model = MilpModel("forced", ObjectiveSense.MINIMIZE)
    x = model.binary("x")
    y = model.binary("y")
    model.add_constraint(x + 0.0 >= 1, name="must-deploy")
    model.add_constraint(x + y >= 1, name="cover")
    model.set_objective(3 * x + 2 * y)

    pre = presolve(model)
    assert pre.stats.forced_fixings >= 1
    assert pre.fixed.get("x") == 1.0
    warm = solve(model, presolve=True)
    assert warm.objective == pytest.approx(3.0)
    assert warm.values == {"x": 1.0, "y": 0.0}


def test_fully_solved_by_presolve():
    model = MilpModel("trivial", ObjectiveSense.MAXIMIZE)
    x = model.binary("x")
    model.add_constraint(x + 0.0 >= 1, name="force")
    model.set_objective(4 * x)

    pre = presolve(model)
    assert pre.status is PresolveStatus.SOLVED
    assert pre.reduced is None
    assert pre.lift({}) == {"x": 1.0}
    warm = solve(model, presolve=True)
    assert warm.status is SolutionStatus.OPTIMAL
    assert warm.objective == pytest.approx(4.0)
    assert warm.backend == "presolve"


def test_infeasibility_detected():
    model = MilpModel("impossible", ObjectiveSense.MAXIMIZE)
    x = model.binary("x")
    model.add_constraint(x + 0.0 >= 2, name="cannot")
    model.set_objective(x * 1)

    pre = presolve(model)
    assert pre.status is PresolveStatus.INFEASIBLE
    warm = solve(model, presolve=True)
    assert warm.status is SolutionStatus.INFEASIBLE


@pytest.mark.parametrize("backend", ["scipy", "branch-and-bound"])
def test_verdict_answers_every_entry_point_alike(backend):
    """One verdict per presolve status, whichever entry point asks."""
    solved = MilpModel("trivial", ObjectiveSense.MAXIMIZE)
    x = solved.binary("x")
    solved.add_constraint(x + 0.0 >= 1, name="force")
    solved.set_objective(4 * x)
    impossible = MilpModel("impossible", ObjectiveSense.MAXIMIZE)
    y = impossible.binary("y")
    impossible.add_constraint(y + 0.0 >= 2, name="cannot")
    impossible.set_objective(y * 1)
    reduced = random_program(0)

    assert presolve(reduced).verdict() is None
    expected = {solved: SolutionStatus.OPTIMAL, impossible: SolutionStatus.INFEASIBLE}
    for model, status in expected.items():
        verdict = presolve(model).verdict()
        assert (verdict.status, verdict.backend) == (status, "presolve")
        for answer in (
            solve(model, backend, presolve=True),
            solve(model, "fallback", presolve=True),
            SolveSession(backend).solve(model),
        ):
            # repr: an INFEASIBLE objective is nan, which equals nothing.
            assert (answer.status, answer.backend, answer.values, repr(answer.objective)) == (
                verdict.status,
                verdict.backend,
                verdict.values,
                repr(verdict.objective),
            )
    assert presolve(solved).verdict().objective == 4.0


def test_redundant_row_dropped():
    model = MilpModel("redundant", ObjectiveSense.MAXIMIZE)
    x = [model.binary(f"x{i}") for i in range(3)]
    model.add_constraint(x[0] + x[1] + x[2] <= 10, name="never-binds")
    model.add_constraint(x[0] + x[1] <= 1, name="binds")
    model.set_objective(x[0] + x[1] + x[2])

    pre = presolve(model)
    assert pre.stats.redundant_rows >= 1
    warm = solve(model, presolve=True)
    assert warm.objective == pytest.approx(2.0)


def test_lift_solution_preserves_backend_and_status():
    model = MilpModel("lifted", ObjectiveSense.MAXIMIZE)
    x = model.binary("x")
    y = model.binary("y")
    model.add_constraint(x + 0.0 >= 1, name="force-x")
    model.add_constraint(x + y <= 1, name="exclusive")
    model.set_objective(2 * x + 3 * y)

    warm = solve(model, "branch-and-bound", presolve=True)
    assert warm.status is SolutionStatus.OPTIMAL
    assert warm.values == {"x": 1.0, "y": 0.0}
    assert model.is_feasible(warm.values)


def test_stats_to_dict_round_trips():
    model = random_program(3)
    pre = presolve(model)
    payload = pre.stats.to_dict()
    assert payload["columns_before"] == pre.stats.columns_before
    assert payload["rows_before"] == pre.stats.rows_before
    assert all(isinstance(v, int) for v in payload.values())
