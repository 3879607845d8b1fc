"""Property-based backend cross-validation.

Random small 0/1 programs are solved by all three backends; the two real
solvers must agree with the enumeration oracle on feasibility and (to
tolerance) on the optimal objective, and must return assignments the
model itself verifies as feasible.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.solver import MilpModel, ObjectiveSense, SolutionStatus, solve
from tests.solver.enumeration_oracle import solve_by_enumeration


@st.composite
def random_binary_program(draw):
    """A random 0/1 program with <= 8 variables and <= 6 constraints."""
    num_vars = draw(st.integers(1, 8))
    num_constraints = draw(st.integers(0, 6))
    sense = draw(st.sampled_from(list(ObjectiveSense)))
    model = MilpModel("random", sense)
    variables = [model.binary(f"x{i}") for i in range(num_vars)]

    coef = st.integers(-5, 5)
    for c in range(num_constraints):
        coefficients = [draw(coef) for _ in variables]
        rhs = draw(st.integers(-5, 10))
        expression = sum(
            k * v for k, v in zip(coefficients, variables) if k
        )
        if isinstance(expression, int):  # all coefficients were zero
            continue
        if draw(st.booleans()):
            model.add_constraint(expression <= rhs, name=f"c{c}")
        else:
            model.add_constraint(expression >= rhs, name=f"c{c}")

    objective = sum(draw(coef) * v for v in variables)
    if isinstance(objective, int):
        objective = variables[0] * 0
    model.set_objective(objective)
    return model


SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@given(random_binary_program())
@settings(**SETTINGS)
def test_backends_agree_with_oracle(model):
    oracle = solve_by_enumeration(model)
    for backend in ("scipy", "branch-and-bound"):
        solution = solve(model, backend)
        assert solution.status == oracle.status, backend
        if oracle.status is SolutionStatus.OPTIMAL:
            assert solution.objective == pytest.approx(oracle.objective, abs=1e-6), backend


@given(random_binary_program())
@settings(**SETTINGS)
def test_returned_assignments_are_feasible(model):
    for backend in ("scipy", "branch-and-bound"):
        solution = solve(model, backend)
        if solution.status is SolutionStatus.OPTIMAL:
            assert model.is_feasible(solution.values), backend
            assert model.objective_value(solution.values) == pytest.approx(
                solution.objective, abs=1e-6
            ), backend


@st.composite
def random_mixed_program(draw):
    """Bounded integers + continuous variables, validated by the oracle."""
    num_int = draw(st.integers(1, 4))
    num_cont = draw(st.integers(0, 3))
    sense = draw(st.sampled_from(list(ObjectiveSense)))
    model = MilpModel("mixed", sense)
    integers = [model.integer(f"n{i}", 0, draw(st.integers(1, 3))) for i in range(num_int)]
    continuous = [model.continuous(f"c{i}", 0, draw(st.integers(1, 5))) for i in range(num_cont)]
    variables = integers + continuous

    coef = st.integers(-4, 4)
    for index in range(draw(st.integers(1, 5))):
        coefficients = [draw(coef) for _ in variables]
        expression = sum(k * v for k, v in zip(coefficients, variables) if k)
        if isinstance(expression, int):
            continue
        rhs = draw(st.integers(-5, 12))
        if draw(st.booleans()):
            model.add_constraint(expression <= rhs, name=f"c{index}")
        else:
            model.add_constraint(expression >= rhs, name=f"c{index}")

    objective = sum(draw(coef) * v for v in variables)
    if isinstance(objective, int):
        objective = variables[0] * 0
    model.set_objective(objective)
    return model


@given(random_mixed_program())
@settings(**SETTINGS)
def test_mixed_programs_agree_with_oracle(model):
    # HiGHS proves optimality only to its default MIP gap (~1e-6
    # relative), so continuous-part objectives can differ from the
    # oracle by ~1e-6 in absolute terms; compare at 1e-4.
    oracle = solve_by_enumeration(model)
    for backend in ("scipy", "branch-and-bound"):
        solution = solve(model, backend)
        assert solution.status == oracle.status, backend
        if oracle.status is SolutionStatus.OPTIMAL:
            assert solution.objective == pytest.approx(
                oracle.objective, abs=1e-4
            ), backend
            assert model.is_feasible(solution.values, tolerance=1e-5), backend
