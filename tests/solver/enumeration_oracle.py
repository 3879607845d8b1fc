"""Exhaustive enumeration oracle for small MILPs.

Enumerates every assignment of the integral variables (continuous
variables are optimized by LP at each leaf) and returns the true
optimum.  Exponential by construction — it refuses models with more than
:data:`MAX_INTEGER_VARIABLES` integral variables — and exists purely as
a correctness oracle: the property-based tests check that both real
backends agree with it on randomized small instances.  Test-only: no
module under ``src/`` imports it, and :func:`repro.solver.solve` does
not accept it as a backend.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.errors import SolverError, UnboundedError
from repro.solver.lp import LpRelaxation
from repro.solver.model import MilpModel, Solution, SolutionStatus

__all__ = ["solve_by_enumeration", "MAX_INTEGER_VARIABLES"]

#: Refuse instances whose integral search space exceeds 2^20-ish leaves.
MAX_INTEGER_VARIABLES = 20


def solve_by_enumeration(model: MilpModel) -> Solution:
    """Brute-force the integral variables; LP-optimize the rest per leaf.

    An unbounded leaf LP makes the whole MILP unbounded: raises
    :class:`~repro.errors.UnboundedError`, as branch and bound does.
    """
    form = model.compile()
    integral_indices = np.flatnonzero(form.integrality)
    if integral_indices.size > MAX_INTEGER_VARIABLES:
        raise SolverError(
            f"enumeration oracle supports at most {MAX_INTEGER_VARIABLES} integer "
            f"variables, model {model.name!r} has {integral_indices.size}"
        )

    domains: list[range] = []
    for idx in integral_indices:
        lo, hi = form.lower[idx], form.upper[idx]
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise SolverError(
                "enumeration oracle requires finite bounds on every integer variable"
            )
        domains.append(range(int(np.ceil(lo)), int(np.floor(hi)) + 1))

    relaxation = LpRelaxation(form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq)
    names = [v.name for v in model.variables]
    best_obj = float("inf")  # minimization convention
    best_x: np.ndarray | None = None
    leaves = 0

    for assignment in itertools.product(*domains):
        leaves += 1
        lower = form.lower.copy()
        upper = form.upper.copy()
        for idx, value in zip(integral_indices, assignment):
            lower[idx] = upper[idx] = float(value)
        result = relaxation.solve(lower, upper)
        if result.status == "unbounded":
            raise UnboundedError(f"model {model.name!r} is unbounded")
        if result.is_optimal and result.objective < best_obj:
            best_obj = result.objective
            best_x = result.x

    if best_x is None:
        return Solution(SolutionStatus.INFEASIBLE, float("nan"), {}, "enumeration", leaves)
    x = best_x.copy()
    x[integral_indices] = np.round(x[integral_indices])
    return Solution(
        status=SolutionStatus.OPTIMAL,
        objective=form.objective_in_model_sense(best_obj),
        values={name: float(v) for name, v in zip(names, x)},
        backend="enumeration",
        nodes_explored=leaves,
    )
