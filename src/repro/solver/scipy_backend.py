"""MILP backend on :func:`scipy.optimize.milp` (HiGHS branch-and-cut).

This is the production backend: HiGHS handles the case-study and
scalability instances in well under a second.  It shares the
:class:`~repro.solver.model.StandardForm` compilation with the pure-
Python branch-and-bound backend, so both see bit-identical problems.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro import obs
from repro.errors import LimitReachedError, SolverError, UnboundedError
from repro.solver.model import MilpModel, Solution, SolutionStatus

__all__ = ["solve_scipy_milp"]


def solve_scipy_milp(
    model: MilpModel,
    *,
    time_limit: float | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
) -> Solution:
    """Solve ``model`` with HiGHS via scipy.

    ``time_limit`` maps to HiGHS's wall-clock limit and ``max_nodes`` to
    its node limit; when either triggers, the best incumbent is returned
    with status ``FEASIBLE``, and :class:`~repro.errors.LimitReachedError`
    is raised when there is none.  ``gap`` maps to HiGHS's relative
    MIP gap — an incumbent proven within the gap reports ``OPTIMAL``.
    """
    with obs.span("solver.scipy_milp", model=model.name) as sp:
        solution = _solve(model, time_limit, max_nodes, gap, sp)
    obs.counter("solver.solves").inc()
    obs.histogram("solver.solve_seconds").observe(sp.duration)
    return solution


def _solve(
    model: MilpModel,
    time_limit: float | None,
    max_nodes: int | None,
    gap: float | None,
    sp: obs.Span,
) -> Solution:
    form = model.compile()
    sp.set(variables=int(form.c.size), rows=int(len(form.b_ub) + len(form.b_eq)))
    # Emptiness by rhs length, not A.size: on a CSR matrix .size is the
    # nonzero count, and an all-zero row must still reach the solver.
    constraints = []
    if form.b_ub.size:
        constraints.append(LinearConstraint(form.A_ub, -np.inf, form.b_ub))
    if form.b_eq.size:
        constraints.append(LinearConstraint(form.A_eq, form.b_eq, form.b_eq))

    options: dict[str, float] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if max_nodes is not None:
        options["node_limit"] = int(max_nodes)
    if gap is not None:
        options["mip_rel_gap"] = float(gap)

    result = milp(
        c=form.c,
        constraints=constraints,
        bounds=Bounds(form.lower, form.upper),
        integrality=form.integrality.astype(int),
        options=options or None,
    )

    # scipy.optimize.milp status codes: 0 optimal, 1 iteration/time limit,
    # 2 infeasible, 3 unbounded, 4 numerical trouble.
    if result.status == 2:
        return Solution(SolutionStatus.INFEASIBLE, float("nan"), {}, "scipy-milp")
    if result.status == 3:
        raise UnboundedError(f"model {model.name!r} is unbounded")
    if result.x is None:
        if result.status == 1:
            raise LimitReachedError(
                f"scipy milp hit its limit without a feasible point for model "
                f"{model.name!r}: {result.message}",
                int(result.mip_node_count or 0),
            )
        raise SolverError(f"scipy milp failed with status {result.status}: {result.message}")

    x = np.asarray(result.x, dtype=float)
    x[form.integrality] = np.round(x[form.integrality])
    values = {v.name: float(x[v.index]) for v in model.variables}
    status = SolutionStatus.OPTIMAL if result.status == 0 else SolutionStatus.FEASIBLE
    return Solution(
        status=status,
        objective=form.objective_in_model_sense(float(form.c @ x)),
        values=values,
        backend="scipy-milp",
    )
