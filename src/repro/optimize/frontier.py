"""Exact cost–utility Pareto frontier by the ε-constraint method.

A budget sweep samples the frontier at arbitrary budget levels; the
ε-constraint method enumerates it **exactly**: solve max-utility under
the current budget, record the optimum, then tighten the budget to just
below the optimum's own spend and repeat.  Each iteration yields one
non-dominated (cost, utility) point, and the iteration count equals the
number of distinct frontier points — typically far fewer than the
number of deployments.

The frontier is computed over the *scalarized* cost (the classic
bi-objective picture).  Multi-dimensional budgets stay available through
:func:`repro.optimize.pareto.budget_sweep`; this module answers the
complementary question "what does the *entire* trade-off curve look
like", with proof of completeness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro import obs
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment
from repro.optimize.family import ProblemFamily
from repro.optimize.formulation import FormulationBuilder
from repro.optimize.problem import _dispatch
from repro.runtime.cache import cached_utility
from repro.solver import SolveSession
from repro.solver.model import MilpModel, ObjectiveSense, SolutionStatus

__all__ = ["FrontierPoint", "exact_frontier"]


@dataclass(frozen=True)
class FrontierPoint:
    """One exact Pareto-optimal trade-off between spend and utility."""

    scalar_cost: float
    utility: float
    deployment: Deployment
    solve_seconds: float


def _solve_at_cost_cap(
    model: SystemModel,
    weights: UtilityWeights,
    cost_cap: float | None,
    family: ProblemFamily | None,
    **solve_args: Any,
) -> tuple[frozenset[str], float] | None:
    """Max-utility deployment with scalar cost <= cap; None if infeasible.

    ``solve_args`` (backend, session and limits) go to the shared
    dispatch, as in :func:`_cheapest_at_utility`.
    """

    def build_core() -> tuple[MilpModel, FormulationBuilder]:
        milp = MilpModel(f"frontier[{model.name}]", ObjectiveSense.MAXIMIZE)
        builder = FormulationBuilder(milp, model)
        milp.set_objective(builder.utility_expression(weights))
        return milp, builder

    if family is not None:
        milp, builder = family.core("frontier-max", build_core)
        family_key = family.session_key("frontier-max")
    else:
        milp, builder = build_core()
        family_key = None
    if cost_cap is not None:
        milp.add_constraint(builder.cost_expression() <= cost_cap, name="cost_cap")
    solution = _dispatch(milp, family_key=family_key, **solve_args)
    if solution.status is SolutionStatus.INFEASIBLE:
        return None
    selected = builder.selected_ids(solution.values)
    return selected, solution.objective


def _cheapest_at_utility(
    model: SystemModel,
    weights: UtilityWeights,
    utility_floor: float,
    family: ProblemFamily | None,
    **solve_args: Any,
) -> frozenset[str]:
    """Cheapest deployment achieving at least ``utility_floor``.

    The ε-constraint step needs this second solve: the max-utility
    optimum under a cost cap may carry slack cost, which would place a
    dominated point on the frontier.
    """

    def build_core() -> tuple[MilpModel, FormulationBuilder]:
        milp = MilpModel(f"frontier-cost[{model.name}]", ObjectiveSense.MINIMIZE)
        builder = FormulationBuilder(milp, model)
        milp.set_objective(builder.cost_expression())
        # Materialize the utility encoding into the core: the builder
        # caches the expression, so the per-instance floor row below
        # adds no rows beyond itself on reuse.
        builder.utility_expression(weights)
        return milp, builder

    if family is not None:
        milp, builder = family.core("frontier-min", build_core)
        family_key = family.session_key("frontier-min")
    else:
        milp, builder = build_core()
        family_key = None
    milp.add_constraint(
        builder.utility_expression(weights) >= utility_floor, name="utility_floor"
    )
    solution = _dispatch(milp, family_key=family_key, **solve_args)
    if solution.status is SolutionStatus.INFEASIBLE:
        raise OptimizationError(
            f"internal inconsistency: utility floor {utility_floor} became infeasible"
        )
    return builder.selected_ids(solution.values)


def exact_frontier(
    model: SystemModel,
    weights: UtilityWeights | None = None,
    *,
    backend: str = "scipy",
    epsilon: float = 1e-4,
    max_points: int = 1000,
    time_limit: float | None = None,
    presolve: bool = False,
    max_nodes: int | None = None,
    gap: float | None = None,
) -> list[FrontierPoint]:
    """The complete cost–utility Pareto frontier, cheapest point first.

    Parameters
    ----------
    epsilon:
        Cost decrement between iterations.  Must exceed the backend's
        MIP feasibility tolerance (HiGHS defaults to 1e-6, hence the
        1e-4 default) and stay below the smallest meaningful cost
        difference between deployments.
    max_points:
        Safety cap on frontier size.
    time_limit:
        Wall-clock limit in seconds applied to *each* of the frontier's
        MILP solves (two per point), not to the whole enumeration.
    presolve:
        Run every solve through one warm
        :class:`~repro.solver.session.SolveSession`: instances are
        presolved, and because each iteration only *tightens* the cost
        cap, the previous point's proven optimum is reused as a dual
        bound by the branch-and-bound backend.

    Each returned point is Pareto-optimal; consecutive points strictly
    increase in both cost and utility.  The last point attains the
    model's maximum utility; iteration stops at zero cost, at zero
    utility, or when numerical tolerances prevent further progress.
    """
    weights = weights or UtilityWeights()
    if epsilon <= 0:
        raise OptimizationError(f"epsilon must be > 0, got {epsilon!r}")

    session = (
        SolveSession(
            backend,
            presolve=True,
            time_limit=time_limit,
            max_nodes=max_nodes,
            gap=gap,
        )
        if presolve
        else None
    )
    # The warm path also shares one formulation core per problem shape:
    # only the cost-cap / utility-floor rows are rebuilt per iteration.
    family = ProblemFamily(model, weights) if session is not None else None
    solve_args = dict(
        backend=backend,
        session=session,
        time_limit=time_limit,
        max_nodes=max_nodes,
        gap=gap,
    )
    points: list[FrontierPoint] = []
    cost_cap: float | None = None  # start unconstrained: the max-utility end

    with obs.span("optimize.exact_frontier", backend=backend) as frontier_span:
        for index in range(max_points):
            with obs.span("frontier.point", i=index) as sp:
                outcome = _solve_at_cost_cap(model, weights, cost_cap, family, **solve_args)
                if outcome is None:
                    break  # cap below zero spend with forced cost: nothing feasible
                _, achieved = outcome
                if points and achieved >= points[-1].utility - 1e-9:
                    # No strict utility decrease despite the tighter cap:
                    # the remaining cost steps are inside solver
                    # tolerance.  Stop rather than record a duplicate/
                    # dominated point.
                    break
                # Trim slack spend: cheapest deployment at this utility level.
                trimmed = _cheapest_at_utility(
                    model, weights, achieved - 1e-9, family, **solve_args
                )
                trimmed_cost = model.deployment_cost(trimmed).scalarize()
            points.append(
                FrontierPoint(
                    scalar_cost=trimmed_cost,
                    utility=cached_utility(model, trimmed, weights),
                    deployment=Deployment.of(model, trimmed),
                    solve_seconds=sp.stop(),
                )
            )
            if trimmed_cost <= 0.0 or achieved <= 0.0:
                break
            cost_cap = trimmed_cost - epsilon
        frontier_span.set(points=len(points))

    points.reverse()  # cheapest first
    return points
