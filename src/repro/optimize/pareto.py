"""Budget sweeps and Pareto frontiers over cost/utility space.

The paper's central picture — utility as a function of the deployment
budget — is produced here: :func:`budget_sweep` solves a sequence of
:class:`~repro.optimize.problem.MaxUtilityProblem` instances at scaled
budgets, and :func:`pareto_frontier` extracts the non-dominated
(cost, utility) points from any collection of evaluated deployments.

Sweep points are independent solves, so both sweep functions accept a
``workers`` count and fan out over the runtime substrate's
:func:`~repro.runtime.parallel.parallel_map`; results are rebound to
the caller's model instance and are positionally identical to a serial
run.  Frontier extraction evaluates candidate deployments through the
shared per-model evaluation cache.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace

from repro import obs
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment, OptimizationResult
from repro.optimize.family import ProblemFamily
from repro.optimize.problem import MaxUtilityProblem
from repro.runtime.cache import cached_utility
from repro.runtime.parallel import parallel_map, resolve_workers
from repro.runtime.pool import PersistentPool
from repro.runtime.resilience import MapReport, RetryPolicy
from repro.solver import SolveSession

__all__ = ["SweepPoint", "budget_sweep", "heuristic_sweep", "pareto_frontier", "solve_time_profile"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a budget sweep: the budget knob and its outcome."""

    fraction: float
    budget: Budget
    result: OptimizationResult

    @property
    def utility(self) -> float:
        return self.result.utility

    @property
    def scalar_cost(self) -> float:
        """Scalarized cost actually spent (not the budget limit)."""
        return self.result.deployment.cost().scalarize()


def _rebind(point: SweepPoint, model: SystemModel) -> SweepPoint:
    """Tie a (possibly unpickled) sweep point back to the caller's model.

    Worker processes return deployments referencing their own unpickled
    model copy; downstream consumers (the campaign simulator, deployment
    unions) require identity with the model they were handed.
    """
    if point.result.deployment.model is model:
        return point
    deployment = Deployment.of(model, point.result.deployment.monitor_ids)
    return replace(point, result=replace(point.result, deployment=deployment))


def _budget_sweep_job(
    task: tuple[
        SystemModel,
        float,
        UtilityWeights,
        str,
        float | None,
        bool,
        SolveSession | None,
        int | None,
        float | None,
        ProblemFamily | None,
    ],
) -> SweepPoint:
    (
        model,
        fraction,
        weights,
        backend,
        time_limit,
        presolve,
        session,
        max_nodes,
        gap,
        family,
    ) = task
    budget = Budget.fraction_of_total(model, fraction)
    problem = MaxUtilityProblem(model, budget, weights, family=family)
    result = problem.solve(
        backend,
        time_limit=time_limit,
        presolve=presolve,
        session=session,
        max_nodes=max_nodes,
        gap=gap,
    )
    return SweepPoint(fraction=fraction, budget=budget, result=result)


def budget_sweep(
    model: SystemModel,
    fractions: Sequence[float],
    weights: UtilityWeights | None = None,
    *,
    backend: str = "scipy",
    time_limit: float | None = None,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    report: MapReport | None = None,
    presolve: bool = False,
    session: SolveSession | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
    pool: PersistentPool | None = None,
    family: ProblemFamily | None = None,
) -> list[SweepPoint]:
    """Optimal utility at each budget fraction of the total monitor cost.

    ``fractions`` are relative to the cost of deploying *every* monitor,
    so 0.0 affords nothing (beyond zero-cost monitors) and 1.0 affords
    the full deployment.  ``workers > 1`` solves the fractions across a
    process pool; the returned points match a serial run exactly.
    ``policy`` adds per-point timeouts/retries (see
    :class:`~repro.runtime.resilience.RetryPolicy`); under
    ``on_failure="skip"`` the skipped fractions are simply absent from
    the result and listed in ``report.skipped``.

    ``presolve`` routes every point through the exact reduction
    pipeline.  On a serial sweep this automatically upgrades to a
    :class:`~repro.solver.session.SolveSession`, so consecutive points
    warm-start each other (ascending budgets are the ideal case: each
    optimum stays feasible at the next, looser, point); parallel sweeps
    presolve each point independently, since sessions cannot cross
    process boundaries.  Passing an explicit ``session`` reuses state
    across *calls* too, but then requires a serial sweep.

    ``pool`` (or an ambient :func:`~repro.runtime.pool.use_pool`) reuses
    one persistent executor across this and every other map in a study.

    ``family`` shares one formulation core across *calls* too (the
    solve service passes its cached per-tenant
    :class:`~repro.optimize.family.ProblemFamily` so repeated sweeps
    over one model skip the core rebuild entirely).  It requires a
    serial sweep for the same reason a session does, and must have been
    built over this exact ``model`` instance and ``weights``.
    """
    weights = weights or UtilityWeights()
    serial = resolve_workers(workers) <= 1 or len(fractions) <= 1
    if session is not None and not serial:
        raise OptimizationError(
            "a SolveSession cannot cross process boundaries; "
            "use workers=1 (or pass no session) for parallel sweeps"
        )
    if family is not None and not serial:
        raise OptimizationError(
            "a ProblemFamily cannot cross process boundaries; "
            "use workers=1 (or pass no family) for parallel sweeps"
        )
    if session is None and presolve and serial:
        session = SolveSession(
            backend,
            presolve=True,
            time_limit=time_limit,
            max_nodes=max_nodes,
            gap=gap,
        )
    # A session implies a serial sweep, so the points can also share one
    # formulation core: only the budget rows are rebuilt per point.
    if family is None and session is not None:
        family = ProblemFamily(model, weights)
    with obs.span("optimize.budget_sweep", points=len(fractions), backend=backend):
        points = parallel_map(
            _budget_sweep_job,
            [
                (
                    model,
                    fraction,
                    weights,
                    backend,
                    time_limit,
                    presolve,
                    session,
                    max_nodes,
                    gap,
                    family,
                )
                for fraction in fractions
            ],
            workers=workers,
            policy=policy,
            report=report,
            pool=pool,
        )
    return [_rebind(point, model) for point in points]


def _heuristic_sweep_job(
    task: tuple[
        SystemModel,
        float,
        Callable[[SystemModel, Budget, UtilityWeights], OptimizationResult],
        UtilityWeights,
    ],
) -> SweepPoint:
    model, fraction, solver, weights = task
    budget = Budget.fraction_of_total(model, fraction)
    result = solver(model, budget, weights)
    return SweepPoint(fraction=fraction, budget=budget, result=result)


def heuristic_sweep(
    model: SystemModel,
    fractions: Sequence[float],
    solver: Callable[[SystemModel, Budget, UtilityWeights], OptimizationResult],
    weights: UtilityWeights | None = None,
    *,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    report: MapReport | None = None,
    pool: PersistentPool | None = None,
) -> list[SweepPoint]:
    """Run any ``(model, budget, weights) -> OptimizationResult`` solver
    over the same budget fractions as :func:`budget_sweep`, for
    optimal-vs-heuristic comparisons on identical budgets.  Solvers must
    be module-level callables to actually parallelize; closures fall
    back to a serial run.  ``policy``/``report``/``pool`` behave as in
    :func:`budget_sweep`."""
    weights = weights or UtilityWeights()
    with obs.span("optimize.heuristic_sweep", points=len(fractions)):
        points = parallel_map(
            _heuristic_sweep_job,
            [(model, fraction, solver, weights) for fraction in fractions],
            workers=workers,
            policy=policy,
            report=report,
            pool=pool,
        )
    return [_rebind(point, model) for point in points]


def pareto_frontier(
    deployments: Iterable[Deployment], weights: UtilityWeights | None = None
) -> list[tuple[float, float, Deployment]]:
    """Non-dominated ``(scalar cost, utility, deployment)`` triples.

    A deployment is dominated if another costs no more and yields at
    least as much utility (with one inequality strict).  The result is
    sorted by cost ascending; utilities are then strictly increasing.
    Utilities come from the shared per-model evaluation cache, so
    frontiers over sweep outputs reuse the sweeps' evaluations.
    """
    weights = weights or UtilityWeights()
    with obs.span("optimize.pareto_frontier") as sp:
        evaluated = [
            (
                d.cost().scalarize(),
                cached_utility(d.model, d.monitor_ids, weights),
                d,
            )
            for d in deployments
        ]
        sp.set(candidates=len(evaluated))
    evaluated.sort(key=lambda item: (item[0], -item[1]))
    frontier: list[tuple[float, float, Deployment]] = []
    best_utility = float("-inf")
    for cost, util, deployment in evaluated:
        if util > best_utility:
            frontier.append((cost, util, deployment))
            best_utility = util
    return frontier


def solve_time_profile(points: Iterable[SweepPoint]) -> dict[str, float]:
    """Aggregate solve-time statistics over a sweep (for scalability tables)."""
    times = [p.result.solve_seconds for p in points]
    if not times:
        return {"total": 0.0, "mean": 0.0, "max": 0.0}
    return {"total": sum(times), "mean": sum(times) / len(times), "max": max(times)}
