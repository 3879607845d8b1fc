"""The two deployment optimization problems from the paper.

* :class:`MaxUtilityProblem` — given a budget, select the monitor set of
  maximum utility whose cost fits every budget dimension (the paper's
  headline "cost-optimal, maximum-utility placement").
* :class:`MinCostProblem` — given utility/coverage requirements, select
  the cheapest monitor set that meets them (the planning dual: "what
  does this security goal cost?").

Both compile to 0/1 integer programs through
:class:`~repro.optimize.formulation.FormulationBuilder` and solve with
any registered backend, returning an
:class:`~repro.optimize.deployment.OptimizationResult` whose utility is
re-evaluated with the reference metrics.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import replace

from repro import obs
from repro.core.model import SystemModel
from repro.errors import FallbackExhaustedError, InfeasibleError, OptimizationError, SolverError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.deployment import Deployment, OptimizationResult
from repro.optimize.family import ProblemFamily
from repro.optimize.formulation import FormulationBuilder
from repro.solver import DEFAULT_CHAIN, SolveSession, solve
from repro.solver.model import MilpModel, ObjectiveSense, Solution, SolutionStatus

__all__ = ["MaxUtilityProblem", "MinCostProblem"]


def _dispatch(
    milp: MilpModel,
    backend: str,
    *,
    session: SolveSession | None = None,
    family_key: str | None = None,
    time_limit: float | None = None,
    max_nodes: int | None = None,
    gap: float | None = None,
    presolve: bool = False,
) -> Solution:
    """The one road from a built MILP to a backend.

    A ``session`` answers when given: it carries its own backend and
    presolve setting, and ``family_key`` names the warm-start family.
    Otherwise :func:`repro.solver.solve` runs ``backend`` cold.
    """
    limits = dict(time_limit=time_limit, max_nodes=max_nodes, gap=gap)
    if session is not None:
        return session.solve(milp, family_key=family_key, **limits)
    return solve(milp, backend, presolve=presolve, **limits)


def _selection(builder: FormulationBuilder, solution: Solution, infeasible: str) -> frozenset[str]:
    """The monitor ids a solution selects.

    Raises :class:`~repro.errors.InfeasibleError` with the caller's
    ``infeasible`` message when the backend (or presolve) proved the
    MILP infeasible.
    """
    if solution.status is SolutionStatus.INFEASIBLE:
        raise InfeasibleError(infeasible)
    return builder.selected_ids(solution.values)


def _assemble(
    model: SystemModel,
    solution: Solution,
    selected: frozenset[str],
    seconds: float,
    *,
    prefix: str,
    achieved: float,
    milp: MilpModel | None = None,
    **extra: float,
) -> OptimizationResult:
    """The deployment result of one exact solve.

    The method reads ``"{prefix}/{backend}"`` and ``achieved`` is the
    caller's utility.  When ``milp`` is given, its size (``variables``,
    ``constraints``) leads the stats; ``extra`` keys follow in order,
    then, for a fallback-chain answer, how many backends it tried
    (``fallback_attempts``) and how many of them failed
    (``fallback_failures``).
    """
    stats: dict[str, float] = {}
    if milp is not None:
        stats["variables"] = float(milp.num_variables)
        stats["constraints"] = float(milp.num_constraints)
    stats.update(extra)
    if solution.attempts:
        stats["fallback_attempts"] = float(len(solution.attempts))
        stats["fallback_failures"] = float(sum(not a.answered for a in solution.attempts))
    return OptimizationResult(
        deployment=Deployment.of(model, selected),
        objective=solution.objective,
        utility=achieved,
        solve_seconds=seconds,
        method=f"{prefix}/{solution.backend}",
        optimal=solution.is_optimal,
        stats=stats,
    )


class MaxUtilityProblem:
    """Maximize deployment utility subject to a multi-dimensional budget.

    Parameters
    ----------
    model:
        The system model to place monitors in.
    budget:
        Per-dimension spending limits; must constrain at least one
        dimension (an unconstrained problem would always select every
        useful monitor).
    weights:
        Utility weights; library defaults if omitted.
    forced_monitors:
        Monitors treated as already deployed — they are pinned selected
        and their cost counts against the budget.  This supports the
        incremental re-optimization workflow (extend an existing
        deployment after the attack catalog grows).
    max_monitors:
        Optional cap on the number of selected monitors, independent of
        cost (operational headcount: each monitor needs care and
        feeding regardless of its resource footprint).
    family:
        Optional :class:`~repro.optimize.family.ProblemFamily` sharing
        one formulation core across related problems (a budget sweep's
        points).  The family must be built over the same model instance
        and weights; :meth:`build` then reuses the cached core and only
        re-appends this problem's budget/forced/cardinality rows,
        producing a bit-identical ILP at a fraction of the cost.
    """

    def __init__(
        self,
        model: SystemModel,
        budget: Budget,
        weights: UtilityWeights | None = None,
        *,
        forced_monitors: Iterable[str] = (),
        max_monitors: int | None = None,
        family: ProblemFamily | None = None,
    ):
        self.model = model
        self.budget = budget
        self.weights = weights or UtilityWeights()
        self.forced_monitors = frozenset(forced_monitors)
        if max_monitors is not None and max_monitors < 0:
            raise OptimizationError(f"max_monitors must be >= 0, got {max_monitors!r}")
        self.max_monitors = max_monitors
        if family is not None:
            if family.model is not model:
                raise OptimizationError(
                    "ProblemFamily was built over a different model instance"
                )
            if family.weights != self.weights:
                raise OptimizationError(
                    "ProblemFamily was built for different utility weights"
                )
        self.family = family

    def _build_core(self) -> tuple[MilpModel, FormulationBuilder]:
        milp = MilpModel(f"max-utility[{self.model.name}]", ObjectiveSense.MAXIMIZE)
        builder = FormulationBuilder(milp, self.model)
        milp.set_objective(builder.utility_expression(self.weights))
        return milp, builder

    def build(self) -> tuple[MilpModel, FormulationBuilder]:
        """Construct the ILP without solving (exposed for inspection/tests)."""
        if self.family is not None:
            milp, builder = self.family.core("max-utility", self._build_core)
        else:
            milp, builder = self._build_core()
        builder.add_budget_constraints(self.budget)
        if self.forced_monitors:
            builder.add_forced_selection(self.forced_monitors)
        if self.max_monitors is not None:
            builder.add_cardinality_constraint(self.max_monitors)
        return milp, builder

    def solve(
        self,
        backend: str = "scipy",
        *,
        time_limit: float | None = None,
        presolve: bool = False,
        session: SolveSession | None = None,
        max_nodes: int | None = None,
        gap: float | None = None,
    ) -> OptimizationResult:
        """Solve to optimality and return the chosen deployment.

        ``presolve`` routes the ILP through the exact reduction pipeline
        first; ``session`` (which implies its own presolve setting and
        backend) reuses warm-start state across a family of related
        solves — pass the same session to every point of a sweep.

        With the ``"fallback"`` backend (the session's, when one is
        given) the exact backends are tried in
        :data:`~repro.solver.DEFAULT_CHAIN` order, and ``stats`` count
        the attempts and failures.  If *every* exact backend **errors**
        — never when one proves the model INFEASIBLE, which is a verdict
        about the budget, not a solver failure — the greedy heuristic
        answers instead with ``method="greedy-fallback"``, and its
        ``failures`` say why each exact backend failed.  The greedy
        rescue is skipped (the chain's :class:`~repro.errors.SolverError`
        propagates) when ``max_monitors`` is set: greedy has no
        cardinality constraint, so its answer could silently violate the
        problem.

        Raises
        ------
        repro.errors.InfeasibleError
            If no deployment fits the budget (only possible with forced
            monitors exceeding it — the empty deployment is otherwise
            always feasible).
        repro.errors.SolverError
            If the backend fails and greedy cannot stand in.
        """
        with obs.span("optimize.max_utility", backend=backend) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            family_key = None if self.family is None else self.family.session_key("max-utility")
            try:
                solution = _dispatch(
                    milp,
                    backend,
                    session=session,
                    family_key=family_key,
                    time_limit=time_limit,
                    max_nodes=max_nodes,
                    gap=gap,
                    presolve=presolve,
                )
            except SolverError as exc:
                chosen = session.backend if session is not None else backend
                if chosen != "fallback" or self.max_monitors is not None:
                    raise
                from repro.optimize.greedy import solve_greedy

                obs.counter("optimize.greedy_rescues").inc()
                result = solve_greedy(
                    self.model,
                    self.budget,
                    self.weights,
                    forced_monitors=self.forced_monitors,
                )
                sp.set(answered="greedy")
                failed = float(len(DEFAULT_CHAIN))
                return replace(
                    result,
                    method="greedy-fallback",
                    optimal=False,
                    stats={**result.stats, "fallback_attempts": failed, "fallback_failures": failed},
                    failures=(
                        exc.failures
                        if isinstance(exc, FallbackExhaustedError)
                        else (f"{type(exc).__name__}: {exc}",)
                    ),
                )
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        selected = _selection(
            builder,
            solution,
            f"no deployment fits the budget {dict(self.budget.limits)!r} "
            f"(forced monitors: {sorted(self.forced_monitors)})",
        )
        return _assemble(
            self.model,
            solution,
            selected,
            sp.duration,
            prefix="ilp",
            achieved=utility(self.model, selected, self.weights),
            milp=milp,
            nodes=float(solution.nodes_explored),
        )


class MinCostProblem:
    """Minimize deployment cost subject to security requirements.

    At least one requirement must be given:

    ``min_utility``
        Overall utility floor under ``weights``.
    ``min_attack_coverage``
        Per-attack coverage floors, ``{attack_id: floor}``.
    ``fully_cover``
        Attacks whose every *required* step must be evidenced by at
        least one selected monitor.
    ``redundant_cover``
        Defense-in-depth floors, ``{attack_id: min_sources}``: every
        required step of the attack must be evidenced by at least
        ``min_sources`` selected monitors (a single compromised or
        failed monitor then cannot blind the kill chain).
    ``min_attack_richness``
        Forensic floors, ``{attack_id: floor}``: the attack's richness
        metric (fraction of capturable data fields collected about its
        steps) must reach ``floor`` — "we must be able to *investigate*
        this attack", not merely notice it.

    The objective is the scalarized cost; ``cost_dimension_weights``
    rebalances dimensions (default: every dimension weighs 1).
    """

    def __init__(
        self,
        model: SystemModel,
        *,
        min_utility: float | None = None,
        min_attack_coverage: Mapping[str, float] | None = None,
        fully_cover: Iterable[str] = (),
        redundant_cover: Mapping[str, int] | None = None,
        min_attack_richness: Mapping[str, float] | None = None,
        weights: UtilityWeights | None = None,
        cost_dimension_weights: Mapping[str, float] | None = None,
    ):
        self.model = model
        self.min_utility = min_utility
        self.min_attack_coverage = dict(min_attack_coverage or {})
        self.fully_cover = tuple(fully_cover)
        self.redundant_cover = dict(redundant_cover or {})
        self.min_attack_richness = dict(min_attack_richness or {})
        self.weights = weights or UtilityWeights()
        self.cost_dimension_weights = (
            None if cost_dimension_weights is None else dict(cost_dimension_weights)
        )
        if (
            min_utility is None
            and not self.min_attack_coverage
            and not self.fully_cover
            and not self.redundant_cover
            and not self.min_attack_richness
        ):
            raise OptimizationError(
                "MinCostProblem needs at least one requirement: min_utility, "
                "min_attack_coverage, fully_cover, redundant_cover, or "
                "min_attack_richness"
            )
        for attack_id, floor in self.min_attack_richness.items():
            if attack_id not in model.attacks:
                raise OptimizationError(
                    f"richness floor references unknown attack {attack_id!r}"
                )
            if not 0.0 <= floor <= 1.0:
                raise OptimizationError(
                    f"richness floor for {attack_id!r} must lie in [0, 1], got {floor!r}"
                )
        for attack_id, min_sources in self.redundant_cover.items():
            if attack_id not in model.attacks:
                raise OptimizationError(
                    f"redundant_cover references unknown attack {attack_id!r}"
                )
            if min_sources < 1:
                raise OptimizationError(
                    f"redundant_cover for {attack_id!r} must be >= 1, got {min_sources!r}"
                )
        if min_utility is not None and not 0.0 <= min_utility <= 1.0:
            raise OptimizationError(f"min_utility must lie in [0, 1], got {min_utility!r}")
        for attack_id, floor in self.min_attack_coverage.items():
            if attack_id not in model.attacks:
                raise OptimizationError(f"coverage floor references unknown attack {attack_id!r}")
            if not 0.0 <= floor <= 1.0:
                raise OptimizationError(
                    f"coverage floor for {attack_id!r} must lie in [0, 1], got {floor!r}"
                )
        for attack_id in self.fully_cover:
            if attack_id not in model.attacks:
                raise OptimizationError(f"fully_cover references unknown attack {attack_id!r}")

    def build(self) -> tuple[MilpModel, FormulationBuilder]:
        """Construct the ILP without solving (exposed for inspection/tests)."""
        milp = MilpModel(f"min-cost[{self.model.name}]", ObjectiveSense.MINIMIZE)
        builder = FormulationBuilder(milp, self.model)
        milp.set_objective(builder.cost_expression(self.cost_dimension_weights))
        if self.min_utility is not None:
            milp.add_constraint(
                builder.utility_expression(self.weights) >= self.min_utility,
                name="min_utility",
            )
        for attack_id, floor in sorted(self.min_attack_coverage.items()):
            milp.add_constraint(
                builder.attack_coverage_expression(attack_id) >= floor,
                name=f"min_cov[{attack_id}]",
            )
        for attack_id in self.fully_cover:
            builder.add_full_coverage_constraint(attack_id)
        for attack_id, min_sources in sorted(self.redundant_cover.items()):
            builder.add_full_coverage_constraint(attack_id, min_sources=min_sources)
        for attack_id, floor in sorted(self.min_attack_richness.items()):
            milp.add_constraint(
                builder.attack_richness_expression(attack_id) >= floor,
                name=f"min_rich[{attack_id}]",
            )
        return milp, builder

    def solve(
        self,
        backend: str = "scipy",
        *,
        time_limit: float | None = None,
        presolve: bool = False,
        session: SolveSession | None = None,
        max_nodes: int | None = None,
        gap: float | None = None,
    ) -> OptimizationResult:
        """Solve to optimality and return the cheapest compliant deployment.

        ``presolve``/``session``/``max_nodes``/``gap`` behave as on
        :meth:`MaxUtilityProblem.solve`.

        Raises
        ------
        repro.errors.InfeasibleError
            If the requirements are unattainable with the model's
            monitors (e.g. a required step no monitor can evidence).
        """
        with obs.span("optimize.min_cost", backend=backend) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            solution = _dispatch(
                milp,
                backend,
                session=session,
                time_limit=time_limit,
                max_nodes=max_nodes,
                gap=gap,
                presolve=presolve,
            )
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        selected = _selection(
            builder,
            solution,
            "security requirements are unattainable with the available monitors "
            f"(min_utility={self.min_utility!r}, "
            f"floors={self.min_attack_coverage!r}, fully_cover={self.fully_cover!r})",
        )
        return _assemble(
            self.model,
            solution,
            selected,
            sp.duration,
            prefix="ilp",
            achieved=utility(self.model, selected, self.weights),
            milp=milp,
            nodes=float(solution.nodes_explored),
        )
