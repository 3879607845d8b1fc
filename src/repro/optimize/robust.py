"""Scenario-robust monitor placement.

Attack importance values are estimates; a deployment tuned to one
estimate can crater when the threat landscape shifts.  The robust
variant optimizes the **worst case over importance scenarios**::

    maximize   t
    subject to t <= utility_s(x)   for every scenario s
               cost(x) <= budget

where ``utility_s`` is the utility expression with attack importance
taken from scenario ``s``.  Because each ``utility_s`` is linear in the
same auxiliary variables, the max-min program stays a MILP: one
continuous epigraph variable ``t`` plus one constraint per scenario.

Scenario builders for the common cases (reweighting attack classes,
dropping attacks, flat importance) live here too.

:func:`per_scenario_optima` complements the max-min solve: it optimizes
each scenario *in isolation* (the clairvoyant benchmark the robust
deployment is measured against).  The scenario solves are independent,
so they fan out over :func:`~repro.runtime.parallel.parallel_map`.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

from repro import obs
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment, OptimizationResult
from repro.optimize.formulation import FormulationBuilder, event_weights
from repro.optimize.problem import _assemble, _dispatch, _selection
from repro.runtime.parallel import parallel_map, resolve_workers
from repro.runtime.pool import PersistentPool
from repro.runtime.resilience import MapReport, RetryPolicy
from repro.solver import SolveSession
from repro.solver.model import MilpModel, ObjectiveSense

__all__ = [
    "ImportanceScenario",
    "RobustMaxUtilityProblem",
    "per_scenario_optima",
    "scenario_utility",
]


class ImportanceScenario:
    """A named reassignment of attack importance values.

    ``overrides`` maps attack ids to importance in ``(0, 1]``; attacks
    absent from the mapping keep their model importance.  An override of
    exactly ``0`` removes the attack from the scenario entirely (the
    threat retired).
    """

    def __init__(self, name: str, overrides: Mapping[str, float] | None = None):
        self.name = name
        self.overrides = dict(overrides or {})
        for attack_id, importance in self.overrides.items():
            if not 0.0 <= importance <= 1.0:
                raise OptimizationError(
                    f"scenario {name!r}: importance for {attack_id!r} must lie "
                    f"in [0, 1], got {importance!r}"
                )

    def importance_of(self, model: SystemModel, attack_id: str) -> float:
        """The attack's importance under this scenario."""
        if attack_id in self.overrides:
            return self.overrides[attack_id]
        return model.attack(attack_id).importance

    def validate_against(self, model: SystemModel) -> None:
        """Check every override references a model attack."""
        unknown = set(self.overrides) - set(model.attacks)
        if unknown:
            raise OptimizationError(
                f"scenario {self.name!r} references unknown attacks: {sorted(unknown)}"
            )

    def __repr__(self) -> str:
        return f"ImportanceScenario({self.name!r}, {len(self.overrides)} overrides)"


def _scenario_event_weights(
    model: SystemModel, scenario: ImportanceScenario
) -> dict[str, float]:
    """Per-event utility weights under a scenario's importance values."""
    return event_weights(
        model, {attack_id: scenario.importance_of(model, attack_id) for attack_id in model.attacks}
    )


def scenario_utility(
    model: SystemModel,
    deployed: frozenset[str] | set[str],
    scenario: ImportanceScenario,
    weights: UtilityWeights | None = None,
) -> float:
    """Reference (direct) evaluation of utility under a scenario.

    Mirrors :func:`repro.metrics.utility.utility` with the scenario's
    importance values; the ILP's scenario expressions must agree with
    this function at 0/1 points (property-tested).
    """
    from repro.metrics.coverage import event_coverage
    from repro.metrics.redundancy import event_redundancy
    from repro.metrics.richness import event_richness

    weights = weights or UtilityWeights()
    deployed_set = set(deployed)
    value = 0.0
    for event_id, base in _scenario_event_weights(model, scenario).items():
        if weights.coverage > 0:
            value += weights.coverage * base * event_coverage(model, deployed_set, event_id)
        if weights.redundancy > 0:
            value += weights.redundancy * base * event_redundancy(
                model, deployed_set, event_id, weights.redundancy_cap
            )
        if weights.richness > 0:
            value += weights.richness * base * event_richness(model, deployed_set, event_id)
    return value


def _scenario_optimum_job(
    task: tuple[
        SystemModel,
        Budget,
        ImportanceScenario,
        UtilityWeights,
        str,
        float | None,
        bool,
        SolveSession | None,
    ],
) -> OptimizationResult:
    model, budget, scenario, weights, backend, time_limit, presolve, session = task
    with obs.span("optimize.scenario_optimum", scenario=scenario.name) as sp:
        milp = MilpModel(f"scenario[{model.name}/{scenario.name}]", ObjectiveSense.MAXIMIZE)
        builder = FormulationBuilder(milp, model)
        milp.set_objective(
            builder.weighted_utility_expression(
                _scenario_event_weights(model, scenario), weights
            )
        )
        builder.add_budget_constraints(budget)
        solution = _dispatch(
            milp, backend, session=session, time_limit=time_limit, presolve=presolve
        )
        selected = _selection(
            builder, solution, f"no deployment fits the budget in scenario {scenario.name!r}"
        )
        achieved = scenario_utility(model, selected, scenario, weights)
    return _assemble(
        model,
        solution,
        selected,
        sp.duration,
        prefix="scenario-ilp",
        achieved=achieved,
        scenario_utility=achieved,
    )


def per_scenario_optima(
    model: SystemModel,
    budget: Budget,
    scenarios: Sequence[ImportanceScenario],
    weights: UtilityWeights | None = None,
    *,
    backend: str = "scipy",
    time_limit: float | None = None,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    report: MapReport | None = None,
    presolve: bool = False,
    pool: PersistentPool | None = None,
) -> dict[str, OptimizationResult]:
    """Optimal deployment for each scenario solved in isolation.

    The clairvoyant benchmark: ``per_scenario_optima(...)[s].utility``
    is the best any deployment could do if scenario ``s`` were known in
    advance, so the gap to the robust deployment's utility under ``s``
    is the price of robustness.  Results are keyed by scenario name and
    rebound to the caller's ``model``; ``workers > 1`` distributes the
    independent solves over a process pool without changing any result.
    ``policy`` adds per-scenario timeouts/retries; scenarios dropped by
    ``on_failure="skip"`` are simply absent from the mapping (and listed
    by index in ``report.skipped``).

    ``presolve`` reduces each scenario's MILP before solving.  Scenario
    instances share all constraints and differ only in the objective,
    so on a serial run this upgrades to a shared
    :class:`~repro.solver.session.SolveSession` whose previous optimum
    seeds the next scenario's incumbent (sessions cannot cross process
    boundaries; parallel runs presolve independently).  ``pool`` (or an
    ambient :func:`~repro.runtime.pool.use_pool`) reuses one persistent
    executor instead of spinning a pool up per call.
    """
    weights = weights or UtilityWeights()
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise OptimizationError(f"duplicate scenario names: {names}")
    for scenario in scenarios:
        scenario.validate_against(model)
    report = report if report is not None else MapReport()
    serial = resolve_workers(workers) <= 1 or len(scenarios) <= 1
    session = (
        SolveSession(backend, presolve=True, time_limit=time_limit)
        if presolve and serial
        else None
    )
    results = parallel_map(
        _scenario_optimum_job,
        [
            (model, budget, scenario, weights, backend, time_limit, presolve, session)
            for scenario in scenarios
        ],
        workers=workers,
        policy=policy,
        report=report,
        pool=pool,
    )
    if report.skipped:
        dropped = set(report.skipped)
        names = [name for index, name in enumerate(names) if index not in dropped]
    rebound = [
        result
        if result.deployment.model is model
        else replace(result, deployment=Deployment.of(model, result.deployment.monitor_ids))
        for result in results
    ]
    return dict(zip(names, rebound))


class RobustMaxUtilityProblem:
    """Maximize worst-case utility over importance scenarios, under budget.

    With a single scenario this reduces exactly to
    :class:`~repro.optimize.problem.MaxUtilityProblem` (tested).  The
    model's own importance values always participate as the implicit
    ``"nominal"`` scenario unless ``include_nominal=False``.
    """

    def __init__(
        self,
        model: SystemModel,
        budget: Budget,
        scenarios: Sequence[ImportanceScenario],
        weights: UtilityWeights | None = None,
        *,
        include_nominal: bool = True,
    ):
        self.model = model
        self.budget = budget
        self.weights = weights or UtilityWeights()
        self.scenarios = list(scenarios)
        if include_nominal:
            self.scenarios.insert(0, ImportanceScenario("nominal"))
        if not self.scenarios:
            raise OptimizationError("robust optimization needs at least one scenario")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise OptimizationError(f"duplicate scenario names: {names}")
        for scenario in self.scenarios:
            scenario.validate_against(model)

    def build(self) -> tuple[MilpModel, FormulationBuilder]:
        """Construct the epigraph MILP without solving."""
        milp = MilpModel(f"robust[{self.model.name}]", ObjectiveSense.MAXIMIZE)
        builder = FormulationBuilder(milp, self.model)
        t = milp.continuous("worst_case_utility", 0.0, 1.0)
        for scenario in self.scenarios:
            expr = builder.weighted_utility_expression(
                _scenario_event_weights(self.model, scenario), self.weights
            )
            milp.add_constraint(t <= expr, name=f"scenario[{scenario.name}]")
        builder.add_budget_constraints(self.budget)
        milp.set_objective(t + 0.0)
        return milp, builder

    def solve(
        self,
        backend: str = "scipy",
        *,
        time_limit: float | None = None,
        presolve: bool = False,
    ) -> OptimizationResult:
        """Solve and report per-scenario utilities in ``stats``."""
        with obs.span("optimize.robust", scenarios=len(self.scenarios)) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            solution = _dispatch(milp, backend, time_limit=time_limit, presolve=presolve)
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        selected = _selection(builder, solution, "no deployment fits the budget")
        per_scenario = {
            f"utility[{s.name}]": scenario_utility(self.model, selected, s, self.weights)
            for s in self.scenarios
        }
        return _assemble(
            self.model,
            solution,
            selected,
            sp.duration,
            prefix="robust-ilp",
            achieved=min(per_scenario.values()),
            milp=milp,
            scenarios=float(len(self.scenarios)),
            **per_scenario,
        )
