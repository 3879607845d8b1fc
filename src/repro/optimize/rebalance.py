"""Deployment rebalancing with switching costs.

Real deployments evolve: re-optimizing from scratch after every model
change produces churn (decommissioning running monitors, installing new
ones) that has its own cost — change tickets, agent rollouts, analyst
retraining.  :class:`RebalanceProblem` makes that trade-off explicit::

    maximize  utility(x) - removal_penalty * sum_{m in current} (1 - x_m)
                         - addition_penalty * sum_{m not in current} x_m
    subject to cost(x) <= budget

Penalties are in utility units per changed monitor, so a penalty of
0.01 means "one change is worth one utility point" (on the 0–1 scale).
With both penalties 0 this reduces exactly to
:class:`~repro.optimize.problem.MaxUtilityProblem`; with penalties
large it returns the current deployment (trimmed to the budget).  The
paper's incremental workflow (pin existing monitors, never remove) is
the ``removal_penalty = inf`` limit, available directly through
``MaxUtilityProblem(forced_monitors=...)``.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro import obs
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.deployment import OptimizationResult
from repro.optimize.formulation import FormulationBuilder
from repro.optimize.problem import _assemble, _dispatch, _selection
from repro.solver.expressions import LinearExpression
from repro.solver.model import MilpModel, ObjectiveSense

__all__ = ["RebalanceProblem"]


class RebalanceProblem:
    """Re-optimize a deployment, charging for every change made.

    Parameters
    ----------
    model:
        The (possibly updated) system model.
    budget:
        Budget for the *new* deployment.
    current_monitors:
        Monitors currently running.  Ids no longer present in the model
        (retired assets) are ignored with no penalty.
    removal_penalty, addition_penalty:
        Utility-units charged per removed / added monitor, >= 0.
    """

    def __init__(
        self,
        model: SystemModel,
        budget: Budget,
        current_monitors: Iterable[str],
        weights: UtilityWeights | None = None,
        *,
        removal_penalty: float = 0.01,
        addition_penalty: float = 0.005,
    ):
        self.model = model
        self.budget = budget
        self.weights = weights or UtilityWeights()
        self.current = frozenset(current_monitors) & frozenset(model.monitors)
        if removal_penalty < 0 or addition_penalty < 0:
            raise OptimizationError("change penalties must be >= 0")
        self.removal_penalty = removal_penalty
        self.addition_penalty = addition_penalty

    def build(self) -> tuple[MilpModel, FormulationBuilder]:
        """Construct the penalized MILP without solving."""
        milp = MilpModel(f"rebalance[{self.model.name}]", ObjectiveSense.MAXIMIZE)
        builder = FormulationBuilder(milp, self.model)
        objective = builder.utility_expression(self.weights)

        change_terms: list[tuple] = []
        constant = 0.0
        for monitor_id, var in builder.selection.items():
            if monitor_id in self.current:
                # removal: (1 - x) * removal_penalty
                change_terms.append((var, self.removal_penalty))
                constant -= self.removal_penalty
            else:
                change_terms.append((var, -self.addition_penalty))
        objective = objective + LinearExpression.sum_of(change_terms, constant)

        milp.set_objective(objective)
        builder.add_budget_constraints(self.budget)
        return milp, builder

    def solve(self, backend: str = "scipy", *, time_limit: float | None = None) -> OptimizationResult:
        """Solve; ``stats`` reports the change set sizes and penalties paid."""
        with obs.span("optimize.rebalance", current=len(self.current)) as sp:
            with obs.span("optimize.formulate"):
                milp, builder = self.build()
            sp.set(variables=milp.num_variables, constraints=milp.num_constraints)
            solution = _dispatch(milp, backend, time_limit=time_limit)
        obs.histogram("optimize.solve_seconds").observe(sp.duration)
        selected = _selection(builder, solution, "no deployment fits the budget")
        removed = self.current - selected
        added = selected - self.current
        return _assemble(
            self.model,
            solution,
            selected,
            sp.duration,
            prefix="rebalance-ilp",
            achieved=utility(self.model, selected, self.weights),
            milp=milp,
            removed=float(len(removed)),
            added=float(len(added)),
            change_penalty_paid=(
                self.removal_penalty * len(removed) + self.addition_penalty * len(added)
            ),
        )
