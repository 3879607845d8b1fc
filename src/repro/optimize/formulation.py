"""Exact ILP linearization of the deployment metrics.

:class:`FormulationBuilder` turns a :class:`~repro.core.model.SystemModel`
into the linear pieces of a 0/1 integer program whose expressions
provably equal the reference metrics on every 0/1 assignment:

* one **binary selection variable** ``x_m`` per deployable monitor;
* per event, a **coverage level** equal to the best evidence weight among
  selected monitors — expressed as ``common_weight * min(1, sum x)`` when
  all providers tie, and through an assignment-style linearization
  (``z_{m,e} <= x_m``, ``sum_m z_{m,e} <= 1``) when provider weights
  differ;
* per event, a **redundancy level** ``r_e <= sum(x) / cap`` capped at 1;
* per event, a **richness level**: grouped field-capture variables where
  fields with identical provider sets share one variable.

All auxiliary variables are continuous in ``[0, 1]``.  Each appears
either with a non-negative maximization coefficient or on the useful
side of a ``>=`` floor, so optimal solutions push every auxiliary to its
true metric value and integrality is required only of the ``x``
variables.  The test suite checks expression-vs-metric agreement
exhaustively on small models and property-based on random ones.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from repro.core.attacks import Attack
from repro.core.model import SystemModel
from repro.errors import OptimizationError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.solver.expressions import LinearExpression, Variable
from repro.solver.model import MilpModel

__all__ = ["FormulationBuilder", "event_weights"]

#: Weights closer than this are treated as equal when deciding whether an
#: event's coverage can use the cheap single-variable linearization.
_WEIGHT_TIE_TOLERANCE = 1e-12


def _scaled_sum(scaled: Iterable[tuple[LinearExpression, float]]) -> LinearExpression:
    """``sum(expr * factor)`` built in one pass.

    Terms are added in the order given, exactly as an ``expr + ...``
    accumulation would add them, so every coefficient keeps its bits;
    the pair list lives only for this call.
    """
    pairs: list[tuple[Variable, float]] = []
    constant = 0.0
    for expr, factor in scaled:
        pairs.extend((var, coef * factor) for var, coef in expr.terms.items())
        constant += expr.constant * factor
    return LinearExpression.sum_of(pairs, constant)


def event_weights(model: SystemModel, importance: Mapping[str, float]) -> dict[str, float]:
    """Per-event weight in overall utility under per-attack importances.

    ``weight(e) = sum over attacks a containing e of
    (importance_a / total importance) * (step weight / attack total
    step weight)`` — exactly the coefficient event-level quantities
    carry in the reference metrics, so aggregating per event keeps
    expression and metric identical even when attacks share events.
    ``importance`` maps every attack id of ``model``; attacks of zero
    importance contribute no events.
    """
    total = sum(importance.values())
    weights: dict[str, float] = {}
    if total == 0:
        return weights
    for attack in model.attacks.values():
        scale = importance[attack.attack_id] / total / attack.total_step_weight
        if scale == 0:
            continue
        for step in attack.steps:
            weights[step.event_id] = weights.get(step.event_id, 0.0) + scale * step.weight
    return weights


class FormulationBuilder:
    """Incrementally encodes deployment metrics into a :class:`MilpModel`.

    Per-event levels are created lazily and cached, so an event shared
    by several attacks (or used by both the objective and a floor
    constraint) is encoded exactly once.
    """

    def __init__(self, milp: MilpModel, model: SystemModel):
        self.milp = milp
        self.model = model
        #: monitor_id -> binary selection variable
        self.selection: dict[str, Variable] = {
            monitor_id: milp.binary(f"x[{monitor_id}]") for monitor_id in model.monitors
        }
        self._coverage_level: dict[str, LinearExpression] = {}
        self._redundancy_level: dict[tuple[str, int], LinearExpression] = {}
        self._richness_level: dict[str, LinearExpression] = {}
        self._utility_expression: dict[UtilityWeights, LinearExpression] = {}

    # ------------------------------------------------------------------
    # per-event levels
    # ------------------------------------------------------------------

    def coverage_level(self, event_id: str) -> LinearExpression:
        """Expression equal to the best selected evidence weight for an event.

        Zero (an empty expression) when no monitor can evidence the event.
        """
        if event_id in self._coverage_level:
            return self._coverage_level[event_id]

        providers = self.model.monitors_for_event(event_id)
        if not providers:
            expr = LinearExpression()
        else:
            provider_weights = set(providers.values())
            spread = max(provider_weights) - min(provider_weights)
            if spread <= _WEIGHT_TIE_TOLERANCE:
                # All providers tie: coverage = common_weight * [any selected].
                common_weight = max(provider_weights)
                u = self.milp.continuous(f"cov[{event_id}]", 0.0, 1.0)
                any_selected = LinearExpression.sum_of(
                    (self.selection[m], 1.0) for m in providers
                )
                self.milp.add_constraint(u <= any_selected, name=f"cov_any[{event_id}]")
                expr = u * common_weight
            else:
                # General case: choose at most one selected provider; the
                # optimizer picks the best, so the sum equals the max
                # selected weight.
                z_terms: list[tuple[Variable, float]] = []
                for monitor_id in sorted(providers):
                    z = self.milp.continuous(f"cov[{event_id}|{monitor_id}]", 0.0, 1.0)
                    self.milp.add_constraint(
                        z <= self.selection[monitor_id],
                        name=f"cov_sel[{event_id}|{monitor_id}]",
                    )
                    z_terms.append((z, providers[monitor_id]))
                self.milp.add_constraint(
                    LinearExpression.sum_of((z, 1.0) for z, _ in z_terms) <= 1.0,
                    name=f"cov_one[{event_id}]",
                )
                expr = LinearExpression.sum_of(z_terms)

        self._coverage_level[event_id] = expr
        return expr

    def redundancy_level(self, event_id: str, cap: int) -> LinearExpression:
        """Expression equal to ``min(selected evidence count, cap) / cap``."""
        key = (event_id, cap)
        if key in self._redundancy_level:
            return self._redundancy_level[key]

        providers = self.model.monitors_for_event(event_id)
        if not providers:
            expr = LinearExpression()
        else:
            r = self.milp.continuous(f"red[{event_id}|{cap}]", 0.0, 1.0)
            count = LinearExpression.sum_of((self.selection[m], 1.0) for m in providers)
            self.milp.add_constraint(r <= count * (1.0 / cap), name=f"red_cap[{event_id}|{cap}]")
            expr = r + 0.0

        self._redundancy_level[key] = expr
        return expr

    def richness_level(self, event_id: str) -> LinearExpression:
        """Expression equal to the fraction of capturable fields captured."""
        if event_id in self._richness_level:
            return self._richness_level[event_id]

        # Group fields by the exact monitor set able to capture them;
        # one auxiliary variable per group, weighted by group size.  One
        # pass over the providers, in provider order, gives each field
        # its capturing monitors.
        capturing: dict[str, list[str]] = {}
        for monitor_id, fields in self.model.provider_fields(event_id).items():
            for field_name in fields:
                capturing.setdefault(field_name, []).append(monitor_id)
        if not capturing:
            expr = LinearExpression()
        else:
            groups = Counter(frozenset(monitors) for monitors in capturing.values())
            per_field = 1.0 / len(capturing)
            ordered = sorted(groups.items(), key=lambda kv: sorted(kv[0]))
            pairs: list[tuple[Variable, float]] = []
            for group_index, (monitors, size) in enumerate(ordered):
                f = self.milp.continuous(f"rich[{event_id}|g{group_index}]", 0.0, 1.0)
                any_capturing = LinearExpression.sum_of(
                    (self.selection[m], 1.0) for m in monitors
                )
                self.milp.add_constraint(
                    f <= any_capturing, name=f"rich_any[{event_id}|g{group_index}]"
                )
                pairs.append((f, per_field * size))
            expr = LinearExpression.sum_of(pairs)

        self._richness_level[event_id] = expr
        return expr

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    def event_objective_weights(self) -> dict[str, float]:
        """Per-event weight in overall utility under the model's importances.

        See :func:`event_weights`.
        """
        return event_weights(
            self.model, {a.attack_id: a.importance for a in self.model.attacks.values()}
        )

    def utility_expression(self, weights: UtilityWeights | None = None) -> LinearExpression:
        """Linear expression equal to the combined utility metric.

        The expression is cached per weight vector (expressions are
        immutable), so callers that need it twice — objective and a
        floor constraint, or one instance per sweep point — share one
        object and one set of auxiliary rows.
        """
        weights = weights or UtilityWeights()
        cached = self._utility_expression.get(weights)
        if cached is None:
            cached = self.weighted_utility_expression(self.event_objective_weights(), weights)
            self._utility_expression[weights] = cached
        return cached

    def weighted_utility_expression(
        self, base_weights: Mapping[str, float], weights: UtilityWeights
    ) -> LinearExpression:
        """Utility expression under caller-supplied per-event base weights.

        :meth:`utility_expression` passes :meth:`event_objective_weights`;
        scenario-robust models pass :func:`event_weights` under an
        importance scenario.  Levels are scaled in event order — coverage,
        redundancy, then richness per event — and summed in one pass.
        Not cached: only the nominal weights are.
        """
        cap = weights.redundancy_cap
        scaled: list[tuple[LinearExpression, float]] = []
        for event_id, base in base_weights.items():
            if weights.coverage > 0:
                scaled.append((self.coverage_level(event_id), weights.coverage * base))
            if weights.redundancy > 0:
                scaled.append((self.redundancy_level(event_id, cap), weights.redundancy * base))
            if weights.richness > 0:
                scaled.append((self.richness_level(event_id), weights.richness * base))
        return _scaled_sum(scaled)

    def attack_coverage_expression(self, attack: Attack | str) -> LinearExpression:
        """Linear expression equal to one attack's coverage metric."""
        if isinstance(attack, str):
            attack = self.model.attack(attack)
        return _scaled_sum(
            (self.coverage_level(step.event_id), step.weight / attack.total_step_weight)
            for step in attack.steps
        )

    def attack_richness_expression(self, attack: Attack | str) -> LinearExpression:
        """Linear expression equal to one attack's richness metric."""
        if isinstance(attack, str):
            attack = self.model.attack(attack)
        return _scaled_sum(
            (self.richness_level(step.event_id), step.weight / attack.total_step_weight)
            for step in attack.steps
        )

    def cost_expression(self, dimension_weights: Mapping[str, float] | None = None) -> LinearExpression:
        """Linear expression of the scalarized deployment cost.

        With ``dimension_weights`` omitted every dimension weighs 1
        (plain cost sum); otherwise each dimension's spend is scaled by
        its weight, enabling e.g. storage-dominated cost minimization.
        """
        terms = []
        for monitor_id in self.model.monitors:
            cost = self.model.monitor_cost(monitor_id)
            scalar = cost.scalarize(dimension_weights)
            terms.append((self.selection[monitor_id], scalar))
        return LinearExpression.sum_of(terms)

    # ------------------------------------------------------------------
    # constraints
    # ------------------------------------------------------------------

    def add_budget_constraints(self, budget: Budget) -> None:
        """Add one spending constraint per constrained budget dimension."""
        if not budget.dimensions:
            raise OptimizationError(
                "budget constrains no dimension; use Budget.of(...) with at least one limit"
            )
        for dimension in sorted(budget.dimensions):
            limit = budget.limit(dimension)
            assert limit is not None
            spend = LinearExpression.sum_of(
                (self.selection[m], self.model.monitor_cost(m).get(dimension))
                for m in self.model.monitors
            )
            self.milp.add_constraint(spend <= limit, name=f"budget[{dimension}]")

    def add_full_coverage_constraint(self, attack: Attack | str, min_sources: int = 1) -> None:
        """Require every *required* step of an attack to be evidenced.

        For each required event at least ``min_sources`` evidencing
        monitors must be selected (``min_sources > 1`` expresses a
        defense-in-depth / redundant-cover requirement).  Events with
        too few providers yield unsatisfiable rows, so infeasibility
        surfaces through the solver with the usual status instead of a
        special case.
        """
        if isinstance(attack, str):
            attack = self.model.attack(attack)
        if min_sources < 1:
            raise OptimizationError(f"min_sources must be >= 1, got {min_sources!r}")
        for event_id in sorted(attack.required_event_ids):
            providers = self.model.monitors_for_event(event_id)
            source_count = LinearExpression.sum_of(
                (self.selection[m], 1.0) for m in providers
            )
            self.milp.add_constraint(
                source_count >= float(min_sources),
                name=f"full_cov[{attack.attack_id}|{event_id}|{min_sources}]",
            )

    def add_cardinality_constraint(self, max_monitors: int) -> None:
        """Cap the number of selected monitors (operational headcount)."""
        if max_monitors < 0:
            raise OptimizationError(f"max_monitors must be >= 0, got {max_monitors!r}")
        total_selected = LinearExpression.sum_of(
            (var, 1.0) for var in self.selection.values()
        )
        self.milp.add_constraint(
            total_selected <= float(max_monitors), name="max_monitors"
        )

    def add_forced_selection(self, monitor_ids: frozenset[str] | set[str]) -> None:
        """Pin monitors as already deployed (incremental re-optimization)."""
        unknown = set(monitor_ids) - set(self.selection)
        if unknown:
            raise OptimizationError(f"cannot force unknown monitors: {sorted(unknown)}")
        for monitor_id in sorted(monitor_ids):
            self.milp.add_constraint(
                self.selection[monitor_id] >= 1.0, name=f"forced[{monitor_id}]"
            )

    def selected_ids(self, values: Mapping[str, float]) -> frozenset[str]:
        """Extract the chosen monitor ids from a solution's values."""
        return frozenset(
            monitor_id
            for monitor_id, var in self.selection.items()
            if values[var.name] > 0.5
        )
