"""The combined utility function over monitor deployments.

Utility is the quantity the paper's optimization maximizes: a convex
combination of the coverage, redundancy, and richness components, each
already normalized to ``[0, 1]``::

    U(D) = w_cov * coverage(D) + w_red * redundancy(D) + w_rich * richness(D)

All three components are linear in per-event auxiliary quantities, which
is exactly what lets :mod:`repro.optimize.formulation` express the same
function inside a 0/1 integer program.  :func:`utility` here is the
reference (direct) evaluation; the ILP objective and this function must
agree on every deployment — a property the test suite checks.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.core.model import SystemModel
from repro.errors import MetricError
from repro.metrics.coverage import attack_coverage, overall_coverage
from repro.metrics.redundancy import (
    DEFAULT_REDUNDANCY_CAP,
    attack_redundancy,
    overall_redundancy,
)
from repro.metrics.richness import attack_richness, overall_richness

__all__ = ["UtilityWeights", "utility", "utility_breakdown", "attack_utility"]


@dataclass(frozen=True, slots=True)
class UtilityWeights:
    """Weights of the utility components, summing to 1.

    Parameters
    ----------
    coverage:
        Weight of breadth: seeing each attack step at all.
    redundancy:
        Weight of depth: corroborating each step with multiple monitors.
    richness:
        Weight of forensic detail: capturing many distinct data fields.
    redundancy_cap:
        Evidence sources per step at which redundancy saturates.
    """

    coverage: float = 0.6
    redundancy: float = 0.25
    richness: float = 0.15
    redundancy_cap: int = DEFAULT_REDUNDANCY_CAP

    def __post_init__(self) -> None:
        for name, value in (
            ("coverage", self.coverage),
            ("redundancy", self.redundancy),
            ("richness", self.richness),
        ):
            if value < 0:
                raise MetricError(f"utility weight {name!r} must be >= 0, got {value!r}")
        total = self.coverage + self.redundancy + self.richness
        if abs(total - 1.0) > 1e-9:
            raise MetricError(f"utility weights must sum to 1, got {total!r}")
        if self.redundancy_cap < 1:
            raise MetricError(f"redundancy_cap must be >= 1, got {self.redundancy_cap!r}")

    @classmethod
    def coverage_only(cls) -> "UtilityWeights":
        """Pure-coverage utility (the redundancy/richness ablation)."""
        return cls(coverage=1.0, redundancy=0.0, richness=0.0)

    @classmethod
    def tradeoff(cls, lam: float, redundancy_cap: int = DEFAULT_REDUNDANCY_CAP) -> "UtilityWeights":
        """Two-way sweep between coverage (``lam=0``) and redundancy (``lam=1``).

        Used by experiment F2 to show deployments shifting from breadth
        to depth as redundancy gains weight.
        """
        if not 0.0 <= lam <= 1.0:
            raise MetricError(f"tradeoff parameter must lie in [0, 1], got {lam!r}")
        return cls(coverage=1.0 - lam, redundancy=lam, richness=0.0, redundancy_cap=redundancy_cap)


def utility(
    model: SystemModel, deployed: Iterable[str], weights: UtilityWeights | None = None
) -> float:
    """The combined utility of a deployment, in ``[0, 1]``.

    Every deployed id must name a monitor of ``model``; an unknown id
    raises :class:`~repro.errors.UnknownIdError` whatever the weights
    (as in :func:`utility_breakdown` and :func:`attack_utility`).
    """
    weights = weights or UtilityWeights()
    deployed_set = model.known_monitor_ids(deployed)
    value = 0.0
    if weights.coverage:
        value += weights.coverage * overall_coverage(model, deployed_set)
    if weights.redundancy:
        value += weights.redundancy * overall_redundancy(
            model, deployed_set, weights.redundancy_cap
        )
    if weights.richness:
        value += weights.richness * overall_richness(model, deployed_set)
    return value


def utility_breakdown(
    model: SystemModel, deployed: Iterable[str], weights: UtilityWeights | None = None
) -> dict[str, float]:
    """The unweighted component values plus the combined utility."""
    weights = weights or UtilityWeights()
    deployed_set = model.known_monitor_ids(deployed)
    coverage = overall_coverage(model, deployed_set)
    redundancy = overall_redundancy(model, deployed_set, weights.redundancy_cap)
    richness = overall_richness(model, deployed_set)
    return {
        "coverage": coverage,
        "redundancy": redundancy,
        "richness": richness,
        "utility": (
            weights.coverage * coverage
            + weights.redundancy * redundancy
            + weights.richness * richness
        ),
    }


def attack_utility(
    model: SystemModel,
    deployed: Iterable[str],
    attack_id: str,
    weights: UtilityWeights | None = None,
) -> float:
    """Per-attack utility (before importance weighting), in ``[0, 1]``."""
    weights = weights or UtilityWeights()
    deployed_set = model.known_monitor_ids(deployed)
    attack = model.attack(attack_id)
    value = 0.0
    if weights.coverage:
        value += weights.coverage * attack_coverage(model, deployed_set, attack)
    if weights.redundancy:
        value += weights.redundancy * attack_redundancy(
            model, deployed_set, attack, weights.redundancy_cap
        )
    if weights.richness:
        value += weights.richness * attack_richness(model, deployed_set, attack)
    return value
