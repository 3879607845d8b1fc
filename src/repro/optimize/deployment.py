"""Deployments and optimization results.

A :class:`Deployment` is an immutable set of selected monitor ids tied
to the model it was computed for, with convenience evaluation methods.
:class:`OptimizationResult` packages a deployment with solve statistics
so experiment harnesses can report quality and runtime together.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.core.model import SystemModel
from repro.core.monitors import CostVector
from repro.errors import OptimizationError
from repro.metrics.confidence import overall_confidence
from repro.metrics.utility import UtilityWeights, utility, utility_breakdown

__all__ = ["Deployment", "OptimizationResult"]


@dataclass(frozen=True)
class Deployment:
    """A selected set of monitors within a system model."""

    model: SystemModel
    monitor_ids: frozenset[str]

    @classmethod
    def of(cls, model: SystemModel, monitor_ids: Iterable[str]) -> "Deployment":
        """Build a deployment, validating every monitor id against the model."""
        ids = frozenset(monitor_ids)
        unknown = ids - set(model.monitors)
        if unknown:
            raise OptimizationError(f"deployment references unknown monitors: {sorted(unknown)}")
        return cls(model=model, monitor_ids=ids)

    @classmethod
    def empty(cls, model: SystemModel) -> "Deployment":
        """The deployment selecting no monitors."""
        return cls(model=model, monitor_ids=frozenset())

    @classmethod
    def full(cls, model: SystemModel) -> "Deployment":
        """The deployment selecting every monitor in the model."""
        return cls(model=model, monitor_ids=frozenset(model.monitors))

    def __len__(self) -> int:
        return len(self.monitor_ids)

    def __contains__(self, monitor_id: str) -> bool:
        return monitor_id in self.monitor_ids

    def __or__(self, other: "Deployment") -> "Deployment":
        if other.model is not self.model:
            raise OptimizationError("cannot union deployments from different models")
        return Deployment(self.model, self.monitor_ids | other.monitor_ids)

    def with_monitor(self, monitor_id: str) -> "Deployment":
        """This deployment plus one monitor."""
        return Deployment.of(self.model, self.monitor_ids | {monitor_id})

    def without_monitor(self, monitor_id: str) -> "Deployment":
        """This deployment minus one monitor."""
        return Deployment(self.model, self.monitor_ids - {monitor_id})

    # -- evaluation ------------------------------------------------------

    def cost(self) -> CostVector:
        """Total multi-dimensional deployment cost."""
        return self.model.deployment_cost(self.monitor_ids)

    def utility(self, weights: UtilityWeights | None = None) -> float:
        """Combined utility under ``weights`` (library defaults if omitted)."""
        return utility(self.model, self.monitor_ids, weights)

    def breakdown(self, weights: UtilityWeights | None = None) -> dict[str, float]:
        """Component values (coverage/redundancy/richness) plus utility."""
        return utility_breakdown(self.model, self.monitor_ids, weights)

    def confidence(self) -> float:
        """Operational confidence given monitor quality."""
        return overall_confidence(self.model, self.monitor_ids)

    def by_asset(self) -> dict[str, list[str]]:
        """Selected monitor ids grouped by the asset they are placed at."""
        grouped: dict[str, list[str]] = {}
        for monitor_id in sorted(self.monitor_ids):
            asset_id = self.model.monitor(monitor_id).asset_id
            grouped.setdefault(asset_id, []).append(monitor_id)
        return grouped


@dataclass(frozen=True)
class OptimizationResult:
    """A deployment together with how it was obtained.

    ``objective`` is the solver's (or heuristic's) own objective value;
    ``utility`` is the reference metric evaluation of the returned
    deployment — for exact backends the two agree to numerical
    tolerance, a property the test suite verifies.
    """

    deployment: Deployment
    objective: float
    utility: float
    solve_seconds: float
    method: str
    optimal: bool
    stats: dict[str, float] = field(default_factory=dict)
    #: Monitors in the order the method selected them (heuristics only;
    #: empty for solvers that decide the whole set at once).
    selection_order: tuple[str, ...] = ()
    #: Why no exact backend answered, one ``"backend: ErrorType:
    #: message"`` line per failed backend (greedy rescues only).
    failures: tuple[str, ...] = ()

    @property
    def monitor_ids(self) -> frozenset[str]:
        """Shorthand for the selected monitor ids."""
        return self.deployment.monitor_ids

    def summary(self) -> str:
        """One-line human-readable description."""
        flag = "optimal" if self.optimal else "heuristic"
        return (
            f"{self.method}: {len(self.deployment)} monitors, "
            f"utility={self.utility:.4f} ({flag}, {self.solve_seconds * 1e3:.1f} ms)"
        )
