"""Richness metrics: forensic depth of the collected data.

Where coverage asks *whether* an attack step leaves a trace, richness
asks *how informative* that trace is.  Richness of an event under a
deployment is the fraction of capturable data fields (source addresses,
URLs, query text, syscall arguments, …) the deployment actually
captures, relative to what deploying every monitor in the model would
capture.  Richer data supports deeper forensic analysis — attribution,
scoping, timeline reconstruction — which is the second use the paper's
monitors serve besides detection.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.attacks import Attack
from repro.core.model import SystemModel

__all__ = [
    "event_richness",
    "attack_richness",
    "overall_richness",
    "deployment_field_census",
]


def _captured_fields(
    model: SystemModel, deployed: frozenset[str], event_id: str
) -> frozenset[str]:
    """Fields the (already validated) deployment captures about an event."""
    return frozenset().union(
        *(
            fields
            for monitor_id, fields in model.provider_fields(event_id).items()
            if monitor_id in deployed
        )
    )


def _event_richness(model: SystemModel, deployed: frozenset[str], event_id: str) -> float:
    capturable = model.max_fields_for_event(event_id)
    if not capturable:
        return 0.0
    return len(_captured_fields(model, deployed, event_id)) / len(capturable)


def _attack_richness(model: SystemModel, deployed: frozenset[str], attack: Attack) -> float:
    weighted = sum(
        step.weight * _event_richness(model, deployed, step.event_id) for step in attack.steps
    )
    return weighted / attack.total_step_weight


def event_richness(model: SystemModel, deployed: Iterable[str], event_id: str) -> float:
    """Fraction of capturable fields for ``event_id`` actually captured.

    Events no monitor in the model can evidence have no capturable
    fields and get richness 0.  Every deployed id must name a monitor
    (:class:`~repro.errors.UnknownIdError` otherwise), as for every
    richness metric: ids are checked once per call.
    """
    return _event_richness(model, model.known_monitor_ids(deployed), event_id)


def attack_richness(model: SystemModel, deployed: Iterable[str], attack: Attack | str) -> float:
    """Step-weighted average event richness for one attack, in ``[0, 1]``."""
    if isinstance(attack, str):
        attack = model.attack(attack)
    return _attack_richness(model, model.known_monitor_ids(deployed), attack)


def overall_richness(model: SystemModel, deployed: Iterable[str]) -> float:
    """Importance-weighted average attack richness, in ``[0, 1]``."""
    deployed_ids = model.known_monitor_ids(deployed)
    attacks = model.attacks
    if not attacks:
        return 0.0
    total_importance = sum(a.importance for a in attacks.values())
    weighted = sum(
        a.importance * _attack_richness(model, deployed_ids, a) for a in attacks.values()
    )
    return weighted / total_importance


def deployment_field_census(
    model: SystemModel, deployed: Iterable[str]
) -> dict[str, frozenset[str]]:
    """Per-event captured field sets, for forensic reports.

    Only events with at least one captured field appear in the result.
    """
    deployed_ids = model.known_monitor_ids(deployed)
    census: dict[str, frozenset[str]] = {}
    for event_id in model.events:
        fields = _captured_fields(model, deployed_ids, event_id)
        if fields:
            census[event_id] = fields
    return census
