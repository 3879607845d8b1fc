"""The assembled system model.

:class:`SystemModel` gathers the three layers of the paper's model —
assets/topology, monitors/data, and events/attacks — validates their
referential integrity, and precomputes the cross-layer indices that the
metrics and the optimizer consume:

* which monitors can provide evidence for which events (the *coverage
  relation*), derived from monitor placement, observation scope, the
  data types each monitor generates, and the data-to-event evidence
  entries; and
* which attacks each event participates in.

Models are built through :class:`~repro.core.builder.ModelBuilder` (or
deserialized); once constructed they are immutable from the caller's
perspective, and all derived indices are computed eagerly so metric and
optimizer code paths are pure lookups.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from types import MappingProxyType

from repro.core.assets import Asset, Topology
from repro.core.attacks import Attack, Event
from repro.core.data import DataType, Evidence
from repro.core.monitors import CostVector, Monitor, MonitorScope, MonitorType
from repro.errors import UnknownIdError, ValidationError

__all__ = ["SystemModel"]


class SystemModel:
    """An immutable, fully-indexed security monitoring model.

    Construct via :class:`~repro.core.builder.ModelBuilder`; the raw
    constructor validates referential integrity and raises
    :class:`~repro.errors.ValidationError` listing every problem found.
    """

    def __init__(
        self,
        *,
        name: str,
        topology: Topology,
        data_types: Iterable[DataType],
        monitor_types: Iterable[MonitorType],
        monitors: Iterable[Monitor],
        events: Iterable[Event],
        evidence: Iterable[Evidence],
        attacks: Iterable[Attack],
    ) -> None:
        self.name = name
        self._topology = topology
        self._data_types = {d.data_type_id: d for d in data_types}
        self._monitor_types = {t.monitor_type_id: t for t in monitor_types}
        self._monitors = {m.monitor_id: m for m in monitors}
        self._events = {e.event_id: e for e in events}
        self._evidence = list(evidence)
        self._attacks = {a.attack_id: a for a in attacks}

        problems = self._check_integrity()
        if problems:
            raise ValidationError(problems)

        self._build_indices()

    # ------------------------------------------------------------------
    # integrity checking
    # ------------------------------------------------------------------

    def _check_integrity(self) -> list[str]:
        problems: list[str] = []

        for type_id, mtype in self._monitor_types.items():
            for dt in mtype.data_type_ids:
                if dt not in self._data_types:
                    problems.append(f"monitor type {type_id!r} generates unknown data type {dt!r}")

        for monitor_id, monitor in self._monitors.items():
            mtype = self._monitor_types.get(monitor.monitor_type_id)
            if mtype is None:
                problems.append(f"monitor {monitor_id!r} has unknown type {monitor.monitor_type_id!r}")
            if monitor.asset_id not in self._topology:
                problems.append(f"monitor {monitor_id!r} is placed at unknown asset {monitor.asset_id!r}")
            elif mtype is not None:
                kind = self._topology.asset(monitor.asset_id).kind
                if not mtype.can_deploy_at_kind(kind):
                    problems.append(
                        f"monitor {monitor_id!r} of type {mtype.monitor_type_id!r} "
                        f"is not deployable at assets of kind {kind.value!r}"
                    )

        for event_id, event in self._events.items():
            if event.asset_id not in self._topology:
                problems.append(f"event {event_id!r} occurs at unknown asset {event.asset_id!r}")

        seen_pairs: set[tuple[str, str]] = set()
        for ev in self._evidence:
            if ev.data_type_id not in self._data_types:
                problems.append(f"evidence references unknown data type {ev.data_type_id!r}")
            if ev.event_id not in self._events:
                problems.append(f"evidence references unknown event {ev.event_id!r}")
            if ev.key in seen_pairs:
                problems.append(f"duplicate evidence entry {ev.key!r}")
            seen_pairs.add(ev.key)
            if ev.data_type_id in self._data_types and ev.fields_used:
                known = self._data_types[ev.data_type_id].field_names
                for fname in ev.fields_used - known:
                    problems.append(
                        f"evidence {ev.key!r} uses field {fname!r} absent from "
                        f"data type {ev.data_type_id!r}"
                    )

        for attack_id, attack in self._attacks.items():
            for step in attack.steps:
                if step.event_id not in self._events:
                    problems.append(f"attack {attack_id!r} references unknown event {step.event_id!r}")

        return problems

    # ------------------------------------------------------------------
    # derived indices
    # ------------------------------------------------------------------

    def _build_indices(self) -> None:
        # evidence entries grouped by data type
        evidence_by_data_type: dict[str, list[Evidence]] = {}
        for ev in self._evidence:
            evidence_by_data_type.setdefault(ev.data_type_id, []).append(ev)

        # cache observation domains per (asset, scope)
        domain_cache: dict[tuple[str, MonitorScope], frozenset[str]] = {}

        def domain(asset_id: str, scope: MonitorScope) -> frozenset[str]:
            key = (asset_id, scope)
            if key not in domain_cache:
                domain_cache[key] = self._topology.observation_domain(
                    asset_id, network_scope=(scope is MonitorScope.NETWORK)
                )
            return domain_cache[key]

        # monitor -> {event -> best evidence weight}, and the transpose
        self._monitor_event_weight: dict[str, dict[str, float]] = {}
        self._event_monitor_weight: dict[str, dict[str, float]] = {e: {} for e in self._events}
        # monitor -> {event -> evidencing data type ids} (richness needs this)
        self._monitor_event_data_types: dict[str, dict[str, frozenset[str]]] = {}

        for monitor_id, monitor in self._monitors.items():
            mtype = self._monitor_types[monitor.monitor_type_id]
            observable = domain(monitor.asset_id, mtype.scope)
            weights: dict[str, float] = {}
            data_types_per_event: dict[str, set[str]] = {}
            for dt in mtype.data_type_ids:
                for ev in evidence_by_data_type.get(dt, ()):
                    event = self._events[ev.event_id]
                    if event.asset_id not in observable:
                        continue
                    previous = weights.get(ev.event_id, 0.0)
                    weights[ev.event_id] = max(previous, ev.weight)
                    data_types_per_event.setdefault(ev.event_id, set()).add(dt)
            self._monitor_event_weight[monitor_id] = weights
            self._monitor_event_data_types[monitor_id] = {
                e: frozenset(dts) for e, dts in data_types_per_event.items()
            }
            for event_id, weight in weights.items():
                self._event_monitor_weight[event_id][monitor_id] = weight

        # (data type, event) -> field names contributing to that evidence
        self._evidence_fields: dict[tuple[str, str], frozenset[str]] = {}
        for ev in self._evidence:
            fields = ev.fields_used or self._data_types[ev.data_type_id].field_names
            self._evidence_fields[ev.key] = frozenset(fields)

        # event -> {provider -> fields it captures about the event}:
        # field lookups walk an event's providers, never a deployment.
        # A provider evidencing through one data type shares that
        # evidence entry's field set (models are pickled into worker
        # tasks, so the index should add few objects).
        self._event_provider_fields: dict[str, dict[str, frozenset[str]]] = {}
        for event_id, providers in self._event_monitor_weight.items():
            by_provider: dict[str, frozenset[str]] = {}
            for monitor_id in providers:
                data_types = self._monitor_event_data_types[monitor_id][event_id]
                if len(data_types) == 1:
                    (dt,) = data_types
                    by_provider[monitor_id] = self._evidence_fields[(dt, event_id)]
                else:
                    by_provider[monitor_id] = frozenset().union(
                        *(self._evidence_fields[(dt, event_id)] for dt in data_types)
                    )
            self._event_provider_fields[event_id] = by_provider

        # event -> attacks using it
        self._attacks_by_event: dict[str, frozenset[str]] = {}
        usage: dict[str, set[str]] = {e: set() for e in self._events}
        for attack in self._attacks.values():
            for step in attack.steps:
                usage[step.event_id].add(attack.attack_id)
        self._attacks_by_event = {e: frozenset(a) for e, a in usage.items()}

        # per-monitor effective cost
        self._monitor_cost: dict[str, CostVector] = {
            m.monitor_id: m.effective_cost(self._monitor_types[m.monitor_type_id])
            for m in self._monitors.values()
        }

    # ------------------------------------------------------------------
    # entity accessors
    # ------------------------------------------------------------------

    @property
    def topology(self) -> Topology:
        """The asset graph."""
        return self._topology

    @property
    def assets(self) -> dict[str, Asset]:
        """Mapping of asset id to asset."""
        return self._topology.assets

    @property
    def data_types(self) -> dict[str, DataType]:
        """Mapping of data type id to data type."""
        return dict(self._data_types)

    @property
    def monitor_types(self) -> dict[str, MonitorType]:
        """Mapping of monitor type id to monitor type."""
        return dict(self._monitor_types)

    @property
    def monitors(self) -> dict[str, Monitor]:
        """Mapping of monitor id to deployable monitor."""
        return dict(self._monitors)

    @property
    def events(self) -> dict[str, Event]:
        """Mapping of event id to event."""
        return dict(self._events)

    @property
    def evidence(self) -> list[Evidence]:
        """All evidence entries, in insertion order."""
        return list(self._evidence)

    @property
    def attacks(self) -> dict[str, Attack]:
        """Mapping of attack id to attack."""
        return dict(self._attacks)

    def monitor(self, monitor_id: str) -> Monitor:
        """Look up a monitor; raises :class:`UnknownIdError` if absent."""
        try:
            return self._monitors[monitor_id]
        except KeyError:
            raise UnknownIdError("monitor", monitor_id) from None

    def monitor_type(self, monitor_type_id: str) -> MonitorType:
        """Look up a monitor type; raises :class:`UnknownIdError` if absent."""
        try:
            return self._monitor_types[monitor_type_id]
        except KeyError:
            raise UnknownIdError("monitor type", monitor_type_id) from None

    def data_type(self, data_type_id: str) -> DataType:
        """Look up a data type; raises :class:`UnknownIdError` if absent."""
        try:
            return self._data_types[data_type_id]
        except KeyError:
            raise UnknownIdError("data type", data_type_id) from None

    def event(self, event_id: str) -> Event:
        """Look up an event; raises :class:`UnknownIdError` if absent."""
        try:
            return self._events[event_id]
        except KeyError:
            raise UnknownIdError("event", event_id) from None

    def attack(self, attack_id: str) -> Attack:
        """Look up an attack; raises :class:`UnknownIdError` if absent."""
        try:
            return self._attacks[attack_id]
        except KeyError:
            raise UnknownIdError("attack", attack_id) from None

    # ------------------------------------------------------------------
    # coverage-relation queries (precomputed)
    # ------------------------------------------------------------------

    def monitors_for_event(self, event_id: str) -> Mapping[str, float]:
        """Monitors able to evidence ``event_id``, with their best weight."""
        if event_id not in self._events:
            raise UnknownIdError("event", event_id)
        return dict(self._event_monitor_weight[event_id])

    def events_for_monitor(self, monitor_id: str) -> Mapping[str, float]:
        """Events the monitor can evidence, with the best weight per event."""
        if monitor_id not in self._monitors:
            raise UnknownIdError("monitor", monitor_id)
        return dict(self._monitor_event_weight[monitor_id])

    def evidencing_data_types(self, monitor_id: str, event_id: str) -> frozenset[str]:
        """Data types through which ``monitor_id`` evidences ``event_id``."""
        if monitor_id not in self._monitors:
            raise UnknownIdError("monitor", monitor_id)
        return self._monitor_event_data_types[monitor_id].get(event_id, frozenset())

    def evidence_fields(self, data_type_id: str, event_id: str) -> frozenset[str]:
        """Field names through which a data type evidences an event.

        When the evidence entry restricts ``fields_used`` those fields
        are returned; otherwise all fields of the data type.  Pairs with
        no evidence entry return the empty set.
        """
        return self._evidence_fields.get((data_type_id, event_id), frozenset())

    def provider_fields(self, event_id: str) -> Mapping[str, frozenset[str]]:
        """Fields each monitor able to evidence ``event_id`` captures about it.

        Keys are the event's providers (as in :meth:`monitors_for_event`);
        each value is the union of contributing fields over the data
        types through which that monitor evidences the event.  The
        mapping is a read-only view of a precomputed index.
        """
        if event_id not in self._events:
            raise UnknownIdError("event", event_id)
        return MappingProxyType(self._event_provider_fields[event_id])

    def known_monitor_ids(self, monitor_ids: Iterable[str]) -> frozenset[str]:
        """The given ids as a frozenset, after checking each names a monitor.

        Consumes ``monitor_ids`` once; a frozenset argument is returned
        as is.  Raises :class:`UnknownIdError` for the smallest unknown
        id.
        """
        ids = frozenset(monitor_ids)
        if not self._monitors.keys() >= ids:
            raise UnknownIdError("monitor", min(ids - self._monitors.keys()))
        return ids

    def fields_for_event(self, event_id: str, monitor_ids: Iterable[str]) -> frozenset[str]:
        """Distinct data fields the given monitors capture about an event.

        This is the raw material of the *richness* metric: the union of
        contributing fields across every (deployed monitor, data type)
        pair evidencing ``event_id``.  The work is proportional to the
        event's providers, not to the size of ``monitor_ids``.
        """
        if event_id not in self._events:
            raise UnknownIdError("event", event_id)
        deployed = self.known_monitor_ids(monitor_ids)
        return frozenset().union(
            *(
                fields
                for monitor_id, fields in self._event_provider_fields[event_id].items()
                if monitor_id in deployed
            )
        )

    def max_fields_for_event(self, event_id: str) -> frozenset[str]:
        """Fields capturable for an event by deploying *every* monitor."""
        if event_id not in self._events:
            raise UnknownIdError("event", event_id)
        return frozenset().union(*self._event_provider_fields[event_id].values())

    def attacks_using_event(self, event_id: str) -> frozenset[str]:
        """Ids of attacks with a step referencing ``event_id``."""
        if event_id not in self._events:
            raise UnknownIdError("event", event_id)
        return self._attacks_by_event[event_id]

    def monitor_cost(self, monitor_id: str) -> CostVector:
        """The effective (multiplier-scaled) cost of a monitor."""
        if monitor_id not in self._monitors:
            raise UnknownIdError("monitor", monitor_id)
        return self._monitor_cost[monitor_id]

    def deployment_cost(self, monitor_ids: Iterable[str]) -> CostVector:
        """Total cost of deploying the given monitors.

        Summed in sorted id order: float addition is not associative,
        so summing in the iteration order of a (hash-ordered) set would
        make the last bits depend on ``PYTHONHASHSEED``.
        """
        return CostVector.total(self.monitor_cost(m) for m in sorted(monitor_ids))

    def total_cost(self) -> CostVector:
        """Cost of deploying every monitor in the model."""
        return CostVector.total(self._monitor_cost.values())

    def coverable_events(self) -> frozenset[str]:
        """Events evidenced by at least one monitor in the model."""
        return frozenset(e for e, mons in self._event_monitor_weight.items() if mons)

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Entity counts, for reports and sanity checks."""
        return {
            "assets": len(self._topology),
            "links": len(self._topology.links),
            "data_types": len(self._data_types),
            "monitor_types": len(self._monitor_types),
            "monitors": len(self._monitors),
            "events": len(self._events),
            "evidence": len(self._evidence),
            "attacks": len(self._attacks),
        }

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"SystemModel({self.name!r}: {s['assets']} assets, {s['monitors']} monitors, "
            f"{s['events']} events, {s['attacks']} attacks)"
        )
