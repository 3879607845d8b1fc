"""Monitor types, deployable monitors, and deployment costs.

A :class:`MonitorType` describes a *kind* of monitor (a NIDS, a web
server access log, a host audit daemon): the data types it generates,
where it may be deployed, whether it observes only its own asset or the
surrounding network, and what it costs to run.  A :class:`Monitor` is a
concrete deployable instance — a monitor type placed at a specific
asset — and is the unit over which the placement optimization decides.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from collections.abc import Iterable, Mapping

from repro.core.assets import AssetKind

__all__ = ["CostVector", "MonitorScope", "MonitorType", "Monitor", "DEFAULT_COST_DIMENSIONS"]

#: The cost dimensions used throughout the case study, mirroring the
#: operational cost categories the paper's methodology accounts for:
#: compute and memory overhead on the monitored host, storage for the
#: generated data, network bandwidth for shipping it, and recurring
#: administrative effort to maintain the monitor.
DEFAULT_COST_DIMENSIONS: tuple[str, ...] = ("cpu", "memory", "storage", "network", "admin")


@dataclass(frozen=True, slots=True)
class CostVector:
    """An immutable multi-dimensional deployment cost.

    Costs are non-negative and keyed by dimension name.  Missing
    dimensions are treated as zero, so vectors with different dimension
    sets combine naturally.
    """

    values: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        frozen: dict[str, float] = {}
        for dim, value in dict(self.values).items():
            value = float(value)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"cost for dimension {dim!r} must be finite and >= 0, got {value!r}")
            if value != 0.0:
                frozen[dim] = value
        object.__setattr__(self, "values", frozen)

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "CostVector":
        """The all-zero cost vector."""
        return cls({})

    @classmethod
    def uniform(cls, value: float, dimensions: Iterable[str] = DEFAULT_COST_DIMENSIONS) -> "CostVector":
        """A vector with ``value`` in every listed dimension."""
        return cls({dim: value for dim in dimensions})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "CostVector") -> "CostVector":
        # An insertion-ordered union, not a set: the dimension order is
        # the order scalarize() sums in, so it must not follow hash order.
        dims = {**self.values, **other.values}
        return CostVector({d: self.get(d) + other.get(d) for d in dims})

    def __mul__(self, factor: float) -> "CostVector":
        if factor < 0:
            raise ValueError(f"cost scaling factor must be >= 0, got {factor!r}")
        return CostVector({d: v * factor for d, v in self.values.items()})

    __rmul__ = __mul__

    @classmethod
    def total(cls, vectors: Iterable["CostVector"]) -> "CostVector":
        """Sum an iterable of cost vectors.

        One dict accumulates in first-appearance dimension order (the
        order :meth:`__add__` keeps) and is validated once; the bits
        match a chain of ``+`` because ``x + 0.0 == x``.
        """
        acc: dict[str, float] = {}
        for v in vectors:
            for dim, value in v.values.items():
                acc[dim] = acc.get(dim, 0.0) + value
        return cls(acc)

    # -- queries -----------------------------------------------------------

    def get(self, dimension: str) -> float:
        """The cost along ``dimension`` (zero when absent)."""
        return self.values.get(dimension, 0.0)

    @property
    def dimensions(self) -> frozenset[str]:
        """Dimensions with a non-zero entry."""
        return frozenset(self.values)

    def scalarize(self, weights: Mapping[str, float] | None = None) -> float:
        """Collapse to a single number: weighted sum over dimensions.

        With ``weights`` omitted every dimension contributes with weight 1,
        which is the scalar-budget ablation used in experiment F6.
        """
        if weights is None:
            return sum(self.values.values())
        return sum(v * weights.get(d, 0.0) for d, v in self.values.items())

    def fits_within(self, budget: "CostVector") -> bool:
        """Whether this cost is dominated by ``budget`` in every dimension."""
        return all(v <= budget.get(d) for d, v in self.values.items())

    def is_zero(self) -> bool:
        """Whether every dimension is zero."""
        return not self.values

    def as_dict(self) -> dict[str, float]:
        """A plain-dict copy of the non-zero entries."""
        return dict(self.values)


class MonitorScope(str, enum.Enum):
    """What a deployed monitor can observe.

    ``HOST`` monitors (logs, audit daemons) observe only the asset they
    run on.  ``NETWORK`` monitors (NIDS, flow collectors, firewall logs)
    observe their asset and every directly linked asset, modeling a tap
    on the adjacent links.
    """

    HOST = "host"
    NETWORK = "network"


@dataclass(frozen=True, slots=True)
class MonitorType:
    """A class of monitor that can be instantiated at compatible assets.

    Parameters
    ----------
    monitor_type_id:
        Unique identifier within a model.
    name:
        Human-readable label.
    data_type_ids:
        The data types every instance of this monitor generates.
    cost:
        Baseline per-instance deployment cost; individual
        :class:`Monitor` instances may scale it via ``cost_multiplier``.
    scope:
        Host- or network-scoped observation, see :class:`MonitorScope`.
    deployable_kinds:
        Asset kinds this monitor may be placed at; ``None`` means any.
    quality:
        Probability in ``(0, 1]`` that the monitor actually records an
        observable event (used by the simulation substrate to model
        missed observations; the static metrics treat monitors as ideal,
        exactly as the paper's model does).
    """

    monitor_type_id: str
    name: str
    data_type_ids: tuple[str, ...]
    cost: CostVector = field(default_factory=CostVector.zero)
    scope: MonitorScope = MonitorScope.HOST
    deployable_kinds: frozenset[AssetKind] | None = None
    quality: float = 0.95
    description: str = ""

    def __post_init__(self) -> None:
        if not self.monitor_type_id:
            raise ValueError("monitor_type_id must be a non-empty string")
        if not self.data_type_ids:
            raise ValueError(f"monitor type {self.monitor_type_id!r} must generate at least one data type")
        if len(set(self.data_type_ids)) != len(self.data_type_ids):
            raise ValueError(f"duplicate data types on monitor type {self.monitor_type_id!r}")
        if not 0.0 < self.quality <= 1.0:
            raise ValueError(
                f"quality must lie in (0, 1], got {self.quality!r} "
                f"for monitor type {self.monitor_type_id!r}"
            )

    def can_deploy_at_kind(self, kind: AssetKind) -> bool:
        """Whether instances may be placed at assets of ``kind``."""
        return self.deployable_kinds is None or kind in self.deployable_kinds


@dataclass(frozen=True, slots=True)
class Monitor:
    """A concrete deployable monitor: a monitor type placed at an asset.

    This is the decision unit of the placement problem — the optimizer
    selects a subset of the model's monitors.

    Parameters
    ----------
    monitor_id:
        Unique identifier within a model.
    monitor_type_id:
        The :class:`MonitorType` being instantiated.
    asset_id:
        The asset the instance is deployed at.
    cost_multiplier:
        Scales the type's baseline cost for this placement (e.g. a NIDS
        on a core switch inspects more traffic and costs more).
    """

    monitor_id: str
    monitor_type_id: str
    asset_id: str
    cost_multiplier: float = 1.0

    def __post_init__(self) -> None:
        if not self.monitor_id:
            raise ValueError("monitor_id must be a non-empty string")
        if self.cost_multiplier < 0:
            raise ValueError(
                f"cost_multiplier must be >= 0, got {self.cost_multiplier!r} "
                f"for monitor {self.monitor_id!r}"
            )

    def effective_cost(self, monitor_type: MonitorType) -> CostVector:
        """The placement-specific cost: type baseline times multiplier."""
        if monitor_type.monitor_type_id != self.monitor_type_id:
            raise ValueError(
                f"monitor {self.monitor_id!r} has type {self.monitor_type_id!r}, "
                f"not {monitor_type.monitor_type_id!r}"
            )
        return monitor_type.cost * self.cost_multiplier
