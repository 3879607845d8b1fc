"""Validated job descriptions and the digests requests deduplicate on.

A :class:`SolveRequest` is the service's unit of admission: one tenant
asking for one optimization job — a max-utility solve, a min-cost
solve, a budget sweep, or an exact frontier.  Requests are plain data
(no live solver state), validated up front with *every* problem listed
(mirroring :class:`~repro.errors.ValidationError`), and canonically
hashable:

* :func:`model_digest` fingerprints a :class:`~repro.core.model.
  SystemModel` through its canonical serialized form, cached per model
  instance (models are immutable);
* :func:`request_digest` fingerprints everything about a request that
  can influence its *result* — kind, model digest, budget, weights,
  fractions, backend and solver controls — and deliberately excludes
  what cannot (``job_id``, ``deadline``): two requests with equal
  digests are interchangeable down to the bit, which is what makes
  result-cache deduplication exact rather than heuristic.
"""

from __future__ import annotations

import enum
import hashlib
import weakref
from collections.abc import Mapping
from dataclasses import astuple, dataclass

from repro.core.model import SystemModel
from repro.core.serialization import model_to_dict
from repro.errors import ReproError
from repro.export.jsonsafe import dumps as strict_dumps
from repro.metrics.utility import UtilityWeights
from repro.solver import BACKENDS

__all__ = [
    "JobKind",
    "RequestValidationError",
    "SolveRequest",
    "model_digest",
    "request_digest",
]


class JobKind(enum.Enum):
    """What kind of optimization a request asks for."""

    MAX_UTILITY = "max-utility"
    MIN_COST = "min-cost"
    SWEEP = "sweep"
    FRONTIER = "frontier"


class RequestValidationError(ReproError):
    """A request failed admission validation; lists every problem found."""

    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__(
            "invalid solve request:\n" + "\n".join(f"  - {p}" for p in self.problems)
        )


@dataclass(frozen=True)
class SolveRequest:
    """One tenant's optimization job, as pure data.

    Parameters
    ----------
    tenant:
        The submitting tenant; caches, queues, and concurrency limits
        are all partitioned on this.
    kind:
        A :class:`JobKind` (or its string value).
    model / model_ref:
        Exactly one of: the system model inline, or the digest of a
        model previously registered with
        :meth:`~repro.service.service.SolveService.publish_model`.
    budget_limits / budget_fraction:
        The budget knob for ``max-utility`` jobs: explicit per-dimension
        limits, or a fraction of the model's all-monitors cost
        (:meth:`~repro.metrics.cost.Budget.fraction_of_total`).
    fractions:
        Budget fractions for ``sweep`` jobs.
    min_utility / fully_cover:
        Requirements for ``min-cost`` jobs.
    deadline:
        Relative wall-clock budget in seconds, measured from admission
        on the service's injected clock.  Propagated into the solver
        :class:`~repro.runtime.resilience.RetryPolicy` and the per-solve
        ``time_limit``; an expired job fails with a typed
        ``deadline`` error instead of occupying a worker.
    job_id:
        Optional caller correlation id; also names the request's
        fault-injection site (``service.job.<tenant>.<job_id>``).
    """

    tenant: str
    kind: JobKind | str
    model: SystemModel | None = None
    model_ref: str | None = None
    budget_limits: Mapping[str, float] | None = None
    budget_fraction: float | None = None
    weights: UtilityWeights | None = None
    fractions: tuple[float, ...] = ()
    min_utility: float | None = None
    fully_cover: tuple[str, ...] = ()
    forced_monitors: tuple[str, ...] = ()
    max_monitors: int | None = None
    backend: str = "scipy"
    time_limit: float | None = None
    deadline: float | None = None
    max_nodes: int | None = None
    gap: float | None = None
    epsilon: float = 1e-4
    max_points: int = 200
    job_id: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.kind, str):
            object.__setattr__(self, "kind", JobKind(self.kind))
        object.__setattr__(self, "fractions", tuple(self.fractions))
        object.__setattr__(self, "fully_cover", tuple(self.fully_cover))
        object.__setattr__(self, "forced_monitors", tuple(self.forced_monitors))
        if self.budget_limits is not None:
            object.__setattr__(self, "budget_limits", dict(self.budget_limits))

    # -- validation --------------------------------------------------------

    def problems(self) -> list[str]:
        """Every admission problem with this request (empty when valid)."""
        problems: list[str] = []
        if not self.tenant or not str(self.tenant).strip():
            problems.append("tenant must be a non-empty string")
        if (self.model is None) == (self.model_ref is None):
            problems.append("exactly one of model / model_ref is required")
        if self.backend not in BACKENDS:
            problems.append(
                f"unknown backend {self.backend!r}; choose from {BACKENDS}"
            )
        if self.kind is JobKind.MAX_UTILITY:
            if (self.budget_limits is None) == (self.budget_fraction is None):
                problems.append(
                    "max-utility jobs need exactly one of "
                    "budget_limits / budget_fraction"
                )
        elif self.kind is JobKind.MIN_COST:
            if self.min_utility is None and not self.fully_cover:
                problems.append(
                    "min-cost jobs need at least one requirement "
                    "(min_utility or fully_cover)"
                )
            if self.min_utility is not None and not 0.0 <= self.min_utility <= 1.0:
                problems.append(
                    f"min_utility must lie in [0, 1], got {self.min_utility!r}"
                )
        elif self.kind is JobKind.SWEEP:
            if not self.fractions:
                problems.append("sweep jobs need at least one budget fraction")
            if any(f < 0 for f in self.fractions):
                problems.append(f"sweep fractions must be >= 0, got {self.fractions!r}")
        elif self.kind is JobKind.FRONTIER:
            if self.epsilon <= 0:
                problems.append(f"epsilon must be > 0, got {self.epsilon!r}")
            if self.max_points < 1:
                problems.append(f"max_points must be >= 1, got {self.max_points!r}")
        if self.budget_fraction is not None and self.budget_fraction < 0:
            problems.append(
                f"budget_fraction must be >= 0, got {self.budget_fraction!r}"
            )
        if self.budget_limits is not None:
            for dim, value in self.budget_limits.items():
                if float(value) < 0:
                    problems.append(
                        f"budget limit for {dim!r} must be >= 0, got {value!r}"
                    )
        if self.deadline is not None and self.deadline <= 0:
            problems.append(f"deadline must be > 0 seconds, got {self.deadline!r}")
        if self.time_limit is not None and self.time_limit <= 0:
            problems.append(f"time_limit must be > 0 seconds, got {self.time_limit!r}")
        if self.max_monitors is not None and self.max_monitors < 0:
            problems.append(f"max_monitors must be >= 0, got {self.max_monitors!r}")
        return problems

    def validate(self) -> "SolveRequest":
        """Raise :class:`RequestValidationError` unless admissible."""
        problems = self.problems()
        if problems:
            raise RequestValidationError(problems)
        return self

    @property
    def site(self) -> str:
        """This request's fault-injection site label."""
        label = self.job_id if self.job_id else self.kind.value
        return f"service.job.{self.tenant}.{label}"


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------

#: Per-instance digest memo; models are immutable, so the digest is a
#: pure function of the identity.  Weak keys keep retired models
#: collectable.
_MODEL_DIGESTS: "weakref.WeakKeyDictionary[SystemModel, str]" = (
    weakref.WeakKeyDictionary()
)


def model_digest(model: SystemModel) -> str:
    """Content digest of a model's canonical serialized form.

    Two structurally identical models digest identically even when they
    are distinct instances, which is what lets tenants publish a model
    once and submit jobs against its ``model_ref``.
    """
    cached = _MODEL_DIGESTS.get(model)
    if cached is not None:
        return cached
    canonical = strict_dumps(model_to_dict(model), sort_keys=True)
    digest = hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()
    _MODEL_DIGESTS[model] = digest
    return digest


def request_digest(request: SolveRequest, mdigest: str) -> str:
    """Digest of everything that can influence a request's result.

    ``mdigest`` is the resolved :func:`model_digest` (requests with
    ``model_ref`` have no inline model to hash).  ``job_id``,
    ``deadline``, and ``tenant`` are deliberately excluded: they govern
    scheduling and correlation, never the solution, so requests
    differing only there legitimately share one cached result.
    """
    payload = {
        "kind": request.kind.value,
        "model": mdigest,
        "budget_limits": (
            None
            if request.budget_limits is None
            else sorted((k, float(v)) for k, v in request.budget_limits.items())
        ),
        "budget_fraction": request.budget_fraction,
        "weights": astuple(request.weights or UtilityWeights()),
        "fractions": list(request.fractions),
        "min_utility": request.min_utility,
        "fully_cover": sorted(request.fully_cover),
        "forced_monitors": sorted(request.forced_monitors),
        "max_monitors": request.max_monitors,
        "backend": request.backend,
        "time_limit": request.time_limit,
        "max_nodes": request.max_nodes,
        "gap": request.gap,
        "epsilon": request.epsilon,
        "max_points": request.max_points,
    }
    canonical = strict_dumps(payload, sort_keys=True)
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()
