"""Shared evaluation substrate: fast metrics, caching, parallelism.

Three layers every hot path in the repository leans on:

* :mod:`repro.runtime.engine` — the incremental metrics engine:
  per-monitor evidence bitsets precomputed from the
  :class:`~repro.core.model.SystemModel`, vectorized full evaluation,
  O(affected events) delta evaluation through
  :class:`~repro.runtime.engine.DeploymentCursor`, and batch pricing of
  monitor orderings on a :class:`~repro.runtime.engine.ProviderTable`;
* :mod:`repro.runtime.cache` — a bounded LRU deployment-evaluation
  cache shared across sweeps, frontier enumeration, and contribution
  sampling;
* :mod:`repro.runtime.parallel` — an order-preserving process-pool map
  with deterministic seed spawning, per-task timeouts and retries
  (:mod:`repro.runtime.resilience`), and a graceful serial fallback;
* :mod:`repro.runtime.pool` — persistent worker pools with explicit
  lifecycle, and model parcels (pickled once per map, unpickled once
  per worker);
* :mod:`repro.runtime.faults` — the deterministic fault-injection
  harness the ``tests/faults`` suite drives the recovery paths with.

See ``docs/performance.md`` for layout details and measured impact,
and ``docs/robustness.md`` for the failure-handling semantics.
"""

from repro.runtime.cache import (
    DeploymentCache,
    cache_for,
    cached_breakdown,
    cached_utility,
    evaluation_key,
)
from repro.runtime.engine import DeploymentCursor, EvaluationEngine, ProviderTable, engine_for
from repro.runtime.parallel import (
    WORKERS_ENV,
    parallel_map,
    resolve_workers,
    spawn_generators,
    spawn_seeds,
)
from repro.runtime.pool import (
    ModelParcel,
    PersistentPool,
    PoolError,
    active_pool,
    use_pool,
)
from repro.runtime.resilience import (
    MapReport,
    RetryPolicy,
    TaskFailure,
    TaskFailureError,
)

__all__ = [
    "DeploymentCache",
    "DeploymentCursor",
    "EvaluationEngine",
    "MapReport",
    "ModelParcel",
    "PersistentPool",
    "PoolError",
    "ProviderTable",
    "RetryPolicy",
    "TaskFailure",
    "TaskFailureError",
    "WORKERS_ENV",
    "active_pool",
    "cache_for",
    "cached_breakdown",
    "cached_utility",
    "engine_for",
    "evaluation_key",
    "parallel_map",
    "resolve_workers",
    "spawn_generators",
    "spawn_seeds",
    "use_pool",
]
