"""Bounded LRU cache over deployment evaluations.

Budget sweeps, ε-constraint frontier enumeration, and Shapley sampling
all evaluate overlapping families of deployments against the same
model.  :class:`DeploymentCache` memoizes ``(deployment, weights) ->
breakdown`` with least-recently-used eviction, and
:func:`cached_breakdown`/:func:`cached_utility` give those call sites a
shared per-model cache backed by the vectorized
:class:`~repro.runtime.engine.EvaluationEngine` on misses.

Keys are value-based (``frozenset`` of monitor ids plus the weight
tuple), so identical deployments hit regardless of which code path
asks.  Caches are bounded (default 4096 entries) and keep hit/miss/
eviction counters for observability and tests.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from collections.abc import Callable, Hashable, Iterable

from repro import obs
from repro.core.model import SystemModel
from repro.errors import MetricError
from repro.metrics.utility import UtilityWeights
from repro.runtime.engine import engine_for

__all__ = [
    "DeploymentCache",
    "cache_for",
    "cached_breakdown",
    "cached_utility",
    "evaluation_key",
]

#: Default maximum number of cached evaluations per model.
DEFAULT_CACHE_SIZE = 4096


class DeploymentCache:
    """An LRU-bounded mapping from hashable keys to evaluation results."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise MetricError(f"cache maxsize must be >= 1, got {maxsize!r}")
        self.maxsize = maxsize
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, default: object | None = None) -> object | None:
        """Look up ``key``, refreshing its recency; counts hit or miss."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            obs.counter("cache.misses").inc()
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        obs.counter("cache.hits").inc()
        return value

    def put(self, key: Hashable, value: object) -> None:
        """Insert/refresh ``key``, evicting the least recently used entry."""
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        obs.counter("cache.puts").inc()
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.counter("cache.evictions").inc()

    def get_or_compute(self, key: Hashable, compute: Callable[[], object]) -> object:
        """Cached value for ``key``, computing and storing it on a miss."""
        sentinel = object()
        value = self.get(key, sentinel)
        if value is sentinel:
            value = compute()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss/eviction counters plus current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }


#: Per-model shared caches; keyed weakly so models can be collected.
_CACHES: "weakref.WeakKeyDictionary[SystemModel, DeploymentCache]" = weakref.WeakKeyDictionary()


def cache_for(model: SystemModel) -> DeploymentCache:
    """The shared :class:`DeploymentCache` for ``model``.

    Keyed by model **identity**, deliberately: :class:`SystemModel`
    defines no ``__eq__``/``__hash__``, so two structurally identical
    models (e.g. an original and its unpickled copy in a worker) get
    *separate* caches and can never serve each other stale evaluations.
    The table holds the model weakly — dropping the last strong
    reference to a model drops its cache with it.  These semantics are
    pinned by ``tests/runtime/test_cache_identity.py``; rebind worker
    results to the parent's model instance (as the sweeps do) rather
    than relying on value equality to share cache entries.
    """
    cache = _CACHES.get(model)
    if cache is None:
        cache = DeploymentCache()
        _CACHES[model] = cache
    return cache


def evaluation_key(deployed: Iterable[str], weights: UtilityWeights) -> Hashable:
    """The value-based cache key of one ``(deployment, weights)`` pair."""
    return (frozenset(deployed), weights)


def cached_breakdown(
    model: SystemModel,
    deployed: Iterable[str],
    weights: UtilityWeights | None = None,
    *,
    cache: DeploymentCache | None = None,
) -> dict[str, float]:
    """Utility breakdown via the shared cache (engine-evaluated on miss)."""
    weights = weights or UtilityWeights()
    deployed = frozenset(deployed)
    cache = cache if cache is not None else cache_for(model)
    with obs.span("cache.lookup", monitors=len(deployed)) as sp:
        hits_before = cache.hits
        result = cache.get_or_compute(
            evaluation_key(deployed, weights),
            lambda: engine_for(model).breakdown(deployed, weights),
        )
        sp.set(hit=cache.hits > hits_before)
    return dict(result)  # type: ignore[arg-type]


def cached_utility(
    model: SystemModel,
    deployed: Iterable[str],
    weights: UtilityWeights | None = None,
    *,
    cache: DeploymentCache | None = None,
) -> float:
    """Combined utility via the shared cache (engine-evaluated on miss)."""
    return cached_breakdown(model, deployed, weights, cache=cache)["utility"]
