"""Multi-tenant solver-state caches with eviction and counters.

Two caches back the service, both partitioned by tenant (one tenant's
warm state is never visible to — and never evicted by pressure from —
another tenant's key space alone; the byte budget is shared, which is
the backpressure story: a tenant flooding distinct models evicts its
own oldest entries first because they are the least recently used):

* :class:`SessionCache` holds the expensive warm state — one
  :class:`~repro.optimize.family.ProblemFamily` (shared formulation
  cores) plus one :class:`~repro.solver.session.SolveSession` (presolve
  memo, incumbent seeds, LP caches) per ``(tenant, model, weights,
  backend, presolve)`` key — bounded by **estimated bytes** with LRU
  eviction and an optional idle TTL.  Neither object is thread-safe,
  so every entry carries a lock; the service holds it for the duration
  of a job (or a batch) touching the entry.
* :class:`ResultCache` holds completed job payloads keyed by
  :func:`~repro.service.requests.request_digest`, bounded by entry
  count per tenant.  A hit returns the originally computed result
  object — deduplication is exact by construction, not merely
  equivalent.

Every hit, miss, insertion, and eviction lands on ``service.cache.*`` /
``service.results.*`` counters (and gauges for live bytes/entries), so
``registry_snapshot.json`` reconciles exactly with the insert/evict
sequence a test observes.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.core.model import SystemModel
from repro.metrics.utility import UtilityWeights
from repro.obs.clock import Clock, SystemClock
from repro.optimize.family import ProblemFamily
from repro.solver.session import SolveSession

__all__ = ["CacheEntry", "ResultCache", "SessionCache"]

#: Fallback byte estimate for an entry whose family has not compiled a
#: core yet (a fresh checkout that has not executed a job).
_EMPTY_ENTRY_BYTES = 4096


def _session_key(
    tenant: str,
    mdigest: str,
    weights: UtilityWeights | None,
    backend: str,
    presolve: bool,
) -> tuple:
    """The :class:`SessionCache` key; the service also batches jobs on it."""
    return (tenant, mdigest, weights or UtilityWeights(), backend, presolve)


@dataclass
class CacheEntry:
    """One tenant's warm solver state for one (model, weights, backend)."""

    key: tuple
    tenant: str
    model: SystemModel
    family: ProblemFamily
    session: SolveSession
    lock: threading.Lock = field(default_factory=threading.Lock)
    nbytes: int = _EMPTY_ENTRY_BYTES
    last_used: float = 0.0
    uses: int = 0

    def refresh_bytes(self) -> int:
        """Re-estimate this entry's footprint from its live state."""
        self.nbytes = max(
            _EMPTY_ENTRY_BYTES,
            self.family.estimated_bytes() + self.session.estimated_bytes(),
        )
        return self.nbytes


class SessionCache:
    """LRU-by-bytes + idle-TTL cache of per-tenant sessions and families.

    Parameters
    ----------
    max_bytes:
        Estimated-byte budget across all tenants.  When an insertion
        pushes the total over budget, least-recently-used entries are
        evicted until it fits — except the entry just touched, which is
        always retained (a cache that evicts its only user thrashes
        forever).
    idle_ttl:
        Seconds of disuse after which an entry is evicted on the next
        :meth:`checkout` (lazy sweep — no background timers, so tests
        drive it deterministically with a
        :class:`~repro.obs.clock.ManualClock`).  ``None`` disables it.
    clock:
        Injected time source; defaults to the system clock.

    Eviction never breaks in-flight work: a job holds a strong
    reference (and the entry lock) while executing, so an evicted entry
    finishes its current job and is then collected — only *future*
    checkouts rebuild cold state.  Results are unaffected either way;
    see the determinism contract in ``docs/service.md``.
    """

    def __init__(
        self,
        max_bytes: int = 64 << 20,
        idle_ttl: float | None = None,
        clock: Clock | None = None,
    ):
        self.max_bytes = int(max_bytes)
        self.idle_ttl = idle_ttl
        self._clock = clock or SystemClock()
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self._lock = threading.Lock()

    # -- public API --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_bytes(self) -> int:
        """Estimated bytes across all live entries."""
        return sum(entry.nbytes for entry in self._entries.values())

    def checkout(
        self,
        tenant: str,
        model: SystemModel,
        mdigest: str,
        weights: UtilityWeights | None,
        backend: str,
        *,
        presolve: bool = False,
    ) -> CacheEntry:
        """The warm entry for this key, creating (and evicting) as needed.

        The caller must acquire ``entry.lock`` before touching the
        family or session — both hold live, mutable solver state.
        """
        key = _session_key(tenant, mdigest, weights, backend, presolve)
        now = self._clock.now()
        with self._lock:
            self._sweep_idle(now)
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry.last_used = now
                entry.uses += 1
                obs.counter("service.cache.hits").inc()
            else:
                entry = CacheEntry(
                    key=key,
                    tenant=tenant,
                    model=model,
                    family=ProblemFamily(model, weights),
                    session=SolveSession(backend, presolve=presolve),
                    last_used=now,
                    uses=1,
                )
                self._entries[key] = entry
                obs.counter("service.cache.misses").inc()
                self._evict_over_budget(keep=key)
            self._publish_gauges()
            return entry

    def note_bytes(self, entry: CacheEntry) -> None:
        """Refresh an entry's byte estimate after a job ran against it.

        Called by the service once per job, outside the entry lock's
        critical section cost (the estimate only reads counts).  Growth
        can push the cache over budget, so the LRU sweep runs here too.
        """
        entry.refresh_bytes()
        with self._lock:
            if entry.key in self._entries:
                self._evict_over_budget(keep=entry.key)
            self._publish_gauges()

    def snapshot(self) -> dict[str, Any]:
        """Cheap structural view for ``stats`` endpoints and tests."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "total_bytes": self.total_bytes,
                "max_bytes": self.max_bytes,
                "tenants": sorted({e.tenant for e in self._entries.values()}),
            }

    # -- internals (callers hold self._lock) -------------------------------

    def _sweep_idle(self, now: float) -> None:
        if self.idle_ttl is None:
            return
        stale = [
            key
            for key, entry in self._entries.items()
            if now - entry.last_used > self.idle_ttl
        ]
        for key in stale:
            del self._entries[key]
            obs.counter("service.cache.evictions.ttl").inc()

    def _evict_over_budget(self, keep: tuple) -> None:
        while self.total_bytes > self.max_bytes and len(self._entries) > 1:
            oldest = next(iter(self._entries))
            if oldest == keep:
                # The protected entry is the LRU head; evict the next
                # oldest instead (or stop if it is the only one left).
                keys = iter(self._entries)
                next(keys)
                oldest = next(keys, None)
                if oldest is None:
                    return
            del self._entries[oldest]
            obs.counter("service.cache.evictions.lru").inc()

    def _publish_gauges(self) -> None:
        obs.gauge("service.cache.bytes").set(float(self.total_bytes))
        obs.gauge("service.cache.entries").set(float(len(self._entries)))


class ResultCache:
    """Per-tenant completed-result store behind request deduplication.

    Values are whatever the service finished a job with (the
    :class:`~repro.service.service.JobResult` payload); keys are
    :func:`~repro.service.requests.request_digest` values, so a hit is
    exact — the digest covers everything that can influence the result.
    Bounded per tenant by entry count (results are small: a deployment,
    an objective, a stats dict — byte accounting would be noise).
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = int(max_entries)
        self._tenants: dict[str, OrderedDict[str, Any]] = {}
        self._lock = threading.Lock()

    def get(self, tenant: str, digest: str) -> Any | None:
        with self._lock:
            store = self._tenants.get(tenant)
            if store is None or digest not in store:
                obs.counter("service.results.misses").inc()
                return None
            store.move_to_end(digest)
            obs.counter("service.results.hits").inc()
            return store[digest]

    def put(self, tenant: str, digest: str, value: Any) -> None:
        if self.max_entries <= 0:
            return
        with self._lock:
            store = self._tenants.setdefault(tenant, OrderedDict())
            if digest in store:
                store.move_to_end(digest)
            store[digest] = value
            obs.counter("service.results.insertions").inc()
            while len(store) > self.max_entries:
                store.popitem(last=False)
                obs.counter("service.results.evictions").inc()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(store) for store in self._tenants.values())
