"""Worker pools: the one executor lifecycle.

Every process pool in the program is a :class:`PersistentPool` — the
only place a ``ProcessPoolExecutor`` is built.  A caller that maps many
times (a campaign loop, a CLI command, the solve service) holds one
pool for all of its maps, so pool startup is paid once per *loop*, not
once per *call*; a :func:`~repro.runtime.parallel.parallel_map` given no
pool runs on one scoped to the call.  On top of that lifecycle:

* :class:`PersistentPool` owns its executor explicitly (context
  manager, lazy creation, bounded crash-respawn);
* :class:`ModelParcel` ships a :class:`~repro.core.model.SystemModel`
  to workers pickled once per map, and each worker unpickles it once
  (a per-process memo keyed by the bytes' digest), so the worker's
  :func:`~repro.runtime.engine.engine_for` builds one engine per map,
  not one per task;
* :func:`in_worker` is the one fork guard: inside a worker process
  every map runs in-process and an inherited ambient pool is invisible
  (:func:`resolve_pool`), so no pool is ever forked from a fork.

Every other payload crosses the process boundary pickled inside its
task.

Everything here is observable: ``pool.created`` / ``pool.respawns`` /
``pool.respawns_exhausted`` counters for executor lifecycle, and a
``pool.queue_wait_seconds`` histogram (recorded by the pooled
scheduler in :mod:`repro.runtime.parallel`) for per-task queue latency.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import threading
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

from repro import obs
from repro.core.model import SystemModel
from repro.errors import ReproError

__all__ = [
    "WORKERS_ENV",
    "ModelParcel",
    "PersistentPool",
    "PoolError",
    "active_pool",
    "in_worker",
    "resolve_pool",
    "resolve_workers",
    "use_pool",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


class PoolError(ReproError):
    """A persistent pool was misused."""


# ----------------------------------------------------------------------
# model parcels: pickled once per map, unpickled once per worker
# ----------------------------------------------------------------------

class ModelParcel:
    """A model that crosses into pool workers as one reused pickle.

    Put one parcel in every task of a map.  In-process (a serial map,
    or one degraded to serial) the parcel is never pickled and
    :attr:`model` is the caller's own object, with its cached engine.
    Pickled, the parcel serializes the model once, on the first task,
    and every later task reuses those bytes; a worker unpickles them
    once (:func:`_unpack_parcel`) and the map's later tasks get the
    same model back, so :func:`~repro.runtime.engine.engine_for` builds
    one engine per worker per map.
    """

    __slots__ = ("model", "_wire")

    def __init__(self, model: SystemModel) -> None:
        self.model = model
        self._wire: tuple[bytes, bytes] | None = None

    def __reduce__(self) -> tuple:
        if self._wire is None:
            blob = pickle.dumps(self.model, protocol=pickle.HIGHEST_PROTOCOL)
            self._wire = (hashlib.blake2b(blob, digest_size=16).digest(), blob)
        return (_unpack_parcel, self._wire)


#: The last model this process unpickled from a parcel, by digest of
#: its bytes.  One entry: a worker serves one map at a time, and
#: holding the model keeps its weakly cached engine alive.
_PARCEL_MEMO: tuple[bytes, SystemModel] | None = None


def _unpack_parcel(digest: bytes, blob: bytes) -> ModelParcel:
    global _PARCEL_MEMO
    if _PARCEL_MEMO is None or _PARCEL_MEMO[0] != digest:
        _PARCEL_MEMO = (digest, pickle.loads(blob))
    return ModelParcel(_PARCEL_MEMO[1])


# ----------------------------------------------------------------------
# the persistent pool
# ----------------------------------------------------------------------

def resolve_workers(workers: int | None = None) -> int:
    """The effective worker count: argument, else ``REPRO_WORKERS``, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def in_worker() -> bool:
    """Whether this process is a ``multiprocessing`` child (a pool worker).

    The one fork guard.  Forking a pool from a forked worker can
    deadlock on locks copied mid-acquisition, so inside a worker every
    :func:`~repro.runtime.parallel.parallel_map` runs in-process and
    :func:`resolve_pool` sees no pool.  Results are identical at any worker count, so this is pure
    scheduling, never semantics.
    """
    return multiprocessing.parent_process() is not None


class PersistentPool:
    """One process pool reused across many maps.

    Parameters
    ----------
    workers:
        Worker-process count (defaults like :func:`resolve_workers`).
    max_respawns:
        How many crashed executors :meth:`respawn` will replace before
        refusing (the caller then degrades to serial).  Respawn uses
        the same transport-error classification as
        :func:`~repro.runtime.parallel.parallel_map` — a dead worker is
        pool plumbing, not a task fault.

    The executor is created lazily on first use (so a pool constructed
    but never mapped costs nothing) and torn down by :meth:`close` or
    the context manager.

    Lifecycle transitions (create/respawn/close) are guarded by
    a lock, so one pool can back many service worker threads:
    concurrent first-use races create exactly one executor,
    and a close never interleaves with a respawn.  The lock covers
    lifecycle only — submitting work to the returned executor is
    already thread-safe by ``concurrent.futures`` contract.
    """

    #: Whether executor creation and an exhausted respawn budget land on
    #: the ``pool.*`` counters (see :class:`_CallScopedPool`).
    _counted = True

    def __init__(
        self,
        workers: int | None = None,
        *,
        max_respawns: int = 2,
    ):
        self.workers = resolve_workers(workers)
        self.max_respawns = max_respawns
        self._executor: ProcessPoolExecutor | None = None
        self._respawns = 0
        self._closed = False
        self._lifecycle = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def respawns(self) -> int:
        """How many crashed executors this pool has replaced."""
        return self._respawns

    def executor(self) -> ProcessPoolExecutor:
        """The live executor, creating (or re-creating) it on demand."""
        with self._lifecycle:
            if self._closed:
                raise PoolError("the pool is closed")
            if self._executor is None:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                if self._counted:
                    obs.counter("pool.created").inc()
            return self._executor

    def respawn(self, reason: str) -> bool:
        """Replace a broken executor; ``False`` once the budget is spent.

        The old executor's workers are killed outright (a broken or
        hung pool cannot be drained), the next :meth:`executor` call
        forks a fresh one, and the attempt is counted.  Exhausting
        ``max_respawns`` returns ``False`` so the caller can fall back
        to the serial degrade path instead of thrashing.
        """
        with self._lifecycle:
            self._teardown(kill=True)
            if self._respawns >= self.max_respawns:
                if self._counted:
                    obs.counter("pool.respawns_exhausted").inc()
                return False
            self._respawns += 1
            obs.counter("pool.respawns").inc()
            with obs.span("pool.respawn", reason=reason):
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                obs.counter("pool.created").inc()
            return True

    def close(self) -> None:
        """Tear down the executor (idempotent)."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            self._teardown(kill=False)

    def _teardown(self, *, kill: bool) -> None:
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        processes = dict(getattr(executor, "_processes", None) or {})
        # No cancel_futures: maps keep at most one queued-but-unstarted
        # task, and shutdown(cancel_futures=True) can deadlock interpreter
        # exit after a submission failed to pickle.
        executor.shutdown(wait=not kill)
        if kill:
            for process in processes.values():
                process.kill()


class _CallScopedPool(PersistentPool):
    """The pool of one :func:`~repro.runtime.parallel.parallel_map` given none.

    It has no respawn budget, so the first broken pool degrades the map
    to serial.  It stays off the lifecycle counters: an executor per
    pool-less map is the baseline, not an event, and a map's counters
    must not depend on its worker count.
    """

    _counted = False

    def __init__(self, workers: int):
        super().__init__(workers, max_respawns=0)


#: Ambient pool consulted by :func:`~repro.runtime.parallel.parallel_map`
#: when no explicit ``pool`` argument is given.
_ACTIVE_POOL: PersistentPool | None = None


def active_pool() -> PersistentPool | None:
    """The ambient persistent pool, if one is installed (never in a worker)."""
    return None if in_worker() else _ACTIVE_POOL


def resolve_pool(pool: PersistentPool | None = None) -> PersistentPool | None:
    """The pool a map may use: ``pool``, else the ambient one.

    None when neither is given, the pool is closed, or this process is
    itself a worker (:func:`in_worker`).
    """
    pool = pool if pool is not None else active_pool()
    if pool is None or pool.closed or in_worker():
        return None
    return pool


@contextmanager
def use_pool(pool: PersistentPool) -> Iterator[PersistentPool]:
    """Route every ``parallel_map`` in this block through ``pool``.

    Installation only — the pool's lifecycle stays with the caller.
    Stack it with the pool's own context manager
    (``with PersistentPool(4) as pool, use_pool(pool): ...``) so the
    executor is released on exit.
    """
    global _ACTIVE_POOL
    previous = _ACTIVE_POOL
    _ACTIVE_POOL = pool
    try:
        yield pool
    finally:
        _ACTIVE_POOL = previous
