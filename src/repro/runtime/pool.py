"""Worker pools: the one executor lifecycle, zero-copy over shared memory.

Every process pool in the program is a :class:`PersistentPool` — the
only place a ``ProcessPoolExecutor`` is built.  A caller that maps many
times (a campaign loop, a CLI command, the solve service) holds one
pool for all of its maps, so pool startup is paid once per *loop*, not
once per *call*; a :func:`~repro.runtime.parallel.parallel_map` given no
pool runs on one scoped to the call.  On top of that lifecycle:

* :class:`PersistentPool` owns its executor explicitly (context
  manager, lazy creation, bounded crash-respawn);
* :func:`publish_arrays` copies a set of numpy arrays once into a
  ``multiprocessing.shared_memory`` segment and hands back a tiny
  picklable :class:`SharedArraysHandle`; workers :func:`attach_arrays`
  the segment on first sight (cached per process) and every later task
  reuses the mapping — task payloads carry handles, not data;
* :func:`publish_engine` / :func:`attach_engine` apply that to the
  :class:`~repro.runtime.engine.EvaluationEngine`: the CSR coverage
  relation and field bitsets are built once in the parent, published
  once, and reconstructed zero-copy in each worker;
* :class:`ModelParcel` ships a :class:`~repro.core.model.SystemModel`
  to workers pickled once per map, and each worker unpickles it once
  (a per-process memo keyed by the bytes' digest), so the worker's
  :func:`~repro.runtime.engine.engine_for` builds one engine per map,
  not one per task;
* :func:`in_worker` is the one fork guard: inside a worker process
  every map runs in-process and an inherited ambient pool is invisible
  (:func:`resolve_pool`), so no pool is ever forked from a fork.

Segment lifetime is pinned to the publishing pool: handles obtained
from :meth:`PersistentPool.share` stay valid until the pool closes, and
``close`` (or the context manager, even on error) unlinks every
segment, so a finished run leaves nothing in ``/dev/shm``.  The
SHM-SAFE lint rule keeps segment creation inside this module for
exactly that reason.

Attachment sidesteps the known ``resource_tracker`` double-unlink
pitfall: Python < 3.13 registers *attached* segments with the tracker
too (there is no ``track=False`` yet), so a worker that merely mapped
a segment becomes a co-owner in the tracker's eyes — a spawned
attacher's tracker unlinks the segment when the attacher exits, and
with a forked (shared) tracker the duplicate bookkeeping produces
spurious unlink/KeyError noise at shutdown.  :func:`attach_arrays`
therefore opens segments with registration suppressed: only the
publisher is ever tracked, and only the publisher unlinks.

Everything here is observable: ``pool.created`` / ``pool.respawns``
counters for executor lifecycle, ``pool.segments`` /
``pool.segment_bytes`` for publications, ``pool.attaches`` /
``pool.detaches`` for mappings, and a ``pool.queue_wait_seconds``
histogram (recorded by the pooled scheduler in
:mod:`repro.runtime.parallel`) for per-task queue latency.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import os
import pickle
import threading
from collections.abc import Iterator, Mapping
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro import obs
from repro.core.model import SystemModel
from repro.errors import ReproError
from repro.runtime.engine import EvaluationEngine, engine_for

__all__ = [
    "WORKERS_ENV",
    "EngineHandle",
    "ModelParcel",
    "PersistentPool",
    "PoolError",
    "SharedArrays",
    "SharedArraysHandle",
    "active_pool",
    "attach_arrays",
    "attach_engine",
    "detach_all",
    "in_worker",
    "publish_arrays",
    "publish_engine",
    "resolve_pool",
    "resolve_workers",
    "use_pool",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV = "REPRO_WORKERS"


class PoolError(ReproError):
    """A persistent pool or shared-memory segment was misused."""


#: Segment-internal alignment for each packed array (cache-line sized).
_ALIGNMENT = 64

#: Names this module gives its segments: a recognizable prefix so tests
#: (and operators) can enumerate leftovers in ``/dev/shm``, the owning
#: pid, a process-local sequence number, and an entropy suffix guarding
#: against collisions with segments a crashed earlier run leaked.
SEGMENT_PREFIX = "repro-shm"

_SEGMENT_COUNTER = itertools.count()


def _segment_name() -> str:
    return (
        f"{SEGMENT_PREFIX}-{os.getpid()}-{next(_SEGMENT_COUNTER)}-"
        f"{os.urandom(4).hex()}"
    )


@dataclass(frozen=True)
class SharedArraysHandle:
    """A picklable ticket for one published array set.

    ``spec`` lists ``(array name, dtype string, shape, byte offset)``
    for every packed array; the handle is a few hundred bytes no matter
    how large the arrays are, which is the whole point — task payloads
    ship the handle, never the data.
    """

    segment: str
    spec: tuple[tuple[str, str, tuple[int, ...], int], ...]

    @property
    def nbytes(self) -> int:
        """Total payload bytes addressed by this handle."""
        total = 0
        for _, dtype, shape, _ in self.spec:
            total += int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
        return total


class SharedArrays:
    """An owned shared-memory segment holding a packed set of arrays.

    Only the publisher holds one of these; workers see just the
    :attr:`handle`.  Closing (idempotent, and implied by the context
    manager) unlinks the segment — attached readers keep their existing
    mappings alive until they exit, but no new attach can occur and the
    name is gone from ``/dev/shm``.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: SharedArraysHandle):
        self._shm = shm
        self.handle = handle
        self._closed = False

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Unlink the segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        self._shm.unlink()
        obs.counter("pool.segments_unlinked").inc()


def publish_arrays(arrays: Mapping[str, np.ndarray]) -> SharedArrays:
    """Copy ``arrays`` once into a fresh shared-memory segment.

    Returns the owning :class:`SharedArrays`; pass its ``handle`` to
    workers and keep the owner alive (or registered with a
    :class:`PersistentPool`) until every map over it has finished.
    """
    spec: list[tuple[str, str, tuple[int, ...], int]] = []
    offset = 0
    packed: list[tuple[np.ndarray, int]] = []
    for name, array in arrays.items():
        contiguous = np.ascontiguousarray(array)
        offset = (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        spec.append((name, contiguous.dtype.str, tuple(contiguous.shape), offset))
        packed.append((contiguous, offset))
        offset += contiguous.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(1, offset), name=_segment_name())
    for contiguous, start in packed:
        if contiguous.nbytes == 0:
            continue
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=shm.buf, offset=start)
        view[...] = contiguous
        del view  # drop the exported buffer so close() can release it
    handle = SharedArraysHandle(segment=shm.name, spec=tuple(spec))
    obs.counter("pool.segments_published").inc()
    obs.counter("pool.segment_bytes").inc(max(1, offset))
    return SharedArrays(shm, handle)


#: Per-process attachment cache: segment name -> (mapping, arrays).
#: Workers are forked per pool and touch many tasks per handle; caching
#: the attach is what makes the payload path zero-copy in practice.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]] = {}


def _noop_register(name: str, rtype: str) -> None:
    """Registration suppressor installed around attach-side opens."""


def _open_untracked(segment: str) -> shared_memory.SharedMemory:
    """Attach ``segment`` without registering it with the tracker.

    Pre-3.13 ``SharedMemory`` has no ``track=False``; it registers even
    pure attachments, making every attacher a co-owner whose tracker
    may unlink the segment on exit (the double-unlink pitfall).
    Swapping the register hook out for the duration of the open is the
    supported-API-free equivalent: attachers leave no tracker state in
    any process, and ownership stays solely with the publisher.
    """
    original = resource_tracker.register
    resource_tracker.register = _noop_register
    try:
        return shared_memory.SharedMemory(name=segment)
    finally:
        resource_tracker.register = original


def attach_arrays(handle: SharedArraysHandle) -> dict[str, np.ndarray]:
    """Read-only views of a published array set (cached per process).

    Attachment never touches the ``resource_tracker`` (see
    :func:`_open_untracked`), so however many workers map a segment,
    the tracker knows exactly one owner — the publisher — and the
    segment is unlinked exactly once.
    """
    cached = _ATTACHED.get(handle.segment)
    if cached is not None:
        return cached[1]
    try:
        shm = _open_untracked(handle.segment)
    except FileNotFoundError as exc:
        raise PoolError(
            f"shared segment {handle.segment!r} is gone — handles must not "
            f"outlive the pool that published them"
        ) from exc
    views: dict[str, np.ndarray] = {}
    for name, dtype, shape, offset in handle.spec:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=offset)
        view.flags.writeable = False  # shared state must stay immutable
        views[name] = view
    _ATTACHED[handle.segment] = (shm, views)
    obs.counter("pool.attaches").inc()
    return views


def detach_all() -> int:
    """Drop this process's attachment cache; returns segments released.

    Views handed out earlier become invalid.  Mappings whose buffers
    are still exported stay mapped until process exit (the OS reclaims
    them); the cache entry is released either way.
    """
    released = 0
    for segment in list(_ATTACHED):
        shm, _ = _ATTACHED.pop(segment)
        try:
            shm.close()
        except BufferError:
            pass  # live views pin the mapping; the OS frees it at exit
        _ENGINE_CACHE.pop(segment, None)
        obs.counter("pool.detaches").inc()
        released += 1
    return released


# ----------------------------------------------------------------------
# engine publication: the CSR coverage relation, shared once
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EngineHandle:
    """A picklable ticket for a published :class:`EvaluationEngine`.

    Carries the flat-array handle plus the small metadata a worker
    needs to rebuild index maps and ragged per-monitor views; the
    rebuild happens once per worker per handle (see
    :func:`attach_engine`) and reads the arrays zero-copy.
    """

    arrays: SharedArraysHandle
    monitor_ids: tuple[str, ...]
    event_ids: tuple[str, ...]
    n_words: int


def publish_engine(model: SystemModel, pool: "PersistentPool") -> EngineHandle:
    """Publish ``model``'s evaluation engine into ``pool``'s shared memory.

    Builds (or reuses) the per-model engine, copies its CSR arrays and
    field bitsets into one segment owned by ``pool``, and returns the
    handle workers evaluate against.
    """
    engine = engine_for(model)
    handle = pool.share(
        {
            "indptr": engine._indptr,
            "prov_monitor": engine._prov_monitor,
            "prov_weight": engine._prov_weight,
            "prov_miss": engine._prov_miss,
            "prov_fields": engine._prov_fields,
            "alpha": engine._alpha,
            "capturable": engine._capturable,
            "inv_capturable": engine._inv_capturable,
        }
    )
    return EngineHandle(
        arrays=handle,
        monitor_ids=engine.monitor_ids,
        event_ids=engine.event_ids,
        n_words=engine.n_words,
    )


#: Per-process rebuilt engines, keyed by segment (one rebuild per
#: worker per publication, however many tasks map over it).
_ENGINE_CACHE: dict[str, EvaluationEngine] = {}


def attach_engine(handle: EngineHandle) -> EvaluationEngine:
    """The published engine, reconstructed over the shared arrays.

    The heavy state (CSR arrays, bitsets, alpha) is *viewed*, not
    copied; only the index maps and ragged per-monitor working sets are
    rebuilt, and the result is cached per process so repeated tasks pay
    nothing.  The attached engine has no backing
    :class:`~repro.core.model.SystemModel` (``model is None``) — it
    evaluates deployments, it does not answer model queries.
    """
    cached = _ENGINE_CACHE.get(handle.arrays.segment)
    if cached is not None:
        return cached
    arrays = attach_arrays(handle.arrays)
    engine = EvaluationEngine.__new__(EvaluationEngine)
    engine.model = None
    engine.monitor_ids = handle.monitor_ids
    engine.event_ids = handle.event_ids
    engine._midx = {m: i for i, m in enumerate(handle.monitor_ids)}
    engine._eidx = {e: i for i, e in enumerate(handle.event_ids)}
    engine.n_words = handle.n_words
    engine._field_bits = None  # construction-only scaffolding
    engine._indptr = arrays["indptr"]
    engine._prov_monitor = arrays["prov_monitor"]
    engine._prov_weight = arrays["prov_weight"]
    engine._prov_miss = arrays["prov_miss"]
    engine._prov_fields = arrays["prov_fields"]
    engine._alpha = arrays["alpha"]
    engine._capturable = arrays["capturable"]
    engine._inv_capturable = arrays["inv_capturable"]
    engine._build_monitor_views(None)
    _ENGINE_CACHE[handle.arrays.segment] = engine
    obs.counter("pool.engine_attaches").inc()
    return engine


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
    :func:`resolve_pool` sees no pool — no executor, no ``share()``.
    Results are identical at any worker count, so this is pure
    scheduling, never semantics.
    """
    return multiprocessing.parent_process() is not None


class PersistentPool:
    """One process pool reused across many maps, with owned segments.

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
    the context manager, which also unlinks every segment published
    through :meth:`share` — crash or not, exiting the ``with`` block
    leaves zero segments behind.

    Lifecycle transitions (create/respawn/close/share) are guarded by
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
        self._segments: list[SharedArrays] = []
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
        """Tear down the executor and unlink every owned segment."""
        with self._lifecycle:
            if self._closed:
                return
            self._closed = True
            self._teardown(kill=False)
            segments = list(self._segments)
            self._segments.clear()
        for segment in segments:
            segment.close()

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

    # -- publication -------------------------------------------------------

    def share(self, arrays: Mapping[str, np.ndarray]) -> SharedArraysHandle:
        """Publish ``arrays`` with lifetime pinned to this pool.

        The returned handle stays valid until :meth:`close`; this is
        the pinning discipline the SHM-SAFE rule enforces — handles
        crossing a ``parallel_map`` boundary must be owned by a pool
        whose lifetime spans the map.
        """
        with self._lifecycle:
            if self._closed:
                raise PoolError("the pool is closed")
            published = publish_arrays(arrays)
            self._segments.append(published)
            return published.handle


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
    executor and every published segment are released on exit.
    """
    global _ACTIVE_POOL
    previous = _ACTIVE_POOL
    _ACTIVE_POOL = pool
    try:
        yield pool
    finally:
        _ACTIVE_POOL = previous
