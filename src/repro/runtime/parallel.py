"""Process-pool parallel map with deterministic seeding and fault tolerance.

Budget sweeps, scenario solves, and simulation campaigns are
embarrassingly parallel: independent pure jobs over a list of inputs.
:func:`parallel_map` runs such jobs across a worker pool
(:class:`~repro.runtime.pool.PersistentPool`: the caller's, the ambient
one, or one scoped to the call) while keeping four guarantees the
experiment suite depends on:

* **order preservation** — results come back in input order, so a
  parallel run is positionally identical to a serial one;
* **determinism** — randomized jobs take their seeds from
  :func:`spawn_seeds` (``numpy.random.SeedSequence.spawn``), which
  derives one independent child stream per job from the caller's seed,
  independent of how jobs land on workers;
* **graceful serial fallback** — if the pool cannot be used (no OS
  support, unpicklable job, broken worker), the same jobs run serially
  in-process instead of failing;
* **visible fault handling** — per-task timeouts, bounded retries with
  deterministic exponential backoff, and ``BrokenProcessPool``
  recovery, all governed by a
  :class:`~repro.runtime.resilience.RetryPolicy` and recorded into a
  structured :class:`~repro.runtime.resilience.MapReport` plus
  ``parallel.*`` obs counters — never a silent ``except Exception``.

Worker count resolution: an explicit ``workers`` argument wins, then
the ``REPRO_WORKERS`` environment variable, then serial (1).  Jobs must
be module-level callables with picklable arguments to actually run in
the pool; anything else falls back to serial.  Inside a worker process
every map runs serially (:func:`~repro.runtime.pool.in_worker`).
"""

from __future__ import annotations

import pickle
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from typing import TypeVar

import numpy as np

from repro import obs
from repro.runtime.pool import (
    WORKERS_ENV,
    PersistentPool,
    _CallScopedPool,
    in_worker,
    resolve_pool,
    resolve_workers,
)
from repro.runtime.resilience import MapReport, RetryPolicy, TaskFailure, TaskFailureError

__all__ = [
    "WORKERS_ENV",
    "parallel_map",
    "resolve_workers",
    "spawn_generators",
    "spawn_seeds",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Placeholder occupying the result slot of a task dropped by
#: ``on_failure="skip"``; filtered out before results are returned.
_SKIPPED = object()

#: Default policy: no timeout, no retries, raise on task failure —
#: the seed semantics, now with reporting.
_DEFAULT_POLICY = RetryPolicy()


def spawn_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """``count`` independent child seed sequences derived from ``seed``.

    Children depend only on ``(seed, position)`` — never on worker
    scheduling — so seeded work partitioned over any number of workers
    reproduces the serial stream exactly.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count!r}")
    return list(np.random.SeedSequence(seed).spawn(count))


def spawn_generators(seed: int, count: int) -> list[np.random.Generator]:
    """``count`` independent generators derived from ``seed``."""
    return [np.random.default_rng(s) for s in spawn_seeds(seed, count)]


#: Serializes in-process captured executions and their graft-back.
#: ``obs.capture`` swaps the *process-global* ambient instruments, so
#: two threads interleaving enter/exit (the solve service maps from
#: ``asyncio.to_thread`` workers) would violate the LIFO restore and
#: leave the ambient registry pointing at a dead per-task capture.
#: The lock enforces strict nesting; increments other threads make
#: while a capture is ambient land in that capture's registry and are
#: folded back into the parent with its snapshot, so totals survive.
#: Reentrant because observed jobs may themselves run nested maps.
_OBSERVED_LOCK = threading.RLock()


class _ObservedJob:
    """One job run under its own capture, shipping observability home.

    Worker processes cannot write to the parent's ambient instruments,
    so when the caller is tracing each job runs inside a fresh
    :func:`repro.obs.capture` and returns ``(result, spans, metrics)``;
    the parent grafts the spans into its trace as a ``task-<i>`` row
    and folds the metrics snapshot into its registry.  The wrapper is a
    module-level class so instances pickle into the pool whenever the
    wrapped ``fn`` does.  The capture inherits the ambient clock of the
    *executing* process: in-process parity runs keep an injected test
    clock; pool workers read their own system clock (the parent rebases
    those foreign timestamps on attach).  In-process runs serialize on
    :data:`_OBSERVED_LOCK`; in a pool worker the lock is fresh per
    process and never contended.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[_T], _R]) -> None:
        self.fn = fn

    def __call__(self, item: _T) -> tuple[_R, list[dict], dict]:
        with _OBSERVED_LOCK:
            with obs.capture(clock=obs.tracer().clock) as cap:
                result = self.fn(item)
        return result, cap.tracer.export_spans(), cap.registry.snapshot()


class _QueueTimedJob:
    """A submission stamped with its enqueue time.

    Workers return ``(queue_wait, result)`` where the wait is measured
    on the worker against the submission stamp — valid cross-process on
    Linux because ``time.monotonic`` reads the system-wide
    ``CLOCK_MONOTONIC``.  The pooled scheduler wraps every submission,
    so the ``pool.queue_wait_seconds`` histogram counts each pooled
    task once, whether its pool is shared or scoped to one call.
    """

    __slots__ = ("fn", "submitted")

    def __init__(self, fn: Callable, submitted: float) -> None:
        self.fn = fn
        self.submitted = submitted

    def __call__(self, item: object) -> tuple[float, object]:
        wait = max(0.0, time.monotonic() - self.submitted)
        return wait, self.fn(item)


def _is_transport_error(exc: BaseException) -> bool:
    """Whether an exception means the *pool plumbing* failed, not the task.

    Unpicklable jobs/arguments/results surface as pickling errors on the
    future; those warrant a serial degrade (the task itself may be
    perfectly healthy in-process), not a retry of the same doomed
    submission.
    """
    if isinstance(exc, (pickle.PicklingError, BrokenProcessPool)):
        return True
    text = f"{type(exc).__name__}: {exc}"
    return "pickle" in text.lower()


def _record_failure(
    report: MapReport, index: int, stage: str, attempts: int, exc: BaseException
) -> TaskFailure:
    failure = TaskFailure(
        index=index,
        stage=stage,
        attempts=attempts,
        error_type=type(exc).__name__,
        message=str(exc),
    )
    report.failures.append(failure)
    obs.counter("parallel.task_failures").inc()
    return failure


def _run_one_serial(
    job: Callable,
    item: object,
    index: int,
    policy: RetryPolicy,
    report: MapReport,
    *,
    stage: str = "serial",
    skip_allowed: bool = True,
) -> object:
    """One task's attempt loop in the current process (no timeout).

    Returns the result, the ``_SKIPPED`` sentinel, or raises the task's
    own exception once attempts are exhausted.
    """
    for attempt in range(1, policy.attempts + 1):
        try:
            return job(item)
        except Exception as exc:
            if attempt < policy.attempts:
                report.retries += 1
                obs.counter("parallel.retries").inc()
                delay = policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)
                continue
            _record_failure(report, index, stage, attempt, exc)
            if policy.on_failure == "skip" and skip_allowed:
                report.skipped.append(index)
                obs.counter("parallel.tasks_skipped").inc()
                return _SKIPPED
            raise
    raise AssertionError("unreachable")  # pragma: no cover


def _run_serial(
    job: Callable,
    materialized: Sequence,
    policy: RetryPolicy,
    report: MapReport,
    *,
    stage: str = "serial",
) -> list:
    return [
        _run_one_serial(job, item, index, policy, report, stage=stage)
        for index, item in enumerate(materialized)
    ]


def _degrade_to_serial(
    job: Callable,
    materialized: Sequence,
    policy: RetryPolicy,
    report: MapReport,
    reason: str,
) -> list:
    """Re-run the whole map serially after the pool itself failed.

    Jobs are pure with respect to the caller's observable state (the
    :func:`parallel_map` contract), so the serial rerun yields exactly
    what the parallel run would have — and any error genuinely raised
    by the job surfaces from here with its original type.
    """
    report.degraded = True
    report.degraded_reason = reason
    obs.counter("parallel.pool_failures").inc()
    obs.counter("parallel.degraded_maps").inc()
    return _run_serial(job, materialized, policy, report, stage="serial")


class _PoolAbandoned(Exception):
    """Internal: the pool path gave up; degrade the whole map to serial."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _run_pool(
    job: Callable,
    materialized: Sequence,
    count: int,
    policy: RetryPolicy,
    report: MapReport,
    pool: PersistentPool,
) -> list:
    """Windowed pool scheduler with per-task deadlines and retries.

    At most ``count`` tasks are in flight at once, so a task's deadline
    (submission time + ``policy.timeout``) approximates its running
    time — queued-but-not-started tasks cannot time out spuriously.
    A timed-out future that cannot be cancelled is *abandoned* (its
    worker keeps running; the slot is effectively narrowed until it
    finishes) and the task is retried or failed like any other fault.
    Raises :class:`_PoolAbandoned` when the pool plumbing breaks.

    The map borrows ``pool``'s executor (it does not shut it down),
    stamps submissions for the queue-wait histogram, and answers a
    transport error with :meth:`~repro.runtime.pool.PersistentPool.
    respawn` and every in-flight task re-enqueued — the map survives a
    killed worker on a fresh executor, falling back to the serial
    degrade only once the respawn budget is spent (at once for a
    call-scoped pool, whose budget is zero).  Re-enqueued jobs are pure
    (the :func:`parallel_map` contract), so recovery cannot change
    results.  A timed-out task that is still running when the map ends
    costs the pool its executor: the respawn kills the hung worker
    rather than letting it narrow every later map.
    """
    total = len(materialized)
    results: list = [None] * total
    outstanding: list[tuple[int, int]] = [(i, 1) for i in range(total)]  # (index, attempt)
    outstanding.reverse()  # pop() yields input order
    degrade_serially: list[int] = []
    pending: dict[Future, tuple[int, int, float | None]] = {}
    abandoned: list[Future] = []

    def handle_task_fault(index: int, attempt: int, exc: BaseException) -> None:
        """Retry, skip, queue for serial degrade, or raise — per policy."""
        if attempt < policy.attempts:
            report.retries += 1
            obs.counter("parallel.retries").inc()
            delay = policy.delay(attempt)
            if delay > 0:
                time.sleep(delay)
            outstanding.append((index, attempt + 1))
            return
        if policy.on_failure == "degrade":
            _record_failure(report, index, "pool", attempt, exc)
            degrade_serially.append(index)
            return
        if policy.on_failure == "skip":
            _record_failure(report, index, "pool", attempt, exc)
            report.skipped.append(index)
            obs.counter("parallel.tasks_skipped").inc()
            results[index] = _SKIPPED
            return
        failure = _record_failure(report, index, "pool", attempt, exc)
        if isinstance(exc, TimeoutError):
            raise TaskFailureError(failure) from exc
        raise exc

    def requeue_in_flight(extra: tuple[int, int]) -> None:
        """Push every in-flight task back, descending so pop() ascends."""
        in_flight = [(i, a) for (i, a, _) in pending.values()]
        in_flight.append(extra)
        for future in pending:
            # Swallow the eventual (broken-pool) outcome of futures we
            # are walking away from, as the abandon path does.
            future.add_done_callback(lambda f: None if f.cancelled() else f.exception())
        pending.clear()
        outstanding.extend(sorted(in_flight, key=lambda entry: -entry[0]))

    count = min(count, pool.workers)
    try:
        executor = pool.executor()
    except Exception as exc:
        raise _PoolAbandoned(f"pool unavailable: {type(exc).__name__}: {exc}") from exc
    try:
        while outstanding or pending:
            while outstanding and len(pending) < count:
                index, attempt = outstanding.pop()
                try:
                    future = executor.submit(
                        _QueueTimedJob(job, time.monotonic()), materialized[index]
                    )
                except Exception as exc:
                    raise _PoolAbandoned(
                        f"submission failed: {type(exc).__name__}: {exc}"
                    ) from exc
                deadline = (
                    None if policy.timeout is None else time.monotonic() + policy.timeout
                )
                pending[future] = (index, attempt, deadline)

            deadlines = [d for (_, _, d) in pending.values() if d is not None]
            wait_for = None
            if deadlines:
                wait_for = max(0.0, min(deadlines) - time.monotonic())
            completed, _ = wait(set(pending), timeout=wait_for, return_when=FIRST_COMPLETED)

            for future in completed:
                entry = pending.pop(future, None)
                if entry is None:
                    continue  # re-enqueued wholesale after a respawn
                index, attempt, _ = entry
                try:
                    value = future.result()
                except Exception as exc:
                    if _is_transport_error(exc):
                        if pool.respawn(f"{type(exc).__name__}: {exc}"):
                            requeue_in_flight((index, attempt))
                            executor = pool.executor()
                            break  # siblings in `completed` were re-enqueued
                        raise _PoolAbandoned(f"{type(exc).__name__}: {exc}") from exc
                    handle_task_fault(index, attempt, exc)
                else:
                    queue_wait, results[index] = value
                    obs.histogram("pool.queue_wait_seconds").observe(queue_wait)

            now = time.monotonic()
            for future, (index, attempt, deadline) in list(pending.items()):
                if deadline is None or now < deadline:
                    continue
                pending.pop(future)
                if not future.cancel():  # a running task cannot be cancelled
                    # Retrieve the eventual outcome so an abandoned future
                    # never emits an "exception was never retrieved" warning.
                    future.add_done_callback(
                        lambda f: None if f.cancelled() else f.exception()
                    )
                    abandoned.append(future)
                report.timeouts += 1
                obs.counter("parallel.timeouts").inc()
                handle_task_fault(
                    index,
                    attempt,
                    TimeoutError(
                        f"task {index} exceeded the per-task timeout of "
                        f"{policy.timeout:g}s (attempt {attempt})"
                    ),
                )
    finally:
        if any(not future.done() for future in abandoned):
            pool.respawn("abandoned timed-out task")

    for index in degrade_serially:
        results[index] = _run_one_serial(
            job, materialized[index], index, policy, report, stage="serial"
        )
    return results


def parallel_map(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    *,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    report: MapReport | None = None,
    pool: PersistentPool | None = None,
) -> list[_R]:
    """Map ``fn`` over ``items``, in-process or across a process pool.

    ``fn`` must be pure with respect to the caller's observable state:
    on any pool failure (fork unavailable, unpicklable payloads, a
    worker dying) the whole map is re-run serially, so side effects
    could be applied twice.  Results always come back in input order;
    with ``policy.on_failure == "skip"``, failed tasks' results are
    omitted (consult ``report.skipped`` for their indices).

    ``policy`` governs per-task timeouts, retries with deterministic
    exponential backoff, and exhaustion behaviour; the default retries
    nothing and re-raises task errors unchanged.  ``report`` (a fresh
    :class:`~repro.runtime.resilience.MapReport`) receives the
    structured account of every fault and recovery; the same totals
    land on ``parallel.*`` obs counters either way.  Tasks are
    scheduled individually, so deadlines and retries stay per-task.

    When the ambient tracer is retaining spans, every job — pooled or
    serial, so the trace shape is the same either way — is wrapped in
    :class:`_ObservedJob`; its spans land on per-task rows of the
    parent trace and its metrics merge into the parent registry, both
    in input order.

    ``pool`` (or the ambient pool installed with
    :func:`~repro.runtime.pool.use_pool`) reuses one persistent
    executor across maps; see :mod:`repro.runtime.pool`.  With a pool
    and no explicit ``workers``, the pool's own worker count applies.
    Without one, a pooled map runs on a pool scoped to the call, built
    with no respawn budget: the first broken pool degrades the map to
    serial.  Inside a worker process every map runs serially and
    counts ``parallel.nested_serial`` (no pool is forked from a fork).
    """
    materialized: Sequence[_T] = list(items)
    pool = resolve_pool(pool)
    if workers is None and pool is not None:
        count = pool.workers
    else:
        count = resolve_workers(workers)
    policy = policy if policy is not None else _DEFAULT_POLICY
    report = report if report is not None else MapReport()
    observed = obs.tracer().keep
    job: Callable = _ObservedJob(fn) if observed else fn
    with obs.span("parallel.map", items=len(materialized), workers=count) as sp:
        obs.counter("parallel.maps").inc()
        obs.counter("parallel.tasks").inc(len(materialized))
        if count <= 1 or len(materialized) <= 1:
            raw = _run_serial(job, materialized, policy, report)
        elif in_worker():
            obs.counter("parallel.nested_serial").inc()
            raw = _run_serial(job, materialized, policy, report)
        else:
            scope = (
                nullcontext(pool)
                if pool is not None
                else _CallScopedPool(min(count, len(materialized)))
            )
            try:
                with scope as run_on:
                    raw = _run_pool(job, materialized, count, policy, report, run_on)
            except _PoolAbandoned as abandoned:
                # Pool machinery failed (creation, pickling transport, a
                # dead worker): the jobs themselves are deterministic,
                # so the serial rerun yields what the pool would have.
                # Task errors raised per policy propagate unchanged.
                raw = _degrade_to_serial(
                    job, materialized, policy, report, abandoned.reason
                )
        if report.degraded:
            sp.set(degraded=True)
        if report.failures:
            sp.set(failures=len(report.failures))
        if not observed:
            return [r for r in raw if r is not _SKIPPED]
        # Graft each task's observability while the parallel.map span
        # is still open, so task rows nest under it in the trace.  The
        # lock keeps the ambient read coherent with concurrent
        # in-process captures on other threads.
        results: list[_R] = []
        with _OBSERVED_LOCK:
            tracer = obs.tracer()
            registry = obs.registry()
            for index, entry in enumerate(raw):
                if entry is _SKIPPED:
                    continue
                result, spans, snapshot = entry
                tracer.attach(spans, tid=f"task-{index}")
                registry.merge(snapshot)
                results.append(result)
    return results
