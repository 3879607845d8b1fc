"""The asyncio solve service: admission, scheduling, execution.

:class:`SolveService` is an in-process job queue in front of the solver
stack.  Tenants submit :class:`~repro.service.requests.SolveRequest`
jobs; the service validates them, deduplicates them on request digests,
batches jobs that share warm solver state, and executes them on a
bounded set of worker slots.  The design commitments, in order:

* **Typed backpressure, never unbounded growth.**  Admission is a
  synchronous verdict: a request is either queued, answered from cache,
  joined to an identical in-flight job, or *rejected* with a
  :class:`ServiceRejection` carrying a ``retry_after`` hint.  Nothing
  is silently dropped and no queue grows without bound.
* **Determinism.**  With the default configuration every job's result
  is bit-identical to a direct solve of the same request (see
  ``docs/service.md``): warm :class:`~repro.optimize.family.
  ProblemFamily` cores compile bit-identical matrices (PR 4 contract),
  scipy-backed :class:`~repro.solver.session.SolveSession` objects are
  pass-throughs, and result-cache hits return the originally computed
  object.  Admission order, worker count, and cache state therefore
  cannot change what any tenant gets back.
* **Bounded concurrency.**  ``workers`` asyncio worker tasks each run
  one batch at a time in a thread (solves are sync, CPU-heavy work that
  releases the GIL inside numpy/scipy); per-tenant
  :class:`TenantPolicy` limits cap both queued and running jobs so one
  tenant cannot starve the rest.
* **Deadlines and cancellation.**  A request's relative ``deadline`` is
  measured from admission on the service's injected clock; expired jobs
  fail typed (status ``EXPIRED``) without occupying a worker, and the
  remaining budget is propagated into the solver
  :class:`~repro.runtime.resilience.RetryPolicy` timeout and the
  per-solve ``time_limit``.  Cancelling a pending job releases its
  queue slot immediately.
* **Structured failure.**  Deterministic solver verdicts
  (:class:`~repro.errors.ReproError` — infeasible, invalid) fail
  immediately; transient faults (anything else, including injected
  ones) are retried with deterministic backoff up to
  ``max_retries`` and then reported as a structured
  :class:`~repro.runtime.resilience.TaskFailure`.

Every stage lands on ``service.*`` counters, gauges, and histograms so
queue depth, latency, and cache behaviour are observable through
:mod:`repro.obs` — the load generator reads exact per-job latencies
from its own records and the service's aggregates from the registry.
"""

from __future__ import annotations

import asyncio
import enum
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any

from repro import obs
from repro.core.model import SystemModel
from repro.errors import ReproError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.obs.clock import Clock, SystemClock
from repro.optimize.frontier import exact_frontier
from repro.optimize.pareto import budget_sweep
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.runtime import faults
from repro.runtime.resilience import RetryPolicy, TaskFailure
from repro.service.cache import CacheEntry, ResultCache, SessionCache, _session_key
from repro.service.requests import (
    JobKind,
    RequestValidationError,
    SolveRequest,
    model_digest,
    request_digest,
)

__all__ = [
    "JobHandle",
    "JobResult",
    "JobStatus",
    "QueueFullRejection",
    "ServiceClosedRejection",
    "ServiceConfig",
    "ServiceRejection",
    "SolveService",
    "TenantBusyRejection",
    "TenantPolicy",
]

#: Bucket bounds for the batch-size histogram (jobs per worker slot).
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Most jobs one worker slot executes back-to-back against one warm
#: cache entry.
_BATCH_LIMIT = 8

#: Completed results kept per tenant by the result cache.
_RESULT_CACHE_ENTRIES = 256


# ----------------------------------------------------------------------
# admission verdicts
# ----------------------------------------------------------------------


class ServiceRejection(ReproError):
    """Admission refused; carries a ``retry_after`` hint in seconds.

    Backpressure is always *typed*: the caller learns exactly why the
    request did not enter the queue and roughly when to try again —
    the alternative (an unbounded queue, or a silent drop) hides
    overload until it is an outage.
    """

    def __init__(self, message: str, retry_after: float):
        super().__init__(f"{message} (retry after ~{retry_after:.2f}s)")
        self.retry_after = retry_after


class QueueFullRejection(ServiceRejection):
    """The service-wide pending queue is at its bound."""


class TenantBusyRejection(ServiceRejection):
    """The submitting tenant is at its own pending bound."""


class ServiceClosedRejection(ServiceRejection):
    """The service is closed (or closing) and admits nothing."""

    def __init__(self) -> None:
        super().__init__("the service is closed", retry_after=0.0)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TenantPolicy:
    """Per-tenant admission and concurrency limits.

    ``max_running`` counts *worker slots* (a batch of family-shared
    jobs occupies one slot), so a tenant flooding cheap jobs cannot
    monopolize the worker set; ``max_pending`` bounds that tenant's
    share of the queue.
    """

    max_running: int = 2
    max_pending: int = 16

    def __post_init__(self) -> None:
        if self.max_running < 1:
            raise ReproError(f"max_running must be >= 1, got {self.max_running!r}")
        if self.max_pending < 1:
            raise ReproError(f"max_pending must be >= 1, got {self.max_pending!r}")


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`SolveService` can be tuned with.

    Parameters
    ----------
    workers:
        Worker slots — batches executing concurrently (each in a
        thread via ``asyncio.to_thread``).
    queue_limit:
        Service-wide bound on pending jobs; admission past it returns
        :class:`QueueFullRejection`.
    default_policy:
        Per-tenant limits, the same for every tenant.
    max_retries:
        Extra attempts for *transient* job faults (deterministic
        :class:`~repro.errors.ReproError` verdicts never retry).
    backoff_base / backoff_cap:
        Deterministic exponential backoff between retries, as on
        :class:`~repro.runtime.resilience.RetryPolicy` (0 disables
        sleeping — the default keeps tests and benchmarks fast; the
        schedule is still deterministic).
    presolve:
        Route solves through the exact presolve pipeline.  Off by
        default: presolve can legitimately break ties between equally
        optimal deployments, which would violate the service's
        bit-identity contract against direct no-presolve oracles —
        opt in when warm-solve throughput matters more (objectives and
        statuses stay exact either way; see ``docs/service.md``).
    cache_max_bytes / cache_idle_ttl:
        Bounds for the :class:`~repro.service.cache.SessionCache`.
    clock:
        Injected time source for admission stamps, deadlines, and
        latency metrics (tests drive a
        :class:`~repro.obs.clock.ManualClock`).
    """

    workers: int = 2
    queue_limit: int = 64
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)
    max_retries: int = 1
    backoff_base: float = 0.0
    backoff_cap: float = 2.0
    presolve: bool = False
    cache_max_bytes: int = 64 << 20
    cache_idle_ttl: float | None = None
    clock: Clock | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {self.workers!r}")
        if self.queue_limit < 1:
            raise ReproError(f"queue_limit must be >= 1, got {self.queue_limit!r}")
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries!r}")


# ----------------------------------------------------------------------
# job records
# ----------------------------------------------------------------------


class JobStatus(enum.Enum):
    """Lifecycle of one submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EXPIRED = "expired"


#: Statuses a job can end in.
TERMINAL_STATUSES = frozenset(
    {JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED, JobStatus.EXPIRED}
)


@dataclass(frozen=True)
class JobResult:
    """How one job ended, with the payload or the structured failure.

    ``value`` is the raw solver payload — an
    :class:`~repro.optimize.deployment.OptimizationResult`, a list of
    :class:`~repro.optimize.pareto.SweepPoint`, or a list of
    :class:`~repro.optimize.frontier.FrontierPoint` — exactly the
    object a direct call would have returned (cache hits return the
    originally computed object itself).
    """

    status: JobStatus
    tenant: str
    kind: JobKind
    digest: str
    job_id: str | None = None
    value: Any = None
    failure: TaskFailure | None = None
    #: Answered from the result cache without touching the queue.
    cached: bool = False
    #: Joined to an identical in-flight job (shared one execution).
    deduped: bool = False
    attempts: int = 0
    queue_seconds: float = 0.0
    run_seconds: float = 0.0
    #: Deadline budget left when execution started (None = no deadline).
    deadline_remaining: float | None = None

    @property
    def ok(self) -> bool:
        return self.status is JobStatus.SUCCEEDED


class JobHandle:
    """The caller's view of one submitted job.

    Await the handle (or its :attr:`future`) for the terminal
    :class:`JobResult`; the future never raises on job failure — failed
    jobs resolve to a ``FAILED`` result carrying the structured
    :class:`~repro.runtime.resilience.TaskFailure` — so awaiting a
    fleet of handles needs no per-handle exception plumbing.

    ``key`` is the job's session-cache key, ``(tenant, model digest,
    weights, backend, presolve)``, built once at admission: jobs with
    equal keys batch onto one warm cache entry.
    """

    __slots__ = (
        "request",
        "digest",
        "key",
        "future",
        "admitted_at",
        "status",
        "cancel_requested",
        "_service",
    )

    def __init__(
        self,
        service: "SolveService",
        request: SolveRequest,
        digest: str,
        key: tuple,
        future: "asyncio.Future[JobResult]",
        admitted_at: float,
    ):
        self._service = service
        self.request = request
        self.digest = digest
        self.key = key
        self.future = future
        self.admitted_at = admitted_at
        self.status = JobStatus.PENDING
        self.cancel_requested = False

    def __await__(self):
        return self.future.__await__()

    @property
    def done(self) -> bool:
        return self.future.done()

    def cancel(self) -> bool:
        """Cancel this job if it has not started; see ``SolveService.cancel``."""
        return self._service.cancel(self)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------


class SolveService:
    """Async multi-tenant front over the warm solver stack.

    Typical use::

        config = ServiceConfig(workers=4)
        async with SolveService(config) as service:
            handle = service.submit(request)
            result = await handle

    ``submit`` must be called from the event-loop thread (it is a
    synchronous admission verdict, not a coroutine, so rejection is
    immediate and typed).  The service may also be constructed idle and
    started explicitly with :meth:`start` — jobs submitted before then
    queue up, which is how the deadline tests drive expiry with a
    :class:`~repro.obs.clock.ManualClock` and zero wall-clock sleeps.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self._clock = self.config.clock or SystemClock()
        self.sessions = SessionCache(
            max_bytes=self.config.cache_max_bytes,
            idle_ttl=self.config.cache_idle_ttl,
            clock=self._clock,
        )
        self.results = ResultCache(max_entries=_RESULT_CACHE_ENTRIES)
        self._models: dict[str, SystemModel] = {}
        self._pending: deque[JobHandle] = deque()
        self._pending_per_tenant: dict[str, int] = {}
        self._running_per_tenant: dict[str, int] = {}
        self._inflight: dict[tuple[str, str], JobHandle] = {}
        self._cond: asyncio.Condition | None = None
        self._workers: list[asyncio.Task[None]] = []
        self._running_batches = 0
        self._started = False
        self._closed = False
        #: EWMA of recent per-job run seconds, feeding retry_after hints.
        self._ewma_seconds = 0.0

    # -- lifecycle ---------------------------------------------------------

    async def __aenter__(self) -> "SolveService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    def _condition(self) -> asyncio.Condition:
        if self._cond is None:
            self._cond = asyncio.Condition()
        return self._cond

    async def start(self) -> None:
        """Spawn the worker tasks (idempotent)."""
        if self._started:
            return
        if self._closed:
            raise ServiceClosedRejection()
        self._started = True
        loop = asyncio.get_running_loop()
        self._condition()
        self._workers = [
            loop.create_task(self._worker(), name=f"solve-service-worker-{i}")
            for i in range(self.config.workers)
        ]

    async def drain(self) -> None:
        """Wait until no job is pending or running."""
        cond = self._condition()
        async with cond:
            await cond.wait_for(
                lambda: not self._pending and self._running_batches == 0
            )

    async def aclose(self, *, drain: bool = True) -> None:
        """Stop the service; with ``drain`` finish queued work first.

        Without ``drain``, still-pending jobs resolve as ``CANCELLED``
        (their futures complete — nothing is left dangling); running
        batches always finish either way, since a thread mid-solve
        cannot be preempted.
        """
        if self._started and drain and not self._closed:
            await self.drain()
        self._closed = True
        cond = self._condition()
        async with cond:
            while self._pending:
                handle = self._pending.popleft()
                self._note_unqueued(handle)
                self._finish(handle, self._terminal(handle, JobStatus.CANCELLED))
                obs.counter("service.jobs.cancelled").inc()
            cond.notify_all()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
            self._workers = []

    # -- models ------------------------------------------------------------

    def publish_model(self, model: SystemModel) -> str:
        """Register a model for by-reference submission; returns its digest."""
        digest = model_digest(model)
        self._models.setdefault(digest, model)
        obs.counter("service.models.published").inc()
        return digest

    def _resolve_model(self, request: SolveRequest) -> SystemModel:
        if request.model is not None:
            return request.model
        model = self._models.get(request.model_ref or "")
        if model is None:
            raise RequestValidationError(
                [f"unknown model_ref {request.model_ref!r}; publish the model first"]
            )
        return model

    # -- admission ---------------------------------------------------------

    def submit(self, request: SolveRequest) -> JobHandle:
        """Admit one request: queue it, answer it, join it, or reject it.

        Raises
        ------
        RequestValidationError
            The request is malformed (every problem listed) or names an
            unpublished ``model_ref``.
        ServiceRejection
            Typed backpressure: the service is closed, the global queue
            is full, or the tenant is at its pending bound.  The
            exception's ``retry_after`` estimates when capacity frees.
        """
        if self._closed:
            obs.counter("service.jobs.rejected.closed").inc()
            raise ServiceClosedRejection()
        request.validate()
        model = self._resolve_model(request)
        mdigest = model_digest(model)
        digest = request_digest(request, mdigest)
        key = _session_key(
            request.tenant, mdigest, request.weights, request.backend, self.config.presolve
        )
        loop = asyncio.get_running_loop()
        now = self._clock.now()
        future: asyncio.Future[JobResult] = loop.create_future()
        handle = JobHandle(self, request, digest, key, future, now)
        obs.counter("service.jobs.submitted").inc()

        cached = self.results.get(request.tenant, digest)
        if cached is not None:
            self._finish(
                handle,
                JobResult(
                    status=JobStatus.SUCCEEDED,
                    tenant=request.tenant,
                    kind=request.kind,
                    digest=digest,
                    job_id=request.job_id,
                    value=cached,
                    cached=True,
                ),
            )
            obs.counter("service.jobs.cache_answered").inc()
            return handle

        primary = self._inflight.get((request.tenant, digest))
        if primary is not None and not primary.future.done():
            self._join(primary, handle)
            obs.counter("service.jobs.deduped").inc()
            return handle

        pending = len(self._pending)
        if pending >= self.config.queue_limit:
            obs.counter("service.jobs.rejected.queue_full").inc()
            raise QueueFullRejection(
                f"pending queue is full ({pending}/{self.config.queue_limit})",
                retry_after=self._retry_after(pending),
            )
        policy = self.config.default_policy
        tenant_pending = self._pending_per_tenant.get(request.tenant, 0)
        if tenant_pending >= policy.max_pending:
            obs.counter("service.jobs.rejected.tenant_busy").inc()
            raise TenantBusyRejection(
                f"tenant {request.tenant!r} has {tenant_pending} pending jobs "
                f"(bound {policy.max_pending})",
                retry_after=self._retry_after(tenant_pending),
            )

        self._pending.append(handle)
        self._pending_per_tenant[request.tenant] = tenant_pending + 1
        self._inflight[(request.tenant, digest)] = handle
        self._publish_queue_depth()
        cond = self._cond
        if cond is not None:
            # Wake a waiting worker without blocking admission.
            loop.create_task(self._notify(cond))
        return handle

    def cancel(self, handle: JobHandle) -> bool:
        """Cancel a pending job (``True``) or flag a running one (``False``).

        A pending job leaves the queue immediately — its slot is
        released and its future resolves ``CANCELLED``.  A job already
        executing in a worker thread cannot be preempted; the flag
        makes any *batched* jobs behind it in the same slot (and any
        retries) observe the cancellation at the next boundary.
        """
        if handle.future.done():
            return False
        if handle.status is JobStatus.PENDING:
            try:
                self._pending.remove(handle)
            except ValueError:
                # Raced with a worker picking it up; fall through to
                # the running-job path.
                pass
            else:
                self._note_unqueued(handle)
                self._finish(handle, self._terminal(handle, JobStatus.CANCELLED))
                obs.counter("service.jobs.cancelled").inc()
                self._publish_queue_depth()
                return True
        handle.cancel_requested = True
        return False

    # -- scheduling --------------------------------------------------------

    async def _notify(self, cond: asyncio.Condition) -> None:
        async with cond:
            cond.notify_all()

    def _admissible(self, handle: JobHandle) -> bool:
        running = self._running_per_tenant.get(handle.request.tenant, 0)
        return running < self.config.default_policy.max_running

    def _next_batch(self) -> list[JobHandle] | None:
        """Pop the next admissible job plus its family cohort (or None).

        Caller holds the condition lock.  Head-of-line skip: a job
        whose tenant is at its running bound does not block other
        tenants' jobs behind it.  The cohort is every later pending job
        sharing the head job's cache-entry key — they run back-to-back
        in one slot against one warm family, preserving per-job results
        exactly (each job is still its own solve).
        """
        head = None
        for candidate in self._pending:
            if self._admissible(candidate):
                head = candidate
                break
        if head is None:
            return None
        self._pending.remove(head)
        batch = [head]
        cohort = [h for h in self._pending if h.key == head.key][: _BATCH_LIMIT - 1]
        for h in cohort:
            self._pending.remove(h)
            batch.append(h)
        tenant = head.request.tenant
        for h in batch:
            h.status = JobStatus.RUNNING
            self._note_unqueued(h, running=True)
        self._running_per_tenant[tenant] = self._running_per_tenant.get(tenant, 0) + 1
        self._running_batches += 1
        self._publish_queue_depth()
        obs.histogram("service.batch_size", _BATCH_BUCKETS).observe(float(len(batch)))
        return batch

    async def _worker(self) -> None:
        cond = self._condition()
        while True:
            async with cond:
                await cond.wait_for(
                    lambda: self._closed
                    or any(self._admissible(h) for h in self._pending)
                )
                if self._closed and not self._pending:
                    return
                batch = self._next_batch()
            if batch is None:
                continue
            try:
                outcomes = await asyncio.to_thread(self._run_batch, batch)
            finally:
                tenant = batch[0].request.tenant
                async with cond:
                    self._running_per_tenant[tenant] = max(
                        0, self._running_per_tenant.get(tenant, 0) - 1
                    )
                    self._running_batches -= 1
                    cond.notify_all()
            for handle, result in outcomes:
                self._finish(handle, result)

    # -- execution (worker thread) -----------------------------------------

    def _run_batch(
        self, batch: list[JobHandle]
    ) -> list[tuple[JobHandle, JobResult]]:
        """Execute a batch against one warm cache entry, job by job."""
        tenant, mdigest, weights, backend, presolve = batch[0].key
        entry = self.sessions.checkout(
            tenant,
            self._resolve_model(batch[0].request),
            mdigest,
            weights,
            backend,
            presolve=presolve,
        )
        outcomes: list[tuple[JobHandle, JobResult]] = []
        with entry.lock:
            for handle in batch:
                outcomes.append((handle, self._run_job(entry, handle)))
        self.sessions.note_bytes(entry)
        return outcomes

    def _run_job(self, entry: CacheEntry, handle: JobHandle) -> JobResult:
        request = handle.request
        started = self._clock.now()
        queue_seconds = max(0.0, started - handle.admitted_at)
        obs.histogram("service.queue_wait_seconds").observe(queue_seconds)
        if handle.cancel_requested:
            obs.counter("service.jobs.cancelled").inc()
            return self._terminal(handle, JobStatus.CANCELLED, queue_seconds=queue_seconds)

        remaining: float | None = None
        if request.deadline is not None:
            remaining = request.deadline - queue_seconds
            if remaining <= 0.0:
                obs.counter("service.jobs.expired").inc()
                failure = TaskFailure(
                    index=0,
                    stage="deadline",
                    attempts=0,
                    error_type="DeadlineExpired",
                    message=(
                        f"deadline of {request.deadline:.3f}s expired "
                        f"{-remaining:.3f}s before execution"
                    ),
                )
                return self._terminal(
                    handle,
                    JobStatus.EXPIRED,
                    failure=failure,
                    queue_seconds=queue_seconds,
                )

        policy = RetryPolicy(
            timeout=remaining,
            max_retries=self.config.max_retries,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
        )
        attempts = 0
        failure: TaskFailure | None = None
        value: Any = None
        status = JobStatus.SUCCEEDED
        while True:
            attempts += 1
            try:
                with obs.span(
                    "service.execute",
                    tenant=request.tenant,
                    kind=request.kind.value,
                    attempt=attempts,
                ):
                    faults.poke(request.site)
                    value = self._dispatch(entry, request, policy)
                break
            except ReproError as exc:
                # A deterministic verdict about the problem (infeasible,
                # invalid) — retrying cannot change it.
                obs.counter("service.jobs.verdict_failures").inc()
                failure = TaskFailure(
                    index=0,
                    stage="service",
                    attempts=attempts,
                    error_type=type(exc).__name__,
                    message=str(exc),
                )
                status = JobStatus.FAILED
                break
            except Exception as exc:
                # Transient fault (worker crash, injected error, ...):
                # retry on the deterministic backoff schedule, then
                # report structured failure.
                obs.counter("service.jobs.transient_faults").inc()
                if handle.cancel_requested or attempts >= policy.attempts:
                    failure = TaskFailure(
                        index=0,
                        stage="service",
                        attempts=attempts,
                        error_type=type(exc).__name__,
                        message=str(exc),
                    )
                    status = JobStatus.FAILED
                    break
                obs.counter("service.jobs.retries").inc()
                backoff = policy.delay(attempts)
                if backoff > 0:
                    time.sleep(backoff)

        run_seconds = max(0.0, self._clock.now() - started)
        obs.histogram("service.latency_seconds").observe(queue_seconds + run_seconds)
        self._ewma_seconds = (
            run_seconds
            if self._ewma_seconds == 0.0
            else 0.8 * self._ewma_seconds + 0.2 * run_seconds
        )
        if status is JobStatus.SUCCEEDED:
            obs.counter("service.jobs.completed").inc()
            self.results.put(request.tenant, handle.digest, value)
        else:
            obs.counter("service.jobs.failed").inc()
        return JobResult(
            status=status,
            tenant=request.tenant,
            kind=request.kind,
            digest=handle.digest,
            job_id=request.job_id,
            value=value,
            failure=failure,
            attempts=attempts,
            queue_seconds=queue_seconds,
            run_seconds=run_seconds,
            deadline_remaining=remaining,
        )

    def _dispatch(
        self, entry: CacheEntry, request: SolveRequest, policy: RetryPolicy
    ) -> Any:
        """Run one request against the entry's warm family and session."""
        model = entry.model
        weights = request.weights or UtilityWeights()
        time_limit = request.time_limit
        if policy.timeout is not None:
            time_limit = (
                policy.timeout
                if time_limit is None
                else min(time_limit, policy.timeout)
            )
        kind = request.kind
        if kind is JobKind.MAX_UTILITY:
            budget = (
                Budget(request.budget_limits)
                if request.budget_limits is not None
                else Budget.fraction_of_total(model, request.budget_fraction or 0.0)
            )
            problem = MaxUtilityProblem(
                model,
                budget,
                weights,
                forced_monitors=request.forced_monitors,
                max_monitors=request.max_monitors,
                family=entry.family,
            )
            return problem.solve(
                request.backend,
                time_limit=time_limit,
                session=entry.session,
                max_nodes=request.max_nodes,
                gap=request.gap,
            )
        if kind is JobKind.MIN_COST:
            problem = MinCostProblem(
                model,
                min_utility=request.min_utility,
                fully_cover=request.fully_cover,
                weights=weights,
            )
            return problem.solve(
                request.backend,
                time_limit=time_limit,
                session=entry.session,
                max_nodes=request.max_nodes,
                gap=request.gap,
            )
        if kind is JobKind.SWEEP:
            return budget_sweep(
                model,
                list(request.fractions),
                weights,
                backend=request.backend,
                time_limit=time_limit,
                workers=1,
                presolve=self.config.presolve,
                session=entry.session,
                max_nodes=request.max_nodes,
                gap=request.gap,
                family=entry.family,
            )
        if kind is JobKind.FRONTIER:
            return exact_frontier(
                model,
                weights,
                backend=request.backend,
                epsilon=request.epsilon,
                max_points=request.max_points,
                time_limit=time_limit,
                presolve=self.config.presolve,
                max_nodes=request.max_nodes,
                gap=request.gap,
            )
        raise RequestValidationError([f"unhandled job kind {kind!r}"])

    # -- bookkeeping -------------------------------------------------------

    def _terminal(
        self,
        handle: JobHandle,
        status: JobStatus,
        *,
        failure: TaskFailure | None = None,
        queue_seconds: float = 0.0,
    ) -> JobResult:
        return JobResult(
            status=status,
            tenant=handle.request.tenant,
            kind=handle.request.kind,
            digest=handle.digest,
            job_id=handle.request.job_id,
            failure=failure,
            queue_seconds=queue_seconds,
        )

    def _join(self, primary: JobHandle, follower: JobHandle) -> None:
        """Resolve ``follower`` from ``primary``'s eventual result."""

        def _propagate(done: "asyncio.Future[JobResult]") -> None:
            if follower.future.done():
                return
            result = done.result()
            follower.status = result.status
            follower.future.set_result(
                replace(result, job_id=follower.request.job_id, deduped=True)
            )

        primary.future.add_done_callback(_propagate)

    def _finish(self, handle: JobHandle, result: JobResult) -> None:
        handle.status = result.status
        self._inflight.pop((handle.request.tenant, handle.digest), None)
        if not handle.future.done():
            handle.future.set_result(result)

    def _note_unqueued(self, handle: JobHandle, *, running: bool = False) -> None:
        tenant = handle.request.tenant
        count = self._pending_per_tenant.get(tenant, 0) - 1
        if count <= 0:
            self._pending_per_tenant.pop(tenant, None)
        else:
            self._pending_per_tenant[tenant] = count
        if not running:
            self._inflight.pop((tenant, handle.digest), None)

    def _retry_after(self, depth: int) -> float:
        per_job = max(self._ewma_seconds, 0.05)
        return max(0.05, depth * per_job / max(1, self.config.workers))

    def _publish_queue_depth(self) -> None:
        obs.gauge("service.queue_depth").set(float(len(self._pending)))

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Structural snapshot for the protocol's ``stats`` op and tests."""
        return {
            "pending": len(self._pending),
            "running_batches": self._running_batches,
            "workers": self.config.workers,
            "closed": self._closed,
            "models": len(self._models),
            "sessions": self.sessions.snapshot(),
            "results": len(self.results),
        }
