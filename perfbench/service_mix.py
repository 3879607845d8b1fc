"""service_mix: open-loop mixed traffic through the ``repro serve`` protocol.

A Poisson arrival schedule at one fixed offered rate drives a
``LineServer`` over in-memory ``readline``/``writeline``, in front of
``SolveService(workers=2)`` on the F13 100-monitor model.  The rate puts
ten cold replies past the cold p90 of one window and keeps the workers
busy about 8% of the time, so queueing stays rare even when a shared
host runs the solves several times slower.  One asyncio
thread runs both the generator and the server.  Four tenants send all
four job kinds; budget parameters are distinct values on a continuous
range, so fresh requests miss the result cache but hit their tenant's
warm session, and a fixed share of requests repeats an earlier one,
which exercises the result cache and in-flight dedup.  This is the only
workload that crosses admission, queueing, batching, both caches and
protocol encode/decode.

Open-loop discipline: the schedule and the traffic are a pure function
of ``--seed`` (which draws the repeated requests; the fresh ones are
pinned, see :func:`traffic`); latency runs from each request's *scheduled* send time,
so a stall is charged to every request queued behind it; rejections
and expiries count as failed and are never retried.

Latency is split into cold replies (the service executed a solve) and
warm ones (answered from the result cache or by joining an identical
in-flight job), so a cache change and a solver change each show on
their own metric.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any

import common
import repro.service.protocol as protocol
from repro import obs
from repro.casestudy import synthetic_model
from repro.core.model import SystemModel
from repro.core.serialization import model_to_dict
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.frontier import exact_frontier
from repro.optimize.pareto import budget_sweep
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.service import ServiceConfig, SolveService

NAME = "service_mix"
WEIGHTS = UtilityWeights()
WORKERS = 2
TENANTS = 4
#: Share of requests that repeat an earlier request of the same tenant.
REPEAT_SHARE = 0.4
#: Generous relative deadline: only a stalled service expires jobs.
DEADLINE = 10.0
#: Kind mix of fresh requests, weighted to the cheap single solve.
KIND_SHARES = (("max-utility", 0.65), ("sweep", 0.15), ("min-cost", 0.15), ("frontier", 0.05))
FRONTIER_POINTS = 6
#: Seed of the warm-up requests' positions.
WARMUP_SEED = 20160627
#: Seed of the pinned stream of fresh requests: order, tenants, times.
ORDER_SEED = 20160628
#: Head start before the first scheduled send.
LEAD = 0.05


@dataclass(frozen=True)
class Scale:
    model: dict
    #: Offered requests per second.
    rate: float


SCALES = {
    # The F13 service-throughput model.
    "full": Scale(model=dict(monitors=100, attacks=50, seed=7), rate=7.0),
    "tiny": Scale(model=dict(assets=8, monitors=12, attacks=8, seed=7), rate=10.0),
}


@dataclass
class State:
    model: SystemModel
    ceiling: float
    seed: int
    scale: Scale
    loop: asyncio.AbstractEventLoop
    service: SolveService
    model_ref: str
    #: Answer digest per :func:`request_key`, from ``expected.json``.
    recorded: dict[str, str]


@dataclass
class Exchange:
    """One open-loop window: what was sent when, and every reply line."""

    origin: float
    sent: dict[str, dict] = field(default_factory=dict)  # id -> submit payload
    due: dict[str, float] = field(default_factory=dict)  # id -> scheduled send time
    lateness: list[float] = field(default_factory=list)
    replies: list[tuple[float, str]] = field(default_factory=list)


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------


def _request(kind: str, u: float, ceiling: float) -> dict[str, Any]:
    """The request of ``kind`` at position ``u`` in [0, 1) of its range.

    ``ceiling`` is the model's all-monitors utility.  Budgets under 0.5
    and floors over a quarter of the ceiling are left out: HiGHS times
    there swing between 0.1 and 0.6 s from one value to the next, so a
    handful of them would decide the cold p90, and the queueing they
    cause would decide the rest.
    """
    request: dict[str, Any] = {"kind": kind}
    if kind == "max-utility":
        request["budget_fraction"] = 0.5 + 0.4 * u
    elif kind == "sweep":
        # A third of the range apart, wrapping: distinct u give distinct pairs.
        request["fractions"] = sorted((0.5 + 0.4 * u, 0.5 + 0.4 * ((u + 1 / 3) % 1.0)))
    elif kind == "min-cost":
        request["min_utility"] = ceiling * (0.05 + 0.2 * u)
    else:
        request["max_points"] = FRONTIER_POINTS
    return request


def _grid(n: int) -> list[float]:
    """``n`` evenly spaced values in (0, 1): the midpoints of ``n`` equal strata."""
    return [(i + 0.5) / n for i in range(n)]


def fresh_requests(count: int, ceiling: float) -> list[dict[str, Any]]:
    """The fresh requests of a window of ``count`` arrivals, tenant-free.

    Kinds follow :data:`KIND_SHARES` exactly and each kind's parameters
    sit on an even grid over its range, so every request is distinct
    and the set depends only on ``count``: every run of one length
    offers the same work, and every answer has a recorded digest.
    """
    fresh = count - round(REPEAT_SHARE * count)
    kinds = [kind for kind, share in KIND_SHARES for _ in range(round(share * fresh))]
    kinds = (kinds + ["max-utility"] * fresh)[:fresh]
    return [
        _request(kind, u, ceiling) for kind in dict.fromkeys(kinds) for u in _grid(kinds.count(kind))
    ]


def traffic(
    seed: int, rate: float, seconds: float, ceiling: float
) -> list[tuple[float, dict[str, Any]]]:
    """The seeded arrival schedule: ``(offset seconds, request)`` pairs.

    ``rate * seconds`` arrivals at uniform random times, which is a
    Poisson process conditioned on its count, made of two independent
    streams.  The :func:`fresh_requests` arrive on a pinned stream, the
    same for every seed: their order, tenants (spread evenly) and times.
    The seed draws the other stream, the :data:`REPEAT_SHARE` of the
    arrivals that copy a random earlier request, tenant included: when
    each arrives and what it copies.  A seeded fresh stream moved the
    cold p90 by a fifth between seeds of the same code, because a solve's
    time depends on what its warm session solved before and on whether
    the other worker was solving at the same moment.
    """
    count = max(1, round(rate * seconds))
    requests = fresh_requests(count, ceiling)
    pinned = random.Random(ORDER_SEED)
    pinned.shuffle(requests)
    tenants = [f"tenant-{i % TENANTS}" for i in range(len(requests))]
    pinned.shuffle(tenants)
    fresh_at = sorted(pinned.uniform(0.0, seconds) for _ in requests)
    rng = random.Random(seed)
    repeat_at = [rng.uniform(fresh_at[0], seconds) for _ in range(count - len(requests))]
    fresh = [(at, 0, dict(r, tenant=t)) for at, r, t in zip(fresh_at, requests, tenants)]
    events = sorted(fresh + [(at, 1, None) for at in repeat_at], key=lambda event: event[:2])
    schedule: list[tuple[float, dict[str, Any]]] = []
    for at, _, request in events:
        if request is None:
            request = dict(schedule[rng.randrange(len(schedule))][1])
        schedule.append((at, request))
    return schedule


def warmup_requests(ceiling: float) -> list[dict[str, Any]]:
    """One request of every kind per tenant, the same for every seed.

    Random positions from a fixed stream stay off the traffic's grid, so
    warm-up answers never turn a measured request into a cache hit.
    """
    rng = random.Random(WARMUP_SEED)
    return [
        dict(_request(kind, rng.random(), ceiling), tenant=f"tenant-{index}")
        for index in range(TENANTS)
        for kind, _ in KIND_SHARES
    ]


def _submit_line(job_id: str, request: dict[str, Any], model_ref: str) -> str:
    payload = dict(request, model_ref=model_ref, job_id=job_id, deadline=DEADLINE)
    return json.dumps({"op": "submit", "id": job_id, "request": payload})


# ----------------------------------------------------------------------
# driving the line server
# ----------------------------------------------------------------------


async def _exchange(
    service: SolveService, schedule: list[tuple[float, str, dict]]
) -> Exchange:
    """Feed ``(offset, id, line)`` lines at their offsets; collect replies."""
    server = protocol.LineServer(service)
    inbox: asyncio.Queue[str | None] = asyncio.Queue()
    exchange = Exchange(origin=time.perf_counter() + LEAD)

    async def readline() -> str | None:
        return await inbox.get()

    async def writeline(line: str) -> None:
        exchange.replies.append((time.perf_counter(), line))

    serving = asyncio.ensure_future(server.serve(readline, writeline))
    try:
        for at, msg_id, line in schedule:
            due = exchange.origin + at
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            exchange.lateness.append(time.perf_counter() - due)
            exchange.due[msg_id] = due
            inbox.put_nowait(line)
    finally:
        inbox.put_nowait(None)
        await serving
    return exchange


async def _start(model: SystemModel, ceiling: float) -> tuple[SolveService, str]:
    service = SolveService(ServiceConfig(workers=WORKERS))
    await service.start()
    publish = json.dumps({"op": "publish", "id": "publish", "model": model_to_dict(model)})
    reply = json.loads((await _exchange(service, [(0.0, "publish", publish)])).replies[0][1])
    if not reply.get("ok"):
        raise RuntimeError(f"model publish failed: {reply}")
    ref = reply["model_ref"]
    warmup = [
        (0.0, f"warmup-{i}", _submit_line(f"warmup-{i}", request, ref))
        for i, request in enumerate(warmup_requests(ceiling))
    ]
    for _, line in (await _exchange(service, warmup)).replies:
        message = json.loads(line)
        status = message.get("result", {}).get("status", "succeeded")
        if not message.get("ok") or status != "succeeded":
            raise RuntimeError(f"warm-up request failed: {message}")
    return service, ref


def setup(seed: int, scale: str) -> State:
    config = SCALES[scale]
    model = synthetic_model(**config.model)
    ceiling = utility(model, model.monitors, WEIGHTS)
    recorded = common.expected(NAME, scale)["digests"]
    loop = asyncio.new_event_loop()
    try:
        service, ref = loop.run_until_complete(_start(model, ceiling))
    except BaseException:
        loop.close()
        raise
    return State(
        model=model, ceiling=ceiling, seed=seed, scale=config, loop=loop, service=service,
        model_ref=ref, recorded=recorded,
    )


def teardown(state: State) -> None:
    try:
        state.loop.run_until_complete(state.service.aclose())
        state.loop.run_until_complete(state.loop.shutdown_default_executor())
    finally:
        state.loop.close()


def window(state: State, seconds: float) -> Exchange:
    schedule = []
    sent = {}
    for index, (at, request) in enumerate(
        traffic(state.seed, state.scale.rate, seconds, state.ceiling)
    ):
        job_id = f"job-{index}"
        sent[job_id] = request
        schedule.append((at, job_id, _submit_line(job_id, request, state.model_ref)))
    exchange = state.loop.run_until_complete(_exchange(state.service, schedule))
    exchange.sent = sent
    return exchange


# ----------------------------------------------------------------------
# answers
# ----------------------------------------------------------------------


@dataclass
class Reply:
    job_id: str
    request: dict
    due: float
    accepted: bool = False
    rejected: bool = False
    done: float | None = None
    result: dict | None = None

    @property
    def ok(self) -> bool:
        return self.accepted and self.result is not None and self.result["status"] == "succeeded"

    @property
    def warm(self) -> bool:
        return bool(self.result and (self.result["cached"] or self.result["deduped"]))

    @property
    def latency(self) -> float:
        assert self.done is not None
        return self.done - self.due


def collate(exchange: Exchange) -> list[Reply]:
    replies = {
        job_id: Reply(job_id, request, exchange.due[job_id])
        for job_id, request in exchange.sent.items()
    }
    for stamp, line in exchange.replies:
        message = json.loads(line)
        reply = replies[message["id"]]
        if "result" in message:
            reply.result, reply.done = message["result"], stamp
        elif message.get("ok"):
            reply.accepted = True
        else:
            reply.rejected = message["error"]["type"].endswith("Rejection")
    return list(replies.values())


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def direct_value(model: SystemModel, request: dict) -> Any:
    """The same request solved directly, serialized like a reply."""
    kind = request["kind"]
    if kind == "max-utility":
        budget = Budget.fraction_of_total(model, request["budget_fraction"])
        value = MaxUtilityProblem(model, budget, WEIGHTS).solve("scipy")
    elif kind == "sweep":
        value = budget_sweep(model, request["fractions"], WEIGHTS, workers=1)
    elif kind == "min-cost":
        problem = MinCostProblem(model, min_utility=request["min_utility"], weights=WEIGHTS)
        value = problem.solve("scipy")
    else:
        value = exact_frontier(model, WEIGHTS, max_points=request["max_points"])
    return json.loads(_canonical(protocol.value_to_payload(value)))


def request_key(request: dict) -> str:
    """A request without its tenant, canonically serialized.

    Tenants share the one published model, so the answer depends on
    this key alone.
    """
    return _canonical({k: v for k, v in request.items() if k != "tenant"})


def reference_digests(scale: str, seconds: float) -> dict[str, str]:
    """Digests of the direct answers to every request of a window (for ``record.py``).

    Frontier answers are left out: ``exact_frontier`` picks different
    points under different string-hash seeds, so its answer is only
    reproducible inside one process and is solved directly at run time.
    """
    config = SCALES[scale]
    model = synthetic_model(**config.model)
    ceiling = utility(model, model.monitors, WEIGHTS)
    requests = fresh_requests(max(1, round(config.rate * seconds)), ceiling)
    return {
        request_key(request): common.digest(direct_value(model, request))
        for request in requests
        if request["kind"] != "frontier"
    }


def wrong_answers(state: State, replies: list[Reply]) -> set[str]:
    """Job ids whose successful answer is wrong.

    Every answer must equal the direct solve of its request (the service
    promises bit-identical per-job results): the digest recorded in
    ``expected.json``, or, for a request not recorded there (another
    ``--seconds``), the digest of a direct solve made now.
    """
    reference: dict[str, str] = {}
    wrong: set[str] = set()
    for reply in replies:
        if not reply.ok:
            continue
        key = request_key(reply.request)
        if key not in reference:
            reference[key] = state.recorded.get(key) or common.digest(
                direct_value(state.model, json.loads(key))
            )
        if common.digest(reply.result["value"]) != reference[key]:
            wrong.add(reply.job_id)
    return wrong


def _counted(state: State, replies: list[Reply], outcome: common.Outcome) -> None:
    wrong = wrong_answers(state, replies)
    failed = sum(1 for r in replies if not r.ok or r.job_id in wrong)
    outcome.count(len(replies), failed)


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------


def makespan(exchange: Exchange, replies: list[Reply]) -> float:
    """From the first scheduled send to the last successful result line."""
    return max(r.done for r in replies if r.ok) - exchange.origin


def measure(state: State, seconds: float) -> common.Outcome:
    exchange = window(state, seconds)
    replies = collate(exchange)
    ok = [r for r in replies if r.ok]
    cold = [r.latency for r in ok if not r.warm]
    warm = [r.latency for r in ok if r.warm]
    outcome = common.Outcome(
        metrics={
            "wall_s": makespan(exchange, replies),
            "cold_p50_s": statistics.median(cold),
            "cold_p90_s": common.percentile(cold, 0.9),
            "warm_p50_s": statistics.median(warm),
        },
        notes={"cold_replies": len(cold), "warm_replies": len(warm)},
    )
    _counted(state, replies, outcome)
    return outcome


#: The loop-thread calls a traced window wraps: (owner, attribute, layer).
TRACE_TARGETS = [
    (protocol, "request_from_payload", "service.protocol.decode"),
    (protocol, "result_to_payload", "service.protocol.encode"),
    (protocol, "strict_dumps", "service.protocol.encode"),
    (SolveService, "submit", "service.admit"),
]


class _Probe:
    def call(self) -> None:
        return None


def _wrapper_cost(calls: int = 20000) -> float:
    """Seconds one benchmark wrapper adds to a call (calibrated)."""
    probe = _Probe()
    began = time.perf_counter()
    for _ in range(calls):
        probe.call()
    bare = time.perf_counter() - began
    with common.instrumented([(_Probe, "call", "probe")]):
        began = time.perf_counter()
        for _ in range(calls):
            probe.call()
        wrapped = time.perf_counter() - began
    return max(0.0, (wrapped - bare) / calls)


def _delta(before: dict, after: dict) -> obs.MetricsRegistry:
    """The counters and batch-size histogram recorded between two snapshots."""
    delta = obs.MetricsRegistry()
    for name, value in after["counters"].items():
        delta.counter(name).inc(value - before["counters"].get(name, 0.0))
    empty = {"count": 0, "sum": 0.0}
    batches = delta.histogram("service.batch_size", (1.0,))
    for snapshot, sign in ((after, 1), (before, -1)):
        state = snapshot["histograms"].get("service.batch_size", empty)
        batches.count += sign * state["count"]
        batches.sum += sign * state["sum"]
    return delta


def trace(state: State, seconds: float) -> common.Outcome:
    """The same window, timed only at the benchmark boundary.

    Worker threads would interleave spans on the process-global tracer,
    so no span tree is kept: decode, admission and encode are timed by
    wrappers on the event-loop thread, queue and run seconds come from
    the replies, and counts are registry deltas over the window.
    """
    before = obs.registry().snapshot()
    with common.instrumented(TRACE_TARGETS) as totals:
        exchange = window(state, seconds)
    delta = _delta(before, obs.registry().snapshot())
    replies = collate(exchange)
    outcome = common.Outcome()
    _counted(state, replies, outcome)

    count = lambda name: delta.counter(name).value  # noqa: E731
    batches = delta.histogram("service.batch_size")
    cold = [r.result for r in replies if r.ok and not r.warm]
    layers = {
        "service.protocol.decode_s": totals.seconds["service.protocol.decode"],
        "service.protocol.encode_s": totals.seconds["service.protocol.encode"],
        "service.admit_s": totals.seconds["service.admit"],
    }
    outcome.metrics = common.counter_metrics(delta)
    outcome.metrics.update(layers)
    outcome.metrics.update(
        {
            "service.queue_wait_p50_s": statistics.median(r["queue_seconds"] for r in cold),
            "service.run_p50_s": statistics.median(r["run_seconds"] for r in cold),
            "service.batch_size_mean": common.ratio(batches.sum, batches.count),
            "service.result_hit_ratio": common.ratio(
                count("service.results.hits"),
                count("service.results.hits") + count("service.results.misses"),
            ),
            "service.dedup_ratio": common.ratio(
                count("service.jobs.deduped"), count("service.jobs.submitted")
            ),
            "service.session_hit_ratio": common.ratio(
                count("service.cache.hits"),
                count("service.cache.hits") + count("service.cache.misses"),
            ),
            "service.rejected": float(sum(1 for r in replies if r.rejected)),
            "generator.lateness_p90_s": common.percentile(exchange.lateness, 0.9),
            "other_s": makespan(exchange, replies) - sum(layers.values()),
            # Estimated, not measured: a traced and an untraced window
            # cannot share one process's schedule.
            "trace_overhead_s": sum(totals.calls.values()) * _wrapper_cost(),
        }
    )
    return outcome
