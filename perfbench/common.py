"""Shared machinery for the perfbench workloads.

Every workload module exposes the same three functions, which
``run.py`` drives:

* ``setup(seed, scale)`` builds the inputs and returns a state object
  (``run.py`` also times it in fresh interpreters for ``setup_s``);
* ``measure(state, seconds)`` runs the workload untraced and returns an
  :class:`Outcome` with the end-to-end metrics;
* ``trace(state, seconds)`` runs it with per-layer attribution and
  returns an :class:`Outcome` with the per-layer metrics.

Per-layer times come from one span tree per traced job.  The benchmark
wraps each layer's public function in a ``bench:<layer>`` span for the
duration of the traced job (:func:`instrumented`), and the spans the
program already opens are mapped onto the same layers.  A layer's time
is the *self* time of its spans — duration minus the time of the spans
nested inside — so the layer times plus ``other_s`` add up to the
traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import resource
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import obs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_metrics(key: str) -> dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics.

    ``BENCHMARK.json`` is the one list of metric names: an untraced run
    emits every end-to-end metric, a traced run every per-layer metric
    (zero where the workload does not reach that layer).
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[key]
    return {metric["name"]: metric["unit"] for metric in declared}


def expected(workload: str, scale: str) -> dict[str, Any]:
    """The recorded answers for one workload at one scale."""
    return json.loads((HERE / "expected.json").read_text())[workload][scale]


def digest(value: Any) -> str:
    """Short content digest of a JSON-serializable value."""
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canonical.encode(), digest_size=16).hexdigest()


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by nearest rank."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (``ru_maxrss``, self)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one run measured: operation counts plus named metrics."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)

    def count(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ----------------------------------------------------------------------
# repeated single-job workloads
# ----------------------------------------------------------------------


def repeat(job: Callable[[], Any], seconds: float) -> tuple[list[float], list[Any]]:
    """Run ``job`` back to back for about ``seconds``; walls and answers.

    A new job starts only while it is expected (by the median so far)
    to finish inside the window, and at least three run, so the median
    is a warm job whatever the host's speed (with a minimum of two it
    would be their mean, first job included, on a slow host but the
    middle job on a fast one).
    """
    walls: list[float] = []
    answers: list[Any] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        answers.append(job())
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(walls) >= 3 and elapsed + statistics.median(walls) > seconds:
            return walls, answers


def job_latencies(walls: list[float]) -> dict[str, float]:
    """End-to-end latency metrics of a repeated single-job workload.

    These workloads have no cold/warm split of their own: every job
    does the same work, and the three to seven jobs of a run are too few
    to tell a first job or a p90 from noise.  So each latency metric is
    the median job time, like ``wall_s``.
    """
    median = statistics.median(walls)
    return {"wall_s": median, "cold_p50_s": median, "cold_p90_s": median, "warm_p50_s": median}


# ----------------------------------------------------------------------
# per-layer attribution
# ----------------------------------------------------------------------


@dataclass
class CallTotals:
    """Inclusive seconds and call counts per wrapped layer.

    Used where no span tree is retained (the service workload, whose
    worker threads would interleave spans on the process-global tracer).
    ``last`` keeps each layer's most recent return value for probes.
    """

    seconds: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    last: dict[str, Any] = field(default_factory=dict)


def _spanned(fn: Callable, layer: str, totals: CallTotals) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with obs.span(f"bench:{layer}") as sp:
            result = fn(*args, **kwargs)
        totals.seconds[layer] += sp.duration
        totals.calls[layer] += 1
        totals.last[layer] = result
        return result

    return wrapper


@contextlib.contextmanager
def instrumented(targets: Iterable[tuple[Any, str, str]]) -> Iterator[CallTotals]:
    """Wrap ``owner.attr`` for each ``(owner, attr, layer)`` while active.

    Each call then runs inside a ``bench:<layer>`` span and is added to
    the yielded :class:`CallTotals`.  A missing attribute raises: a
    benchmark that silently stopped timing a layer would report its
    time as ``other_s``.
    """
    totals = CallTotals()
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, layer in targets:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            setattr(owner, attr, _spanned(original, layer, totals))
            saved.append((owner, attr, original))
        yield totals
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _foreign(parent: obs.Span, child: obs.Span) -> bool:
    """Whether ``child`` is a task tree grafted from a pool worker.

    Worker spans ran in other processes, concurrently with the parent's
    ``parallel.map`` span, so they are not part of this process's time.
    """
    return (
        child.tid is not None
        and parent.name == "parallel.map"
        and int(parent.args.get("workers", 1)) > 1
        and int(parent.args.get("items", 0)) > 1
    )


def self_times(roots: Iterable[obs.Span], layer_of: Mapping[str, str]) -> dict[str | None, float]:
    """Self time per layer over span trees (``None`` = unattributed).

    A span whose name is not in ``layer_of`` belongs to the layer of its
    nearest mapped ancestor.
    """
    totals: dict[str | None, float] = defaultdict(float)
    stack = [(root, None) for root in roots]
    while stack:
        span, inherited = stack.pop()
        layer = layer_of.get(span.name, inherited)
        local = [child for child in span.children if not _foreign(span, child)]
        totals[layer] += span.duration - sum(child.duration for child in local)
        stack.extend((child, layer) for child in local)
    return totals


@dataclass
class TracedJob:
    """One traced job: its answer, wall time, layer times and counters."""

    answer: Any
    wall: float
    layers: dict[str | None, float]
    registry: obs.MetricsRegistry
    totals: CallTotals


def traced_job(
    job: Callable[[], Any],
    targets: Iterable[tuple[Any, str, str]],
    layer_of: Mapping[str, str],
) -> TracedJob:
    """Run ``job`` once under a fresh capture with ``targets`` wrapped."""
    with instrumented(targets) as totals, obs.capture() as cap:
        with obs.span("bench:job") as root:
            answer = job()
    return TracedJob(
        answer=answer,
        wall=root.duration,
        layers=self_times(cap.tracer.roots, layer_of),
        registry=cap.registry,
        totals=totals,
    )


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def counter_metrics(registry: obs.MetricsRegistry) -> dict[str, float]:
    """Per-layer counts and ratios read from one job's captured registry."""
    counter = lambda name: registry.counter(name).value  # noqa: E731
    lp_hits, lp_misses = counter("solver.lp_cache.hits"), counter("solver.lp_cache.misses")
    cache_hits, cache_misses = counter("cache.hits"), counter("cache.misses")
    before, after = counter("presolve.columns_before"), counter("presolve.columns_after")
    return {
        "solver.csr_bytes": registry.gauge("solver.matrix.nbytes").value,
        "solver.bb_nodes": counter("solver.nodes"),
        "solver.lp_solves": lp_misses,
        "solver.lp_cache_hit_ratio": ratio(lp_hits, lp_hits + lp_misses),
        "solver.warm_start_ratio": ratio(
            counter("solver.warm_start.accepted"), counter("solver.session.solves")
        ),
        "presolve.columns_removed_ratio": ratio(before - after, before),
        "runtime.pool_tasks": counter("parallel.tasks"),
        "runtime.degraded_maps": counter("parallel.degraded_maps"),
        "runtime.engine_builds": counter("engine.builds"),
        "runtime.cache_hit_ratio": ratio(cache_hits, cache_hits + cache_misses),
    }


@dataclass
class TracedRun:
    """A traced run: every answer, the chosen traced job, its baseline."""

    answers: list[Any]
    chosen: TracedJob
    untraced_wall: float


def trace_repeated(
    job: Callable[[], Any],
    targets: list[tuple[Any, str, str]],
    layer_of: Mapping[str, str],
    seconds: float,
) -> TracedRun:
    """A cold untraced job, then (untraced, traced) pairs for the window.

    Pairing puts every traced job next to a warm untraced one, so
    ``trace_overhead_s`` compares like with like.  At least one pair
    runs; the traced job with the median wall is the one reported.
    """
    start = time.perf_counter()
    answers = [job()]
    untraced: list[float] = []
    traced: list[TracedJob] = []
    while not traced or time.perf_counter() - start + untraced[-1] + traced[-1].wall <= seconds:
        began = time.perf_counter()
        answers.append(job())
        untraced.append(time.perf_counter() - began)
        traced.append(traced_job(job, targets, layer_of))
        answers.append(traced[-1].answer)
    ordered = sorted(traced, key=lambda t: t.wall)
    return TracedRun(answers, ordered[(len(ordered) - 1) // 2], statistics.median(untraced))


def layer_metrics(run: TracedRun, names: Mapping[str, str]) -> dict[str, float]:
    """Per-layer metrics of a traced run's chosen job.

    ``names`` maps layer keys used in the span map to metric names.
    ``other_s`` is the traced wall minus every attributed layer, and
    ``trace_overhead_s`` the traced wall minus the warm untraced median.
    """
    traced = run.chosen
    metrics = counter_metrics(traced.registry)
    for layer, name in names.items():
        metrics[name] = traced.layers.get(layer, 0.0)
    metrics["other_s"] = traced.wall - sum(traced.layers.get(layer, 0.0) for layer in names)
    metrics["trace_overhead_s"] = traced.wall - run.untraced_wall
    return metrics
