"""Overhead guard: ambient instrumentation must stay within 5% of no-op.

The obs package promises that always-on instrumentation (ambient
``MetricsRegistry`` counters/histograms plus a ``keep=False`` tracer) is
cheap enough to leave enabled everywhere.  This test times an F3-style
greedy solve on a 200-monitor synthetic model both ways — instrumented
defaults vs. an explicit ``NullRegistry`` + non-retaining tracer — and
fails if the instrumented path is more than 5% slower.

Timing discipline: one warmup per mode, then SAMPLES back-to-back pairs
of samples, one per mode, each timing a small batch of solves.  Which
mode runs first alternates pair by pair, so neither always runs on the
other's warmed caches.  Batches are timed with ``time.thread_time()``:
the solves run on the calling thread, so CPU time that other processes
take from it does not count, while every instruction the
instrumentation adds does.  What remains is the host's speed drifting
(shared cores, frequency changes) by tens of percent over a few
batches.  Both halves of a pair see nearly the same speed, so the guard
compares the median of the per-pair ratios: the few pairs that a speed
change splits cannot move it.
"""

import statistics
import time

import pytest

from repro import obs
from repro.casestudy.scaling import synthetic_model
from repro.metrics.cost import Budget
from repro.obs import NullRegistry, Tracer
from repro.optimize.greedy import solve_greedy

SAMPLES = 7
SOLVES_PER_SAMPLE = 3
MAX_OVERHEAD = 0.05


@pytest.fixture(scope="module")
def workload():
    model = synthetic_model(
        assets=40, data_types=12, monitor_types=6, monitors=200, attacks=100, seed=7
    )
    budget = Budget.fraction_of_total(model, 0.3)
    return model, budget


def _time_batch(model, budget) -> float:
    started = time.thread_time()
    for _ in range(SOLVES_PER_SAMPLE):
        solve_greedy(model, budget)
    return time.thread_time() - started


def test_instrumented_solve_within_5_percent_of_noop(workload):
    model, budget = workload
    noop_registry = NullRegistry()
    noop_tracer = Tracer(keep=False)

    # Warm both paths (engine construction, caches, JIT-ish numpy setup).
    _time_batch(model, budget)
    with obs.use(registry=noop_registry, tracer=noop_tracer):
        _time_batch(model, budget)

    def instrumented_sample() -> None:
        instrumented.append(_time_batch(model, budget))

    def baseline_sample() -> None:
        with obs.use(registry=noop_registry, tracer=noop_tracer):
            baseline.append(_time_batch(model, budget))

    instrumented: list[float] = []
    baseline: list[float] = []
    for sample in range(SAMPLES):
        pair = (instrumented_sample, baseline_sample)
        for run in pair if sample % 2 == 0 else reversed(pair):
            run()

    ratios = [i / b for i, b in zip(instrumented, baseline)]
    overhead = statistics.median(ratios) - 1.0
    assert overhead <= MAX_OVERHEAD, (
        f"instrumentation overhead {overhead:.1%} exceeds {MAX_OVERHEAD:.0%} "
        f"(median of per-pair ratios {sorted(round(r, 3) for r in ratios)}; "
        f"best instrumented {min(instrumented) * 1e3:.2f} ms vs "
        f"best baseline {min(baseline) * 1e3:.2f} ms per {SOLVES_PER_SAMPLE} solves)"
    )


def test_instrumented_and_noop_runs_agree_on_results(workload):
    """The guard would be vacuous if the two modes computed different things."""
    model, budget = workload
    instrumented = solve_greedy(model, budget)
    with obs.use(registry=NullRegistry(), tracer=Tracer(keep=False)):
        noop = solve_greedy(model, budget)
    assert noop.deployment.monitor_ids == instrumented.deployment.monitor_ids
    assert noop.utility == instrumented.utility
