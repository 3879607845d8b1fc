"""Per-monitor contribution analysis: what is each monitor worth?

Optimal deployments are sets; operators reason about individual
monitors ("can we drop the NIDS?", "what would the DB audit add?").
This module decomposes a deployment's utility into per-monitor terms:

* **leave-one-out** value — utility lost by dropping a selected monitor
  (its criticality within this deployment);
* **add-one-in** value — utility gained by adding an unselected monitor
  (the next-best spend);
* **Shapley value** (sampled) — the average marginal contribution over
  random orderings, the principled way to split credit among monitors
  with overlapping evidence.

Leave-one-out undervalues redundant monitors (dropping one of a
corroborating pair loses little, dropping both loses the step), which
is precisely what the Shapley decomposition corrects.

Evaluations run on the runtime substrate: leave-one-out and add-one-in
probes go through the shared per-model evaluation cache, and Shapley
sampling prices a whole chunk of permutations at once on the
deployment's :class:`~repro.runtime.engine.ProviderTable` — array
operations per event, no cursor walk per permutation.  Sampling is
organised in fixed-size chunks, each seeded from its own spawned
:class:`numpy.random.SeedSequence`, so the estimate is identical
whether the chunks run serially or across a process pool.  The model
rides to workers in a :class:`~repro.runtime.pool.ModelParcel`:
pickled once per call, unpickled (and its engine built) once per
worker.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.model import SystemModel
from repro.errors import MetricError
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment
from repro.runtime.cache import cached_utility
from repro.runtime.engine import engine_for
from repro.runtime.parallel import parallel_map, spawn_seeds
from repro.runtime.pool import ModelParcel
from repro.runtime.resilience import MapReport, RetryPolicy

__all__ = [
    "MonitorValue",
    "leave_one_out",
    "add_one_in",
    "shapley_values",
    "contribution_report",
]

#: Samples per Shapley chunk.  Fixed (not derived from the worker count)
#: so the chunk boundaries — and therefore every chunk's random stream —
#: are a function of ``(samples, seed)`` alone.
SHAPLEY_CHUNK = 32


@dataclass(frozen=True)
class MonitorValue:
    """One monitor's contribution figure within/against a deployment."""

    monitor_id: str
    value: float
    scalar_cost: float

    @property
    def value_per_cost(self) -> float:
        """Contribution per unit of scalarized cost (inf for free monitors)."""
        if self.scalar_cost == 0:
            return float("inf") if self.value > 0 else 0.0
        return self.value / self.scalar_cost


def leave_one_out(
    model: SystemModel,
    deployment: Deployment,
    weights: UtilityWeights | None = None,
) -> list[MonitorValue]:
    """Utility lost by dropping each selected monitor, descending.

    A value of zero means the deployment's utility does not depend on
    that monitor at all (fully shadowed by the rest).
    """
    weights = weights or UtilityWeights()
    base = cached_utility(model, deployment.monitor_ids, weights)
    values = [
        MonitorValue(
            monitor_id=monitor_id,
            value=base
            - cached_utility(model, deployment.monitor_ids - {monitor_id}, weights),
            scalar_cost=model.monitor_cost(monitor_id).scalarize(),
        )
        for monitor_id in deployment.monitor_ids
    ]
    return sorted(values, key=lambda v: (-v.value, v.monitor_id))


def add_one_in(
    model: SystemModel,
    deployment: Deployment,
    weights: UtilityWeights | None = None,
) -> list[MonitorValue]:
    """Utility gained by adding each *unselected* monitor, descending."""
    weights = weights or UtilityWeights()
    base = cached_utility(model, deployment.monitor_ids, weights)
    values = [
        MonitorValue(
            monitor_id=monitor_id,
            value=cached_utility(model, deployment.monitor_ids | {monitor_id}, weights)
            - base,
            scalar_cost=model.monitor_cost(monitor_id).scalarize(),
        )
        for monitor_id in model.monitors
        if monitor_id not in deployment.monitor_ids
    ]
    return sorted(values, key=lambda v: (-v.value, v.monitor_id))


def _shapley_chunk(
    task: tuple[ModelParcel, tuple[str, ...], UtilityWeights, int, np.random.SeedSequence],
) -> list[float]:
    """Summed marginal contributions over one chunk of permutations.

    Returns per-monitor totals aligned with the ``monitor_ids`` tuple.
    Runs in worker processes, so everything arrives through the task
    tuple; the permutations are drawn one ``rng.permutation`` call at a
    time, then priced together on the deployment's provider table.
    """
    parcel, monitor_ids, weights, chunk_samples, seed_seq = task
    table = engine_for(parcel.model).provider_table(monitor_ids, weights)
    rng = np.random.default_rng(seed_seq)
    orders = np.stack([rng.permutation(len(monitor_ids)) for _ in range(chunk_samples)])
    return table.marginal_totals(orders).tolist()


def shapley_values(
    model: SystemModel,
    deployment: Deployment,
    weights: UtilityWeights | None = None,
    *,
    samples: int = 200,
    seed: int = 0,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    report: MapReport | None = None,
) -> list[MonitorValue]:
    """Monte-Carlo Shapley decomposition of the deployment's utility.

    Averages each monitor's marginal contribution over ``samples``
    random orderings of the deployment.  The values sum (up to sampling
    noise) to the deployment's total utility — an identity the test
    suite checks.  Sampling happens in fixed chunks of
    :data:`SHAPLEY_CHUNK` permutations with per-chunk spawned seeds and
    the chunk totals are summed in chunk order, so the result depends
    only on ``(samples, seed)`` — never on ``workers``.

    ``policy`` adds per-chunk timeouts/retries, but
    ``on_failure="skip"`` is rejected: every chunk is a fixed share of
    the permutation sample, so silently dropping one would bias the
    estimator while still dividing by ``samples``.
    """
    if samples < 1:
        raise MetricError(f"samples must be >= 1, got {samples!r}")
    if policy is not None and policy.on_failure == "skip":
        raise MetricError(
            "shapley_values cannot run under on_failure='skip': a dropped "
            "chunk would silently bias the estimate; use 'raise' or 'degrade'"
        )
    weights = weights or UtilityWeights()
    monitor_ids = tuple(sorted(deployment.monitor_ids))
    if not monitor_ids:
        return []

    chunk_sizes = [SHAPLEY_CHUNK] * (samples // SHAPLEY_CHUNK)
    if samples % SHAPLEY_CHUNK:
        chunk_sizes.append(samples % SHAPLEY_CHUNK)
    seed_seqs = spawn_seeds(seed, len(chunk_sizes))
    # Built here too, so an unknown monitor raises before any chunk runs.
    table = engine_for(model).provider_table(monitor_ids, weights)
    parcel = ModelParcel(model)
    tasks = [
        (parcel, monitor_ids, weights, size, seq)
        for size, seq in zip(chunk_sizes, seed_seqs)
    ]
    with obs.span(
        "analysis.shapley",
        samples=samples,
        chunks=len(tasks),
        monitors=len(monitor_ids),
        cells=table.cells,
    ):
        chunk_totals = parallel_map(
            _shapley_chunk, tasks, workers=workers, policy=policy, report=report
        )

    totals = np.zeros(len(monitor_ids))
    for chunk in chunk_totals:
        totals += np.asarray(chunk)

    values = [
        MonitorValue(
            monitor_id=monitor_id,
            value=totals[index] / samples,
            scalar_cost=model.monitor_cost(monitor_id).scalarize(),
        )
        for index, monitor_id in enumerate(monitor_ids)
    ]
    return sorted(values, key=lambda v: (-v.value, v.monitor_id))


def contribution_report(
    model: SystemModel,
    deployment: Deployment,
    weights: UtilityWeights | None = None,
    *,
    shapley_samples: int = 200,
    seed: int = 0,
    workers: int | None = None,
    policy: RetryPolicy | None = None,
    report: MapReport | None = None,
) -> str:
    """Text report combining leave-one-out and Shapley views.

    ``policy``/``report`` pass through to :func:`shapley_values`, with
    the same rejection of ``on_failure="skip"``.
    """
    from repro.analysis.tables import render_table

    weights = weights or UtilityWeights()
    loo = {v.monitor_id: v for v in leave_one_out(model, deployment, weights)}
    shapley = shapley_values(
        model,
        deployment,
        weights,
        samples=shapley_samples,
        seed=seed,
        workers=workers,
        policy=policy,
        report=report,
    )
    rows = [
        [
            v.monitor_id,
            v.value,
            loo[v.monitor_id].value,
            v.scalar_cost,
            v.value_per_cost,
        ]
        for v in shapley
    ]
    return render_table(
        ["monitor", "shapley", "leave-one-out", "cost", "shapley/cost"],
        rows,
        precision=4,
        title=f"Monitor contributions — utility {deployment.utility(weights):.4f}",
    )
