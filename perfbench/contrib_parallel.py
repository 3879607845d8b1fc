"""contrib_parallel: a two-worker Shapley contribution report.

``contribution_report(model, deployment, shapley_samples=S, seed,
workers=2)`` on the F3 400-monitor model, for the greedy deployment at
budget fraction 0.3.  No pool is passed, matching ``repro contrib
--workers 2``.  Engine cursor evaluation and pool transport (the model
is pickled into every Shapley chunk) do the work; the solver and the
service are bypassed.

``--seed`` is the Shapley sampling seed: it changes which permutations
are drawn but not how many, so the work per run is constant.  The
answer is checked against the ``repro.metrics`` oracle: every
leave-one-out value, the Shapley values summing to the deployment's
utility, and every job in a run returning the identical report.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

import common
import repro.analysis.contribution as contribution
from repro.casestudy import synthetic_model
from repro.core.model import SystemModel
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.deployment import Deployment
from repro.optimize.greedy import solve_greedy
from repro.runtime.resilience import MapReport

NAME = "contrib_parallel"
WEIGHTS = UtilityWeights()
WORKERS = 2
BUDGET_FRACTION = 0.3
#: Permutations timed serially for the per-permutation engine probe.
PROBE_SAMPLES = 64

#: (model config, Shapley samples).
SCALES = {
    "full": (dict(assets=80, monitors=400, attacks=100, seed=7), 2000),
    "tiny": (dict(assets=10, monitors=20, attacks=12, seed=7), 96),
}

LAYER_OF = {
    "bench:runtime.loo": "loo",
    "bench:runtime.shapley": "shapley",
}
METRIC_OF = {"loo": "runtime.loo_s", "shapley": "runtime.shapley_s"}


@dataclass
class State:
    model: SystemModel
    deployment: Deployment
    samples: int
    seed: int

    @property
    def tasks(self) -> int:
        """Shapley chunks per report: the operations this workload counts."""
        return -(-self.samples // contribution.SHAPLEY_CHUNK)


def setup(seed: int, scale: str) -> State:
    config, samples = SCALES[scale]
    model = synthetic_model(**config)
    budget = Budget.fraction_of_total(model, BUDGET_FRACTION)
    deployment = solve_greedy(model, budget, WEIGHTS).deployment
    return State(model=model, deployment=deployment, samples=samples, seed=seed)


def job(state: State) -> tuple[str, MapReport]:
    report = MapReport()
    text = contribution.contribution_report(
        state.model,
        state.deployment,
        WEIGHTS,
        shapley_samples=state.samples,
        seed=state.seed,
        workers=WORKERS,
        report=report,
    )
    return text, report


def _rows(text: str) -> dict[str, tuple[float, float]]:
    """``monitor -> (shapley, leave-one-out)`` parsed from the report table."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("---")) + 1
    rows = {}
    for line in lines[start:]:
        monitor, shapley, loo, *_ = line.split()
        rows[monitor] = (float(shapley), float(loo))
    return rows


def oracle_errors(state: State, text: str) -> int:
    """How many report rows disagree with the ``repro.metrics`` oracle.

    Values are printed to four decimals, so each may be off by half a
    unit in the last place; the Shapley column may drift by that much
    per row in its sum.  A wrong monitor set fails every row.
    """
    rows = _rows(text)
    selected = state.deployment.monitor_ids
    if set(rows) != set(selected):
        return max(1, len(selected))
    half_ulp = 0.5e-4 + 1e-12
    base = utility(state.model, selected, WEIGHTS)
    errors = sum(
        1
        for monitor, (_, loo) in rows.items()
        if abs(base - utility(state.model, selected - {monitor}, WEIGHTS) - loo) > half_ulp
    )
    shapley_sum = sum(shapley for shapley, _ in rows.values())
    if abs(shapley_sum - base) > half_ulp * len(rows):
        errors += 1
    return errors


def failed_tasks(state: State, answers: list[tuple[str, MapReport]]) -> int:
    """Failed Shapley tasks over a run's jobs.

    Each distinct report is checked against the oracle once; the first
    that passes is the run's reference, and seeded sampling makes every
    job's report identical to it.  A job with any other report fails
    all its tasks, and so does a job whose map degraded to a serial
    re-run; otherwise each recorded task failure counts.
    """
    texts = [text for text, _ in answers]
    reference = next(
        (text for text in dict.fromkeys(texts) if oracle_errors(state, text) == 0), None
    )
    return sum(
        state.tasks if text != reference or report.degraded else len(report.failures)
        for text, report in answers
    )


def measure(state: State, seconds: float) -> common.Outcome:
    walls, answers = common.repeat(lambda: job(state), seconds)
    outcome = common.Outcome(metrics=common.job_latencies(walls), notes={"job_walls_s": walls})
    outcome.count(state.tasks * len(answers), failed_tasks(state, answers))
    return outcome


#: The public calls a traced job wraps: (owner, attribute, layer span).
TARGETS = [
    (contribution, "leave_one_out", "runtime.loo"),
    (contribution, "shapley_values", "runtime.shapley"),
]


def engine_seconds_per_permutation(state: State) -> float:
    """Probe: serial in-process Shapley time per permutation."""
    began = time.perf_counter()
    contribution.shapley_values(
        state.model, state.deployment, WEIGHTS, samples=PROBE_SAMPLES, seed=state.seed, workers=1
    )
    return (time.perf_counter() - began) / PROBE_SAMPLES


def transport_bytes(state: State, tasks: float) -> float:
    """Computed, not measured: one pickled Shapley task times the task count."""
    task = (
        state.model,
        tuple(sorted(state.deployment.monitor_ids)),
        WEIGHTS,
        contribution.SHAPLEY_CHUNK,
        np.random.SeedSequence(state.seed),
    )
    return float(len(pickle.dumps(task)) * tasks)


def trace(state: State, seconds: float) -> common.Outcome:
    run = common.trace_repeated(lambda: job(state), TARGETS, LAYER_OF, seconds)
    outcome = common.Outcome(metrics=common.layer_metrics(run, METRIC_OF))
    outcome.count(state.tasks * len(run.answers), failed_tasks(state, run.answers))
    outcome.metrics["runtime.engine_perm_s"] = engine_seconds_per_permutation(state)
    outcome.metrics["runtime.transport_bytes"] = transport_bytes(
        state, outcome.metrics["runtime.pool_tasks"]
    )
    return outcome
