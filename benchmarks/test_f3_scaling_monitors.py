"""F3 — Scalability in the number of monitors.

Reproduces the paper's scalability claim along the monitor axis:
solve time of the optimal-deployment ILP on synthetic models with 25 to
400 deployable monitors (attacks fixed at 100).  The paper reports
"within minutes" for hundreds of monitors; the HiGHS-backed solver is
expected to stay in single-digit seconds.

The benchmark times the largest instance; the table reports the series.
The largest instance also races the greedy heuristic's two evaluation
paths — reference full re-evaluation vs. the incremental substrate
cursor — asserting identical selections and a >=2x wall-clock speedup.
"""

import time

from repro.analysis.tables import render_table
from repro.casestudy import synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.greedy import solve_greedy
from repro.optimize.problem import MaxUtilityProblem

from conftest import publish, publish_json

MONITOR_COUNTS = [25, 50, 100, 200, 400]
ATTACKS = 100
WEIGHTS = UtilityWeights()
BUDGET_FRACTION = 0.3
MINUTES_CLAIM_SECONDS = 120.0


def make_model(monitors: int):
    return synthetic_model(
        assets=max(20, monitors // 5),
        monitors=monitors,
        attacks=ATTACKS,
        seed=7,
    )


def solve_instance(model):
    budget = Budget.fraction_of_total(model, BUDGET_FRACTION)
    return MaxUtilityProblem(model, budget, WEIGHTS).solve()


def run_series():
    rows = []
    for monitors in MONITOR_COUNTS:
        model = make_model(monitors)
        started = time.perf_counter()
        result = solve_instance(model)
        elapsed = time.perf_counter() - started
        rows.append(
            [
                monitors,
                model.stats()["events"],
                result.stats["variables"],
                result.stats["constraints"],
                len(result.deployment),
                result.utility,
                elapsed,
            ]
        )
    return rows


def substrate_comparison(model):
    """Greedy with and without the incremental substrate, same budget.

    Returns ``(reference seconds, incremental seconds)`` after checking
    the two paths picked the same monitors in the same order.
    """
    budget = Budget.fraction_of_total(model, BUDGET_FRACTION)
    started = time.perf_counter()
    reference = solve_greedy(model, budget, WEIGHTS, incremental=False)
    reference_seconds = time.perf_counter() - started
    started = time.perf_counter()
    incremental = solve_greedy(model, budget, WEIGHTS, incremental=True)
    incremental_seconds = time.perf_counter() - started
    assert incremental.selection_order == reference.selection_order
    assert incremental.monitor_ids == reference.monitor_ids
    assert abs(incremental.utility - reference.utility) < 1e-9
    return reference_seconds, incremental_seconds


def test_f3_scaling_monitors(benchmark, results_dir):
    rows = run_series()
    table = render_table(
        ["#monitors", "#events", "ILP vars", "ILP rows", "#selected", "utility", "seconds"],
        rows,
        title=f"F3 — Solve time vs. #monitors (attacks fixed at {ATTACKS})",
    )
    from repro.analysis.charts import render_chart

    chart = render_chart(
        {"solve seconds": [(row[0], row[-1]) for row in rows]},
        title="F3 — solve time vs. #monitors (shape)",
        x_label="#monitors",
        y_label="seconds",
        height=10,
    )
    # The headline claim: hundreds of monitors within minutes.
    for row in rows:
        assert row[-1] < MINUTES_CLAIM_SECONDS, f"{row[0]} monitors took {row[-1]:.1f}s"

    # Substrate speedup at the largest size: same greedy selections,
    # >=2x faster through the incremental cursor.
    largest = make_model(MONITOR_COUNTS[-1])
    reference_seconds, incremental_seconds = substrate_comparison(largest)
    speedup = reference_seconds / incremental_seconds
    assert speedup >= 2.0, (
        f"incremental greedy only {speedup:.1f}x faster "
        f"({reference_seconds:.2f}s vs {incremental_seconds:.2f}s)"
    )
    substrate_note = (
        f"greedy @ {MONITOR_COUNTS[-1]} monitors: reference "
        f"{reference_seconds:.3f}s, incremental {incremental_seconds:.3f}s "
        f"({speedup:.0f}x, identical selections)"
    )
    publish(results_dir, "f3_scaling_monitors", table + "\n\n" + chart + "\n\n" + substrate_note)
    publish_json(
        results_dir,
        "f3_scaling_monitors",
        {
            "experiment": "f3_scaling_monitors",
            "attacks": ATTACKS,
            "budget_fraction": BUDGET_FRACTION,
            "columns": [
                "monitors", "events", "ilp_vars", "ilp_rows",
                "selected", "utility", "solve_seconds",
            ],
            "rows": rows,
            "substrate_speedup": {
                "monitors": MONITOR_COUNTS[-1],
                "greedy_reference_seconds": reference_seconds,
                "greedy_incremental_seconds": incremental_seconds,
                "speedup": speedup,
            },
        },
    )

    # Benchmark the largest instance (model construction excluded).
    benchmark.pedantic(solve_instance, args=(largest,), rounds=1, iterations=1)


# --- Pool ablation: per-call maps vs. one persistent pool with a model parcel ---

POOL_MAPS = 6
POOL_TASKS_PER_MAP = 8
POOL_WORKERS = 2


def _percall_utility(task):
    """Baseline worker entry point: the whole model rides in the task."""
    from repro.runtime.engine import engine_for

    model, deployed = task
    return engine_for(model).utility(deployed)


def _pooled_utility(task):
    """Parcel worker entry point: the model is unpickled once per worker."""
    from repro.runtime.engine import engine_for

    parcel, deployed = task
    return engine_for(parcel.model).utility(deployed)


def _sample_deployments(model, count):
    from repro.runtime.parallel import spawn_generators

    ids = sorted(model.monitors)
    picks = []
    for rng in spawn_generators(7, count):
        keep = rng.random(len(ids)) < rng.uniform(0.2, 0.8)
        picks.append(frozenset(m for m, k in zip(ids, keep) if k))
    return picks


def test_f3_pool_ablation(results_dir):
    """Persistent pool with a model parcel vs. per-call maps on the largest model.

    A study is ``POOL_MAPS`` successive parallel maps over the 400-monitor
    model.  The per-call baseline spins up a fresh executor per map and
    ships the full pickled model inside every task, so every task builds
    an engine; the persistent path sends one
    :class:`~repro.runtime.pool.ModelParcel` through one long-lived pool,
    so the model is pickled once and each worker unpickles it and builds
    its engine once.  Utilities must be identical and the persistent path
    at least 2x faster end to end.
    """
    from repro.runtime.parallel import parallel_map
    from repro.runtime.pool import ModelParcel, PersistentPool

    model = make_model(MONITOR_COUNTS[-1])
    picks = _sample_deployments(model, POOL_MAPS * POOL_TASKS_PER_MAP)
    maps = [
        picks[i * POOL_TASKS_PER_MAP : (i + 1) * POOL_TASKS_PER_MAP]
        for i in range(POOL_MAPS)
    ]

    started = time.perf_counter()
    baseline = [
        parallel_map(
            _percall_utility,
            [(model, deployed) for deployed in batch],
            workers=POOL_WORKERS,
        )
        for batch in maps
    ]
    baseline_seconds = time.perf_counter() - started

    started = time.perf_counter()
    with PersistentPool(workers=POOL_WORKERS) as pool:
        parcel = ModelParcel(model)
        pooled = [
            parallel_map(
                _pooled_utility,
                [(parcel, deployed) for deployed in batch],
                pool=pool,
            )
            for batch in maps
        ]
    pooled_seconds = time.perf_counter() - started

    assert pooled == baseline
    speedup = baseline_seconds / pooled_seconds
    assert speedup >= 2.0, (
        f"persistent pool only {speedup:.1f}x faster "
        f"({baseline_seconds:.2f}s vs {pooled_seconds:.2f}s)"
    )

    note = (
        f"{POOL_MAPS} maps x {POOL_TASKS_PER_MAP} tasks @ "
        f"{MONITOR_COUNTS[-1]} monitors, {POOL_WORKERS} workers: "
        f"per-call {baseline_seconds:.3f}s, persistent with parcel "
        f"{pooled_seconds:.3f}s ({speedup:.1f}x, identical utilities)"
    )
    publish(results_dir, "f3_pool_ablation", note)
    publish_json(
        results_dir,
        "f3_pool_ablation",
        {
            "experiment": "f3_pool_ablation",
            "monitors": MONITOR_COUNTS[-1],
            "attacks": ATTACKS,
            "maps": POOL_MAPS,
            "tasks_per_map": POOL_TASKS_PER_MAP,
            "workers": POOL_WORKERS,
            "per_call_seconds": baseline_seconds,
            "persistent_seconds": pooled_seconds,
            "speedup": speedup,
            "identical_utilities": True,
        },
    )
