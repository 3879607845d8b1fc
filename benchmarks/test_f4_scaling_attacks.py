"""F4 — Scalability in the number of attacks.

The companion series to F3: solve time of the optimal-deployment ILP on
synthetic models with 25 to 400 attacks (monitors fixed at 100).  Each
attack contributes objective terms through its steps' events, so this
axis stresses the formulation-size side of the claim.

Like F3, the largest instance additionally races greedy's reference and
incremental evaluation paths (identical selections, >=2x speedup).
"""

import time

from repro.analysis.tables import render_table
from repro.casestudy import synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.greedy import solve_greedy
from repro.optimize.problem import MaxUtilityProblem

from conftest import publish, publish_json

ATTACK_COUNTS = [25, 50, 100, 200, 400]
MONITORS = 100
WEIGHTS = UtilityWeights()
BUDGET_FRACTION = 0.3
MINUTES_CLAIM_SECONDS = 120.0


def make_model(attacks: int):
    return synthetic_model(assets=30, monitors=MONITORS, attacks=attacks, seed=11)


def solve_instance(model):
    budget = Budget.fraction_of_total(model, BUDGET_FRACTION)
    return MaxUtilityProblem(model, budget, WEIGHTS).solve()


def run_series():
    rows = []
    for attacks in ATTACK_COUNTS:
        model = make_model(attacks)
        started = time.perf_counter()
        result = solve_instance(model)
        elapsed = time.perf_counter() - started
        rows.append(
            [
                attacks,
                model.stats()["events"],
                result.stats["variables"],
                result.stats["constraints"],
                len(result.deployment),
                result.utility,
                elapsed,
            ]
        )
    return rows


def test_f4_scaling_attacks(benchmark, results_dir):
    rows = run_series()
    table = render_table(
        ["#attacks", "#events", "ILP vars", "ILP rows", "#selected", "utility", "seconds"],
        rows,
        title=f"F4 — Solve time vs. #attacks (monitors fixed at {MONITORS})",
    )
    from repro.analysis.charts import render_chart

    chart = render_chart(
        {"solve seconds": [(row[0], row[-1]) for row in rows]},
        title="F4 — solve time vs. #attacks (shape)",
        x_label="#attacks",
        y_label="seconds",
        height=10,
    )
    for row in rows:
        assert row[-1] < MINUTES_CLAIM_SECONDS, f"{row[0]} attacks took {row[-1]:.1f}s"

    largest = make_model(ATTACK_COUNTS[-1])
    budget = Budget.fraction_of_total(largest, BUDGET_FRACTION)
    started = time.perf_counter()
    reference = solve_greedy(largest, budget, WEIGHTS, incremental=False)
    reference_seconds = time.perf_counter() - started
    started = time.perf_counter()
    incremental = solve_greedy(largest, budget, WEIGHTS, incremental=True)
    incremental_seconds = time.perf_counter() - started
    assert incremental.selection_order == reference.selection_order
    assert incremental.monitor_ids == reference.monitor_ids
    assert abs(incremental.utility - reference.utility) < 1e-9
    speedup = reference_seconds / incremental_seconds
    assert speedup >= 2.0, (
        f"incremental greedy only {speedup:.1f}x faster "
        f"({reference_seconds:.2f}s vs {incremental_seconds:.2f}s)"
    )
    substrate_note = (
        f"greedy @ {ATTACK_COUNTS[-1]} attacks: reference "
        f"{reference_seconds:.3f}s, incremental {incremental_seconds:.3f}s "
        f"({speedup:.0f}x, identical selections)"
    )
    publish(results_dir, "f4_scaling_attacks", table + "\n\n" + chart + "\n\n" + substrate_note)
    publish_json(
        results_dir,
        "f4_scaling_attacks",
        {
            "experiment": "f4_scaling_attacks",
            "monitors": MONITORS,
            "budget_fraction": BUDGET_FRACTION,
            "columns": [
                "attacks", "events", "ilp_vars", "ilp_rows",
                "selected", "utility", "solve_seconds",
            ],
            "rows": rows,
            "substrate_speedup": {
                "attacks": ATTACK_COUNTS[-1],
                "greedy_reference_seconds": reference_seconds,
                "greedy_incremental_seconds": incremental_seconds,
                "speedup": speedup,
            },
        },
    )

    benchmark.pedantic(solve_instance, args=(largest,), rounds=1, iterations=1)
