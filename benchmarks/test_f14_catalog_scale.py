"""F14 — Catalog scale: thousands of monitors in seconds.

The sparse end-to-end core's headline experiment, on zone-structured
synthetic catalogs (multizone topology, zone-correlated costs).  Two
claims pinned here:

* **Scale** — the 2000-monitor / 500-attack catalog, whose standard
  form is ~58M cells (a ~466 MB dense image before copies), compiles
  to a sub-megabyte CSR and solves to proven optimality in seconds on
  the production backend.
* **Collapse** — the presolve dominated-monitor rule proves hundreds of
  near-duplicate placements droppable before any branching.
"""

from __future__ import annotations

import time

from repro import obs
from repro.analysis.tables import render_table
from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.problem import MaxUtilityProblem
from repro.solver import presolve

from conftest import publish, publish_json

WEIGHTS = UtilityWeights()
ZONES = 8
MODEL_SEED = 5

#: The headline instance.
SCALE_MONITORS, SCALE_ATTACKS = 2000, 500
SCALE_BUDGET_FRACTION = 0.35
#: "In seconds", with headroom: ``results/f14_catalog_scale.json``
#: records 7.3 s on a 2-core x86-64 machine.
CATALOG_CLAIM_SECONDS = 30.0


def catalog(monitors: int, attacks: int):
    return synthetic_model(
        ScalingConfig(
            assets=300,
            monitor_types=20,
            monitors=monitors,
            attacks=attacks,
            seed=MODEL_SEED,
            topology="multizone",
            zones=ZONES,
        )
    )


def build_milp(model, fraction: float):
    problem = MaxUtilityProblem(
        model, Budget.fraction_of_total(model, fraction), WEIGHTS
    )
    milp, _ = problem.build()
    return problem, milp


def test_f14_catalog_scale(results_dir):
    scale_model = catalog(SCALE_MONITORS, SCALE_ATTACKS)
    problem, milp = build_milp(scale_model, SCALE_BUDGET_FRACTION)

    form = milp.compile()
    rows, cols = form.A_ub.shape
    cells = rows * cols
    sparse_nbytes = int(obs.gauge("solver.matrix.nbytes").value)
    dense_nbytes = int(obs.gauge("solver.matrix.dense_nbytes").value)
    assert sparse_nbytes < dense_nbytes / 100  # the matrix really is sparse

    started = time.perf_counter()
    result = problem.solve("scipy")
    scale_seconds = time.perf_counter() - started
    assert result.optimal
    assert scale_seconds < CATALOG_CLAIM_SECONDS, (
        f"catalog solve took {scale_seconds:.1f}s "
        f"(claim: seconds, limit {CATALOG_CLAIM_SECONDS:.0f}s)"
    )

    # The dominated-monitor collapse: zone-correlated costs make many
    # placements provably droppable before any branching happens.
    reduction = presolve(milp)
    assert reduction.stats.dominated_columns > 0

    table = render_table(
        ["instance", "rows", "vars", "cells", "CSR bytes", "dense bytes", "seconds"],
        [
            [
                f"{SCALE_MONITORS}m/{SCALE_ATTACKS}a",
                rows,
                cols,
                cells,
                sparse_nbytes,
                dense_nbytes,
                scale_seconds,
            ],
        ],
        title="F14 — Catalog scale: 2000-monitor exact solve",
    )
    notes = (
        f"catalog solve: {result.stats['variables']} vars OPTIMAL in "
        f"{scale_seconds:.2f}s; CSR {sparse_nbytes:,} bytes vs "
        f"{dense_nbytes:,} dense-equivalent "
        f"({1 - sparse_nbytes / dense_nbytes:.1%} saved)\n"
        f"presolve collapse: {reduction.stats.dominated_columns} dominated "
        f"placements of {reduction.stats.columns_before} columns"
    )
    publish(results_dir, "f14_catalog_scale", table + "\n\n" + notes)
    publish_json(
        results_dir,
        "f14_catalog_scale",
        {
            "experiment": "f14_catalog_scale",
            "scale": {
                "monitors": SCALE_MONITORS,
                "attacks": SCALE_ATTACKS,
                "budget_fraction": SCALE_BUDGET_FRACTION,
                "rows": rows,
                "vars": cols,
                "cells": cells,
                "csr_bytes": sparse_nbytes,
                "dense_equivalent_bytes": dense_nbytes,
                "solve_seconds": scale_seconds,
                "optimal": result.optimal,
                "presolve_dominated_columns": reduction.stats.dominated_columns,
                "presolve_columns_before": reduction.stats.columns_before,
            },
        },
    )
