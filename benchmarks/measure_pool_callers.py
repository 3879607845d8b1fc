"""Serial vs. two-worker runs of the process-parallel ``parallel_map`` callers.

Times two calls at their benchmark sizes, serial (``workers=1``) and on
two workers with no pool passed (each call runs on a pool scoped to
it, as a library caller or ``repro contrib --workers 2`` gets):

* ``shapley_values`` at the ``contrib_parallel`` workload's size: the
  F3 400-monitor model (``assets=80, monitors=400, attacks=100,
  seed=7``), the greedy deployment at budget fraction 0.3, 2000
  permutation samples;
* ``budget_sweep`` at the ``sweep_bb_warm`` workload's size: the
  100-monitor model (``assets=30, monitors=100, attacks=50, seed=7``),
  12 fractions from 0.1 to 0.9, branch and bound with presolve.  The
  serial sweep warm-starts its points through one session; the
  two-worker sweep presolves and solves each point cold.

The two sides alternate which runs first.  Each answer is checked
against the serial one: the Shapley values must be identical, the
sweep's objectives equal to 1e-9.

Run from the repository root::

    PYTHONPATH=src python benchmarks/measure_pool_callers.py --runs 10

It writes ``benchmarks/results/pool_callers.{txt,json}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.analysis.contribution import shapley_values
from repro.casestudy import synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.greedy import solve_greedy
from repro.optimize.pareto import budget_sweep

WEIGHTS = UtilityWeights()
RESULTS = Path(__file__).parent / "results" / "pool_callers"


def _shapley_call():
    model = synthetic_model(assets=80, monitors=400, attacks=100, seed=7)
    deployment = solve_greedy(model, Budget.fraction_of_total(model, 0.3), WEIGHTS).deployment

    def call(workers: int):
        values = shapley_values(model, deployment, WEIGHTS, samples=2000, seed=0, workers=workers)
        return [(v.monitor_id, v.value) for v in values]

    def same(a, b) -> bool:
        return a == b

    return call, same


def _sweep_call():
    model = synthetic_model(assets=30, monitors=100, attacks=50, seed=7)
    fractions = [round(0.1 + 0.8 * i / 11, 4) for i in range(12)]

    def call(workers: int):
        points = budget_sweep(
            model,
            fractions,
            WEIGHTS,
            backend="branch-and-bound",
            presolve=True,
            workers=workers,
        )
        return [p.result.objective for p in points]

    def same(a, b) -> bool:
        return len(a) == len(b) and all(abs(x - y) <= 1e-9 for x, y in zip(a, b))

    return call, same


CALLS = {"shapley_values": _shapley_call, "budget_sweep": _sweep_call}


def _quartiles(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()

    record: dict = dict(
        cpus=os.cpu_count(),
        python=f"{platform.python_implementation()} {platform.python_version()}",
        runs=args.runs,
        calls={},
    )
    lines = [
        "Serial vs. two-worker parallel_map callers at their benchmark sizes",
        f"host: {record['cpus']} CPUs, {record['python']}; {args.runs} runs per side, "
        "alternating order; cells are median s [q1-q3] (min-max)",
        f"{'call':<16} {'workers=1':>30} {'workers=2':>30}",
    ]
    for name, build in CALLS.items():
        call, same = build()
        reference = call(1)  # untimed: fills caches and lazy set-up
        seconds: dict[int, list[float]] = {1: [], 2: []}
        for run in range(args.runs):
            for workers in (1, 2) if run % 2 == 0 else (2, 1):
                started = time.perf_counter()
                answer = call(workers)
                seconds[workers].append(time.perf_counter() - started)
                assert same(answer, reference), (name, workers)
            print(f"  {name} run {run}: {seconds[1][-1]:.3f} / {seconds[2][-1]:.3f} s", flush=True)
        cells = []
        for workers in (1, 2):
            values = seconds[workers]
            q1, q3 = _quartiles(values)
            cells.append(
                f"{statistics.median(values):.3f} [{q1:.3f}-{q3:.3f}] "
                f"({min(values):.3f}-{max(values):.3f})"
            )
        lines.append(f"{name:<16} {cells[0]:>30} {cells[1]:>30}")
        record["calls"][name] = {str(w): v for w, v in seconds.items()}
    text = "\n".join(lines)
    print(text)
    RESULTS.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    RESULTS.with_suffix(".txt").write_text(text + "\n")


if __name__ == "__main__":
    main()
