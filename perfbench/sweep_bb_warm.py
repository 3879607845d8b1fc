"""sweep_bb_warm: an ascending warm-session branch-and-bound budget sweep.

``budget_sweep(..., backend="branch-and-bound", presolve=True,
workers=1)`` on a 100-monitor synthetic model: the sweep shares one
``ProblemFamily`` and one ``SolveSession``, so pure-Python branch and
bound with its LP relaxations, presolve on a small model and the
session's warm starts do almost all of the work.  HiGHS MILP, the
service and the pool are bypassed; formulation is nearly free thanks to
the family's row memo.

The instance is pinned (model seed 7): node counts, and with them the
sweep's time, vary up to 3x between model seeds, so ``--seed`` does not
change the inputs here.  Every point's objective, deployment and node
count must equal the recorded ones exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import common
from repro.casestudy import synthetic_model
from repro.core.model import SystemModel
from repro.metrics.utility import UtilityWeights
from repro.optimize.pareto import SweepPoint, budget_sweep
from repro.optimize.problem import MaxUtilityProblem
from repro.solver.model import MilpModel
from repro.solver.session import SolveSession

NAME = "sweep_bb_warm"
WEIGHTS = UtilityWeights()

#: (model config, number of fractions); fractions ascend from 0.1 to 0.9.
SCALES = {
    "full": (dict(assets=30, monitors=100, attacks=50, seed=7), 12),
    "tiny": (dict(assets=10, monitors=20, attacks=12, seed=7), 4),
}

LAYER_OF = {
    "bench:optimize.formulate": "formulate",
    "optimize.formulate": "formulate",
    "bench:solver.compile": "compile",
    "solver.compile": "compile",
    "bench:solver.session": "session",
    "solver.session.solve": "session",
    "solver.presolve": "presolve",
    "solver.branch_and_bound": "bb",
}
METRIC_OF = {
    "formulate": "optimize.formulate_s",
    "compile": "solver.compile_s",
    "session": "solver.session_s",
    "presolve": "solver.presolve_s",
    "bb": "solver.bb_s",
}


@dataclass
class State:
    model: SystemModel
    fractions: list[float]
    expected: dict


def setup(seed: int, scale: str) -> State:
    del seed  # the instance is pinned; see the module docstring
    config, points = SCALES[scale]
    return State(
        model=synthetic_model(**config),
        fractions=[round(0.1 + 0.8 * i / (points - 1), 4) for i in range(points)],
        expected=common.expected(NAME, scale),
    )


def job(state: State) -> list[SweepPoint]:
    return budget_sweep(
        state.model,
        state.fractions,
        WEIGHTS,
        backend="branch-and-bound",
        presolve=True,
        workers=1,
    )


def point_record(point: SweepPoint) -> list:
    """What is pinned per point: objective, deployment digest, nodes."""
    return [
        repr(point.result.objective),
        common.digest(sorted(point.result.deployment.monitor_ids)),
        int(point.result.stats["nodes"]),
]


def check(state: State, points: list[SweepPoint]) -> int:
    """Failed sweep points: any point whose record differs from the pin."""
    recorded = state.expected["points"]
    if len(points) != len(recorded):
        return len(recorded)
    return sum(
        1
        for point, pinned in zip(points, recorded)
        if not point.result.optimal or point_record(point) != pinned
    )


def measure(state: State, seconds: float) -> common.Outcome:
    walls, answers = common.repeat(lambda: job(state), seconds)
    outcome = common.Outcome(metrics=common.job_latencies(walls), notes={"job_walls_s": walls})
    for answer in answers:
        outcome.count(len(state.fractions), check(state, answer))
    return outcome


#: The public calls a traced job wraps: (owner, attribute, layer span).
TARGETS = [
        (MaxUtilityProblem, "build", "optimize.formulate"),
        (MilpModel, "compile", "solver.compile"),
        (SolveSession, "solve", "solver.session"),
    ]


def trace(state: State, seconds: float) -> common.Outcome:
    run = common.trace_repeated(lambda: job(state), TARGETS, LAYER_OF, seconds)
    outcome = common.Outcome(metrics=common.layer_metrics(run, METRIC_OF))
    for answer in run.answers:
        outcome.count(len(state.fractions), check(state, answer))
    return outcome
