"""catalog_exact: one cold HiGHS solve of the F14 multizone catalog.

The paper's scalability claim at its largest size: 2000 monitors and
500 attacks, budget fraction 0.35, ``MaxUtilityProblem.solve("scipy")``
with presolve off (the CLI default).  Formulation and the HiGHS MILP
dominate; presolve, branch and bound, the session, the runtime engine,
the pool and the service are all bypassed.

The instance is pinned (model seed 5, as in F14): HiGHS time varies
about 3x between catalogs drawn from different model seeds, which would
swamp any code change, so ``--seed`` does not change the inputs here.
"""

from __future__ import annotations

from dataclasses import dataclass

import common
import repro.optimize.problem as problem_module
import repro.solver as solver_module
from repro import obs
from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.core.model import SystemModel
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, utility
from repro.optimize.deployment import OptimizationResult
from repro.optimize.problem import MaxUtilityProblem
from repro.solver.lp import solve_lp
from repro.solver.model import MilpModel

NAME = "catalog_exact"
WEIGHTS = UtilityWeights()

SCALES = {
    "full": ScalingConfig(
        assets=300, monitor_types=20, monitors=2000, attacks=500,
        seed=5, topology="multizone", zones=8,
    ),
    "tiny": ScalingConfig(
        assets=40, monitor_types=6, monitors=80, attacks=30,
        seed=5, topology="multizone", zones=4,
    ),
}
BUDGET_FRACTION = 0.35

#: Span name -> layer.  ``bench:*`` spans wrap the public calls below;
#: the others are spans the program opens around the same calls.
LAYER_OF = {
    "bench:optimize.formulate": "formulate",
    "optimize.formulate": "formulate",
    "bench:solver.compile": "compile",
    "solver.compile": "compile",
    "bench:solver.highs": "highs",
    "solver.scipy_milp": "highs",
    "bench:metrics.utility": "utility",
}
METRIC_OF = {
    "formulate": "optimize.formulate_s",
    "compile": "solver.compile_s",
    "highs": "solver.highs_s",
    "utility": "metrics.utility_s",
}


@dataclass
class State:
    model: SystemModel
    budget: Budget
    expected: dict


def setup(seed: int, scale: str) -> State:
    del seed  # the instance is pinned; see the module docstring
    model = synthetic_model(SCALES[scale])
    return State(
        model=model,
        budget=Budget.fraction_of_total(model, BUDGET_FRACTION),
        expected=common.expected(NAME, scale),
    )


def job(state: State) -> OptimizationResult:
    return MaxUtilityProblem(state.model, state.budget, WEIGHTS).solve("scipy")


def deployment_digest(result: OptimizationResult) -> str:
    return common.digest(sorted(result.deployment.monitor_ids))


def check(state: State, result: OptimizationResult) -> int:
    """Failed operations (0 or 1) for one solve's answer."""
    oracle = utility(state.model, result.deployment.monitor_ids, WEIGHTS)
    ok = (
        result.optimal
        and abs(result.objective - oracle) <= 1e-9
        and state.budget.allows(result.deployment.cost())
        and deployment_digest(result) == state.expected["deployment_digest"]
    )
    return 0 if ok else 1


def measure(state: State, seconds: float) -> common.Outcome:
    walls, answers = common.repeat(lambda: job(state), seconds)
    outcome = common.Outcome(metrics=common.job_latencies(walls), notes={"job_walls_s": walls})
    for answer in answers:
        outcome.count(1, check(state, answer))
    return outcome


#: The public calls a traced job wraps: (owner, attribute, layer span).
TARGETS = [
    (MaxUtilityProblem, "build", "optimize.formulate"),
    (MilpModel, "compile", "solver.compile"),
    (solver_module, "solve_scipy_milp", "solver.highs"),
    (problem_module, "utility", "metrics.utility"),
]


def root_lp_seconds(traced: common.TracedJob) -> float:
    """Probe: the root LP relaxation of the traced job's compiled form.

    Runs after the job, outside its wall time; it shows whether the
    HiGHS MILP time is bound by its root LP.
    """
    form = traced.totals.last["solver.compile"]
    with obs.span("bench:probe") as sp:
        solve_lp(form.c, form.A_ub, form.b_ub, form.A_eq, form.b_eq, form.lower, form.upper)
    return sp.duration


def trace(state: State, seconds: float) -> common.Outcome:
    run = common.trace_repeated(lambda: job(state), TARGETS, LAYER_OF, seconds)
    outcome = common.Outcome(metrics=common.layer_metrics(run, METRIC_OF))
    for answer in run.answers:
        outcome.count(1, check(state, answer))
    outcome.metrics["solver.root_lp_s"] = root_lp_seconds(run.chosen)
    return outcome
