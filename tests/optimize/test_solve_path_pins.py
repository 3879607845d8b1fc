"""Pinned answers, stats and traces of every exact solve entry point.

Each entry drives one public way of turning a deployment problem into
a MILP solve — :class:`~repro.optimize.problem.MaxUtilityProblem`
(cold, with a :class:`~repro.solver.session.SolveSession`, with a
:class:`~repro.optimize.family.ProblemFamily` plus a session, through
the fallback chain), :class:`~repro.optimize.problem.MinCostProblem`,
:func:`~repro.optimize.frontier.exact_frontier`,
:func:`~repro.optimize.robust.per_scenario_optima`,
:class:`~repro.optimize.robust.RobustMaxUtilityProblem`,
:class:`~repro.optimize.rebalance.RebalanceProblem` and a presolved
:func:`~repro.optimize.pareto.budget_sweep` — on one seeded synthetic
model and on the toy model, and pins what comes back:

* ``method``, ``optimal``, every stats key and value, ``objective`` and
  ``utility`` as ``float.hex``, and the sorted monitor ids;
* every :class:`~repro.errors.InfeasibleError` message (forced monitors
  over budget, unattainable floors, and an injected INFEASIBLE verdict
  through the fallback chain);
* the span tree (as ``parent/child`` path counts) and the counter and
  histogram names recorded under :func:`repro.obs.capture`.

Any refactor of the road from problem to backend to
:class:`~repro.optimize.deployment.OptimizationResult` must leave these
records (``solve_path_pins.json``) alone.  Regenerate them only for an
intended behaviour change, with
``PYTHONPATH=src python -m tests.optimize.test_solve_path_pins``.
"""

from __future__ import annotations

import json
import tempfile
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro import obs
from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.core.model import SystemModel
from repro.errors import InfeasibleError
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import OptimizationResult
from repro.optimize.family import ProblemFamily
from repro.optimize.frontier import exact_frontier
from repro.optimize.pareto import budget_sweep
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.optimize.rebalance import RebalanceProblem
from repro.optimize.robust import (
    ImportanceScenario,
    RobustMaxUtilityProblem,
    per_scenario_optima,
)
from repro.runtime import faults
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.solver import SolveSession
from tests.conftest import build_toy_builder

SYNTHETIC = ScalingConfig(assets=30, monitor_types=6, monitors=60, attacks=30, seed=3)

MODELS: dict[str, Callable[[], SystemModel]] = {
    "synthetic": lambda: synthetic_model(SYNTHETIC),
    "toy": lambda: build_toy_builder().build(),
}

WEIGHTS = UtilityWeights()


# -- record shapes -----------------------------------------------------------


def _hex(value: float) -> str:
    return float(value).hex()


def _ids(monitor_ids) -> str:
    return " ".join(sorted(monitor_ids))


def _result(result: OptimizationResult) -> dict:
    return {
        "method": result.method,
        "optimal": result.optimal,
        "stats": {key: _hex(value) for key, value in sorted(result.stats.items())},
        "objective": _hex(result.objective),
        "utility": _hex(result.utility),
        "monitors": _ids(result.deployment.monitor_ids),
    }


def _trace(cap: obs.Capture) -> dict:
    paths: Counter[str] = Counter()

    def walk(span: obs.Span, prefix: str) -> None:
        path = f"{prefix}/{span.name}" if prefix else span.name
        paths[path] += 1
        for child in span.children:
            walk(child, path)

    for root in cap.tracer.roots:
        walk(root, "")
    snapshot = cap.registry.snapshot()
    return {
        "spans": dict(sorted(paths.items())),
        "counters": sorted(snapshot["counters"]),
        "histograms": sorted(snapshot["histograms"]),
    }


@contextmanager
def _scipy_fault(kind: str) -> Iterator[None]:
    """Every HiGHS turn in the fallback chain faults with ``kind``."""
    with tempfile.TemporaryDirectory() as state:
        plan = FaultPlan.of(state, {"solver.scipy": FaultSpec(kind=kind, times=-1)})
        with faults.inject(plan):
            yield


def _budget(model: SystemModel, fraction: float) -> Budget:
    return Budget.fraction_of_total(model, fraction)


def _forced(model: SystemModel) -> list[str]:
    return sorted(model.monitors)[:2]


def _scenarios(model: SystemModel) -> list[ImportanceScenario]:
    attacks = sorted(model.attacks)
    return [
        ImportanceScenario("flat", {attack_id: 1.0 for attack_id in attacks}),
        ImportanceScenario("retired", {attacks[0]: 0.0}),
    ]


# -- entry points ------------------------------------------------------------


def _max_utility(backend: str, mode: str) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        session = SolveSession(backend) if mode != "cold" else None
        family = ProblemFamily(model, WEIGHTS) if mode == "family+session" else None
        return [
            _result(
                MaxUtilityProblem(model, _budget(model, fraction), WEIGHTS, family=family).solve(
                    backend, session=session
                )
            )
            for fraction in (0.3, 0.6)
        ]

    return run


def _max_utility_forced(session: bool) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        problem = MaxUtilityProblem(
            model, _budget(model, 0.0), WEIGHTS, forced_monitors=_forced(model)
        )
        return [_result(problem.solve(session=SolveSession() if session else None))]

    return run


def _fallback(kind: str | None) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        problem = MaxUtilityProblem(model, _budget(model, 0.3), WEIGHTS)
        if kind is None:
            return [_result(problem.solve("fallback"))]
        with _scipy_fault(kind):
            return [_result(problem.solve("fallback"))]

    return run


def _min_cost(mode: str) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        if mode == "unattainable":
            return [_result(MinCostProblem(model, min_utility=1.0, weights=WEIGHTS).solve())]
        session = SolveSession() if mode == "session" else None
        return [
            _result(
                MinCostProblem(model, min_utility=floor, weights=WEIGHTS).solve(session=session)
            )
            for floor in (0.2, 0.4)
        ]

    return run


def _frontier(presolve: bool) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        return [
            {
                "scalar_cost": _hex(point.scalar_cost),
                "utility": _hex(point.utility),
                "monitors": _ids(point.deployment.monitor_ids),
            }
            for point in exact_frontier(model, WEIGHTS, presolve=presolve)
        ]

    return run


def _scenario_optima(presolve: bool, backend: str = "scipy") -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        optima = per_scenario_optima(
            model,
            _budget(model, 0.3),
            _scenarios(model),
            WEIGHTS,
            backend=backend,
            workers=1,
            presolve=presolve,
        )
        return [[name, _result(result)] for name, result in optima.items()]

    return run


def _robust(presolve: bool, backend: str = "scipy") -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        problem = RobustMaxUtilityProblem(model, _budget(model, 0.3), _scenarios(model), WEIGHTS)
        return [_result(problem.solve(backend, presolve=presolve))]

    return run


def _rebalance(backend: str = "scipy") -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        current = sorted(model.monitors)[::3]
        problem = RebalanceProblem(model, _budget(model, 0.3), current, WEIGHTS)
        return [_result(problem.solve(backend))]

    return run


def _injected_infeasible(entry: Callable[[SystemModel], list]) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        with _scipy_fault("infeasible"):
            return entry(model)

    return run


def _sweep(backend: str) -> Callable[[SystemModel], list]:
    def run(model: SystemModel) -> list:
        points = budget_sweep(
            model, [0.3, 0.6], WEIGHTS, backend=backend, presolve=True, workers=1
        )
        return [[_hex(point.fraction), _result(point.result)] for point in points]

    return run


ENTRIES: dict[str, Callable[[SystemModel], list]] = {
    "max_utility/scipy/cold": _max_utility("scipy", "cold"),
    "max_utility/scipy/session": _max_utility("scipy", "session"),
    "max_utility/scipy/family+session": _max_utility("scipy", "family+session"),
    "max_utility/bb/cold": _max_utility("branch-and-bound", "cold"),
    "max_utility/bb/session": _max_utility("branch-and-bound", "session"),
    "max_utility/bb/family+session": _max_utility("branch-and-bound", "family+session"),
    "max_utility/forced/cold": _max_utility_forced(session=False),
    "max_utility/forced/session": _max_utility_forced(session=True),
    "fallback/clean": _fallback(None),
    "fallback/scipy_fails": _fallback("error"),
    "fallback/scipy_infeasible": _fallback("infeasible"),
    "min_cost/cold": _min_cost("cold"),
    "min_cost/session": _min_cost("session"),
    "min_cost/unattainable": _min_cost("unattainable"),
    "frontier/presolve_off": _frontier(presolve=False),
    "frontier/presolve_on": _frontier(presolve=True),
    "scenario_optima/presolve_off": _scenario_optima(presolve=False),
    "scenario_optima/presolve_on": _scenario_optima(presolve=True),
    "scenario_optima/infeasible": _injected_infeasible(
        _scenario_optima(presolve=False, backend="fallback")
    ),
    "robust/presolve_off": _robust(presolve=False),
    "robust/presolve_on": _robust(presolve=True),
    "robust/infeasible": _injected_infeasible(_robust(presolve=False, backend="fallback")),
    "rebalance/scipy": _rebalance(),
    "rebalance/infeasible": _injected_infeasible(_rebalance(backend="fallback")),
    "sweep/scipy/presolve": _sweep("scipy"),
    "sweep/bb/presolve": _sweep("branch-and-bound"),
}


def record(model_name: str, entry_name: str) -> dict:
    """Run one entry on a fresh model under a fresh capture."""
    model = MODELS[model_name]()
    with obs.capture() as cap:
        try:
            outcome = {"results": ENTRIES[entry_name](model)}
        except InfeasibleError as exc:
            outcome = {"infeasible": str(exc)}
    outcome.update(_trace(cap))
    return outcome


PIN_FILE = Path(__file__).with_name("solve_path_pins.json")
PINS: dict[str, dict[str, dict]] = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}
CASES = [(model_name, entry_name) for model_name in MODELS for entry_name in ENTRIES]


@pytest.mark.parametrize(("model_name", "entry_name"), CASES)
def test_solve_path_matches_pin(model_name, entry_name):
    assert record(model_name, entry_name) == PINS[model_name][entry_name]


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(
        (model_name, entry_name) for model_name in PINS for entry_name in PINS[model_name]
    )


if __name__ == "__main__":
    recorded: dict[str, dict[str, dict]] = {}
    for model_name, entry_name in CASES:
        recorded.setdefault(model_name, {})[entry_name] = record(model_name, entry_name)
    PIN_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
