"""Pinned text of the contribution report.

Each case renders :func:`~repro.analysis.contribution.contribution_report`
for the greedy deployment at budget fraction 0.3 and compares it byte
for byte with the record in ``contribution_pins.json``: the leave-one-out
column, the Shapley column (four decimals), the row order and the title.
A change to how Shapley chunks are evaluated may reorder float sums,
but it must not move a printed digit.  Regenerate the records only for
an intended behaviour change, with
``PYTHONPATH=src python -m tests.analysis.test_contribution_pins``.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

import pytest

from repro.analysis.contribution import contribution_report
from repro.casestudy import enterprise_web_service
from repro.casestudy.scaling import synthetic_model
from repro.core.model import SystemModel
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights
from repro.optimize.greedy import solve_greedy

WEIGHTS = UtilityWeights()
BUDGET_FRACTION = 0.3
SAMPLES = 200
SEEDS = (1, 2)

MODELS = {
    "casestudy": enterprise_web_service,
    "synthetic": lambda: synthetic_model(assets=30, monitors=100, attacks=50, seed=7),
}


@cache
def _model(name: str) -> SystemModel:
    return MODELS[name]()


def record(model_name: str, seed: int) -> str:
    model = _model(model_name)
    budget = Budget.fraction_of_total(model, BUDGET_FRACTION)
    deployment = solve_greedy(model, budget, WEIGHTS).deployment
    return contribution_report(
        model, deployment, WEIGHTS, shapley_samples=SAMPLES, seed=seed, workers=1
    )


PIN_FILE = Path(__file__).with_name("contribution_pins.json")
PINS: dict[str, dict[str, str]] = json.loads(PIN_FILE.read_text()) if PIN_FILE.exists() else {}
CASES = [(model_name, seed) for model_name in MODELS for seed in SEEDS]


@pytest.mark.parametrize(("model_name", "seed"), CASES)
def test_contribution_report_matches_pin(model_name, seed):
    assert record(model_name, seed) == PINS[model_name][str(seed)]


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(
        (model_name, int(seed)) for model_name in PINS for seed in PINS[model_name]
    )


if __name__ == "__main__":
    recorded: dict[str, dict[str, str]] = {}
    for model_name, seed in CASES:
        recorded.setdefault(model_name, {})[str(seed)] = record(model_name, seed)
    PIN_FILE.write_text(json.dumps(recorded, indent=1) + "\n")
