"""Pinned compiled forms and utility values of the deployment formulations.

Every refactor of formulation assembly, expression algebra or the
metric oracle must leave these bits alone: the digests cover the whole
:class:`~repro.solver.model.StandardForm` (objective, both CSR triples,
right-hand sides, bounds and integrality), and the utility pins are
``float.hex`` strings, so a change in float addition order shows up
here even when every tolerance-based suite still passes.

The instances are the tiny multizone catalog of
``perfbench/catalog_exact.py`` (``SCALES["tiny"]``), the 100-monitor
model of ``perfbench/sweep_bb_warm.py`` built through one
:class:`~repro.optimize.family.ProblemFamily` at two budgets, a
:class:`~repro.optimize.problem.MinCostProblem` with utility, coverage,
full-coverage and richness floors, and a two-scenario robust problem.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.metrics.cost import Budget
from repro.metrics.utility import UtilityWeights, attack_utility, utility, utility_breakdown
from repro.optimize.family import ProblemFamily
from repro.optimize.problem import MaxUtilityProblem, MinCostProblem
from repro.optimize.robust import ImportanceScenario, RobustMaxUtilityProblem

#: ``perfbench/catalog_exact.py`` ``SCALES["tiny"]``.
TINY_CATALOG = ScalingConfig(
    assets=40, monitor_types=6, monitors=80, attacks=30, seed=5, topology="multizone", zones=4
)
#: ``perfbench/sweep_bb_warm.py`` ``SCALES["full"]``.
SWEEP_MODEL = dict(assets=30, monitors=100, attacks=50, seed=7)

WEIGHT_VECTORS = {
    "default": UtilityWeights(),
    "coverage_only": UtilityWeights.coverage_only(),
    "tradeoff": UtilityWeights.tradeoff(0.5, redundancy_cap=3),
    "richness_heavy": UtilityWeights(coverage=0.2, redundancy=0.1, richness=0.7),
}


def form_digest(milp) -> str:
    """blake2b over every array and flag of the compiled standard form."""
    form = milp.compile()
    h = hashlib.blake2b(digest_size=16)
    arrays = (
        form.c,
        form.A_ub.data, form.A_ub.indices, form.A_ub.indptr, form.b_ub,
        form.A_eq.data, form.A_eq.indices, form.A_eq.indptr, form.b_eq,
        form.lower, form.upper, form.integrality,
    )
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape}".encode())
        h.update(array.tobytes())
    h.update(f"{float(form.objective_constant).hex()}|{form.maximize}".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def catalog():
    return synthetic_model(TINY_CATALOG)


@pytest.fixture(scope="module")
def sweep_model():
    return synthetic_model(**SWEEP_MODEL)


def seeded_deployments(model) -> dict[str, frozenset[str]]:
    ids = sorted(model.monitors)
    deployments = {"empty": frozenset(), "all": frozenset(ids)}
    for seed in range(4):
        rng = random.Random(seed)
        deployments[f"seed{seed}"] = frozenset(rng.sample(ids, rng.randint(1, len(ids) - 1)))
    return deployments


def utility_pins(model) -> dict[str, str]:
    pins: dict[str, str] = {}
    first_attack = sorted(model.attacks)[0]
    for dep_name, deployed in seeded_deployments(model).items():
        for w_name, weights in WEIGHT_VECTORS.items():
            pins[f"{dep_name}/{w_name}/utility"] = utility(model, deployed, weights).hex()
            pins[f"{dep_name}/{w_name}/attack"] = attack_utility(
                model, deployed, first_attack, weights
            ).hex()
        for key, value in utility_breakdown(model, deployed).items():
            pins[f"{dep_name}/breakdown/{key}"] = value.hex()
    return pins


def min_cost_problem(model) -> MinCostProblem:
    attacks = sorted(model.attacks)
    return MinCostProblem(
        model,
        min_utility=0.3,
        min_attack_coverage={attacks[1]: 0.5, attacks[2]: 0.25},
        fully_cover=[attacks[0]],
        min_attack_richness={attacks[3]: 0.4},
    )


def robust_problem(model) -> RobustMaxUtilityProblem:
    attacks = sorted(model.attacks)
    shift = ImportanceScenario("shift", {attacks[0]: 0.0, attacks[1]: 1.0, attacks[2]: 0.05})
    return RobustMaxUtilityProblem(model, Budget.fraction_of_total(model, 0.3), [shift])


CATALOG_FORM = "afe27f5f2cd3bf92e19f1b9ec5cb77d7"
SWEEP_FORMS = {0.1: "05924d260f54318597083d738614a1f5", 0.7: "00097132c88663a0c18b327273e5992e"}
MIN_COST_FORM = "8f9655bf5a3568cfeef320759870b77c"
ROBUST_FORM = "0b30fa400c2d63a61b6dca8a67ba6195"
CATALOG_UTILITY = {
    "empty/default/utility": "0x0.0p+0",
    "empty/default/attack": "0x0.0p+0",
    "empty/coverage_only/utility": "0x0.0p+0",
    "empty/coverage_only/attack": "0x0.0p+0",
    "empty/tradeoff/utility": "0x0.0p+0",
    "empty/tradeoff/attack": "0x0.0p+0",
    "empty/richness_heavy/utility": "0x0.0p+0",
    "empty/richness_heavy/attack": "0x0.0p+0",
    "empty/breakdown/coverage": "0x0.0p+0",
    "empty/breakdown/redundancy": "0x0.0p+0",
    "empty/breakdown/richness": "0x0.0p+0",
    "empty/breakdown/utility": "0x0.0p+0",
    "all/default/utility": "0x1.0498198388014p-1",
    "all/default/attack": "0x1.6d47304039ac0p-2",
    "all/coverage_only/utility": "0x1.e5697e7e980d6p-2",
    "all/coverage_only/attack": "0x1.2e4df335376c1p-2",
    "all/tradeoff/utility": "0x1.9dbb32b81e7dep-2",
    "all/tradeoff/attack": "0x1.13563c8ecaf90p-2",
    "all/richness_heavy/utility": "0x1.42b4ce96f77f5p-1",
    "all/richness_heavy/attack": "0x1.049fd1d283f78p-1",
    "all/breakdown/coverage": "0x1.e5697e7e980d6p-2",
    "all/breakdown/redundancy": "0x1.ebeeb78f435bep-2",
    "all/breakdown/richness": "0x1.6486becda2769p-1",
    "all/breakdown/utility": "0x1.0498198388014p-1",
    "seed0/default/utility": "0x1.802438c027aa4p-2",
    "seed0/default/attack": "0x1.9b8a8a1113c16p-3",
    "seed0/coverage_only/utility": "0x1.67f9edea301a1p-2",
    "seed0/coverage_only/attack": "0x1.27663e11f59a4p-3",
    "seed0/tradeoff/utility": "0x1.30749a2cd9a32p-2",
    "seed0/tradeoff/attack": "0x1.3b2a968072449p-3",
    "seed0/richness_heavy/utility": "0x1.d46752c2dc53ep-2",
    "seed0/richness_heavy/attack": "0x1.344bff1e2721ep-2",
    "seed0/breakdown/coverage": "0x1.67f9edea301a1p-2",
    "seed0/breakdown/redundancy": "0x1.6c0c66c729baap-2",
    "seed0/breakdown/richness": "0x1.0125365b813d3p-1",
    "seed0/breakdown/utility": "0x1.802438c027aa4p-2",
    "seed1/default/utility": "0x1.07a731623d53dp-3",
    "seed1/default/attack": "0x0.0p+0",
    "seed1/coverage_only/utility": "0x1.f3be41539c25dp-4",
    "seed1/coverage_only/attack": "0x0.0p+0",
    "seed1/tradeoff/utility": "0x1.a01ff32ef448ap-4",
    "seed1/tradeoff/attack": "0x0.0p+0",
    "seed1/richness_heavy/utility": "0x1.4eaa02917a65bp-3",
    "seed1/richness_heavy/attack": "0x0.0p+0",
    "seed1/breakdown/coverage": "0x1.f3be41539c25dp-4",
    "seed1/breakdown/redundancy": "0x1.cd586c0f06827p-4",
    "seed1/breakdown/richness": "0x1.75bf173085cbbp-3",
    "seed1/breakdown/utility": "0x1.07a731623d53dp-3",
    "seed2/default/utility": "0x1.7af317a811669p-6",
    "seed2/default/attack": "0x0.0p+0",
    "seed2/coverage_only/utility": "0x1.29ee4186c5e39p-6",
    "seed2/coverage_only/attack": "0x0.0p+0",
    "seed2/tradeoff/utility": "0x1.13a3cec019eacp-6",
    "seed2/tradeoff/attack": "0x0.0p+0",
    "seed2/richness_heavy/utility": "0x1.2639fed5ad41bp-5",
    "seed2/richness_heavy/attack": "0x0.0p+0",
    "seed2/breakdown/coverage": "0x1.29ee4186c5e39p-6",
    "seed2/breakdown/redundancy": "0x1.7c0609f624eb0p-6",
    "seed2/breakdown/richness": "0x1.5e9e18d58f75bp-5",
    "seed2/breakdown/utility": "0x1.7af317a811669p-6",
    "seed3/default/utility": "0x1.f2ad7eff0ead7p-3",
    "seed3/default/attack": "0x1.e5ccde8b8dca7p-3",
    "seed3/coverage_only/utility": "0x1.e1dcf4d0eebcbp-3",
    "seed3/coverage_only/attack": "0x1.cacb9a4b0d239p-3",
    "seed3/tradeoff/utility": "0x1.85bc7c479b0dap-3",
    "seed3/tradeoff/attack": "0x1.64fcc6951d8b3p-3",
    "seed3/richness_heavy/utility": "0x1.2b125e892a42bp-2",
    "seed3/richness_heavy/attack": "0x1.4cf4da4295018p-2",
    "seed3/breakdown/coverage": "0x1.e1dcf4d0eebcbp-3",
    "seed3/breakdown/redundancy": "0x1.be6a059d6b0dcp-3",
    "seed3/breakdown/richness": "0x1.468563ad24e7fp-2",
    "seed3/breakdown/utility": "0x1.f2ad7eff0ead7p-3",
}
SWEEP_UTILITY = {
    "empty/default/utility": "0x0.0p+0",
    "empty/default/attack": "0x0.0p+0",
    "empty/coverage_only/utility": "0x0.0p+0",
    "empty/coverage_only/attack": "0x0.0p+0",
    "empty/tradeoff/utility": "0x0.0p+0",
    "empty/tradeoff/attack": "0x0.0p+0",
    "empty/richness_heavy/utility": "0x0.0p+0",
    "empty/richness_heavy/attack": "0x0.0p+0",
    "empty/breakdown/coverage": "0x0.0p+0",
    "empty/breakdown/redundancy": "0x0.0p+0",
    "empty/breakdown/richness": "0x0.0p+0",
    "empty/breakdown/utility": "0x0.0p+0",
    "all/default/utility": "0x1.271002b90b36ap-1",
    "all/default/attack": "0x1.3525ec010a44ap-1",
    "all/coverage_only/utility": "0x1.132bac4fe5397p-1",
    "all/coverage_only/attack": "0x1.02a9c63f61c14p-1",
    "all/tradeoff/utility": "0x1.f6293bf19c100p-2",
    "all/tradeoff/attack": "0x1.f376e135d72b6p-2",
    "all/richness_heavy/utility": "0x1.67133d22ce430p-1",
    "all/richness_heavy/attack": "0x1.b8fe23458f8eap-1",
    "all/breakdown/coverage": "0x1.132bac4fe5397p-1",
    "all/breakdown/redundancy": "0x1.1b898e9630f45p-1",
    "all/breakdown/richness": "0x1.89d6c897b99a1p-1",
    "all/breakdown/utility": "0x1.271002b90b36ap-1",
    "seed0/default/utility": "0x1.6a5a19dcd0b5cp-2",
    "seed0/default/attack": "0x1.f0e65d9d1436ap-3",
    "seed0/coverage_only/utility": "0x1.5b6928f31e354p-2",
    "seed0/coverage_only/attack": "0x1.9ad10e345c2c2p-3",
    "seed0/tradeoff/utility": "0x1.3934de02959bep-2",
    "seed0/tradeoff/attack": "0x1.d18fc54fd6094p-3",
    "seed0/richness_heavy/utility": "0x1.8ec468a95862dp-2",
    "seed0/richness_heavy/attack": "0x1.415764e7778d1p-2",
    "seed0/breakdown/coverage": "0x1.5b6928f31e354p-2",
    "seed0/breakdown/redundancy": "0x1.6ca1bb36b49cdp-2",
    "seed0/breakdown/richness": "0x1.a25125edc98c2p-2",
    "seed0/breakdown/utility": "0x1.6a5a19dcd0b5cp-2",
    "seed1/default/utility": "0x1.706efddc092d0p-4",
    "seed1/default/attack": "0x1.11f97bd4f9cfcp-2",
    "seed1/coverage_only/utility": "0x1.7ed9452de20afp-4",
    "seed1/coverage_only/attack": "0x1.ca838b89cae2bp-3",
    "seed1/tradeoff/utility": "0x1.3ad4d96c26b14p-4",
    "seed1/tradeoff/attack": "0x1.c286c318f8edep-3",
    "seed1/richness_heavy/utility": "0x1.490c1b3699c2ep-4",
    "seed1/richness_heavy/attack": "0x1.4872dd8ea2976p-2",
    "seed1/breakdown/coverage": "0x1.7ed9452de20afp-4",
    "seed1/breakdown/redundancy": "0x1.7238a47fa1035p-4",
    "seed1/breakdown/richness": "0x1.33cb202ea8a52p-4",
    "seed1/breakdown/utility": "0x1.706efddc092d0p-4",
    "seed2/default/utility": "0x1.343ed9f7ab4a2p-4",
    "seed2/default/attack": "0x0.0p+0",
    "seed2/coverage_only/utility": "0x1.42c99e6cdff8fp-4",
    "seed2/coverage_only/attack": "0x0.0p+0",
    "seed2/tradeoff/utility": "0x1.e93ce364971b0p-5",
    "seed2/tradeoff/attack": "0x0.0p+0",
    "seed2/richness_heavy/utility": "0x1.4ce93331b402cp-4",
    "seed2/richness_heavy/attack": "0x0.0p+0",
    "seed2/breakdown/coverage": "0x1.42c99e6cdff8fp-4",
    "seed2/breakdown/redundancy": "0x1.f359cee725661p-5",
    "seed2/breakdown/richness": "0x1.5bb1b1a9ac358p-4",
    "seed2/breakdown/utility": "0x1.343ed9f7ab4a2p-4",
    "seed3/default/utility": "0x1.ecd3045ce9374p-3",
    "seed3/default/attack": "0x1.363812b46a0ffp-3",
    "seed3/coverage_only/utility": "0x1.dda429afc5682p-3",
    "seed3/coverage_only/attack": "0x1.d8fcbbfb0b8e8p-4",
    "seed3/tradeoff/utility": "0x1.873975908c332p-3",
    "seed3/tradeoff/attack": "0x1.48a67fe223222p-3",
    "seed3/richness_heavy/utility": "0x1.2092440878842p-2",
    "seed3/richness_heavy/attack": "0x1.7ff1c76b4e589p-3",
    "seed3/breakdown/coverage": "0x1.dda429afc5682p-3",
    "seed3/breakdown/redundancy": "0x1.c2c8cdea292c3p-3",
    "seed3/breakdown/richness": "0x1.37cfba3db1987p-2",
    "seed3/breakdown/utility": "0x1.ecd3045ce9374p-3",
}


def test_catalog_form_is_pinned(catalog):
    milp, _ = MaxUtilityProblem(catalog, Budget.fraction_of_total(catalog, 0.35)).build()
    assert form_digest(milp) == CATALOG_FORM


def test_sweep_family_forms_are_pinned(sweep_model):
    family = ProblemFamily(sweep_model)
    for fraction, expected in SWEEP_FORMS.items():
        budget = Budget.fraction_of_total(sweep_model, fraction)
        milp, _ = MaxUtilityProblem(sweep_model, budget, family=family).build()
        assert form_digest(milp) == expected, fraction
        cold, _ = MaxUtilityProblem(sweep_model, budget).build()
        assert form_digest(cold) == expected, fraction


def test_min_cost_form_is_pinned(sweep_model):
    milp, _ = min_cost_problem(sweep_model).build()
    assert form_digest(milp) == MIN_COST_FORM


def test_robust_form_is_pinned(sweep_model):
    milp, _ = robust_problem(sweep_model).build()
    assert form_digest(milp) == ROBUST_FORM


def test_catalog_utility_bits_are_pinned(catalog):
    assert utility_pins(catalog) == CATALOG_UTILITY


def test_sweep_model_utility_bits_are_pinned(sweep_model):
    assert utility_pins(sweep_model) == SWEEP_UTILITY
