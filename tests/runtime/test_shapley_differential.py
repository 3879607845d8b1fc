"""Differential suite: Shapley chunks on the provider table vs the cursor walk.

Every case draws a chunk's permutations exactly as
:func:`~repro.analysis.contribution._shapley_chunk` does, runs the chunk,
and compares its per-monitor totals with
:func:`~tests.runtime.shapley_oracle.cursor_marginal_totals` walking the
same permutations.  The two sum the same marginals in different orders,
so they agree to within ``1e-12`` of the deployment's utility.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.contribution import SHAPLEY_CHUNK, _shapley_chunk, shapley_values
from repro.core import AssetKind, ModelBuilder, SystemModel
from repro.errors import UnknownIdError
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment
from repro.runtime.engine import EvaluationEngine, engine_for
from repro.runtime.parallel import spawn_seeds
from repro.runtime.pool import ModelParcel
from tests.runtime.shapley_oracle import cursor_marginal_totals
from tests.runtime.test_property_incremental import (
    MODEL_SEEDS,
    WEIGHT_CHOICES,
    _random_deployment,
    _small_model,
)

REL_TOL = 1e-12


def _assert_chunk_matches_oracle(
    model: SystemModel,
    monitor_ids: tuple[str, ...],
    weights: UtilityWeights,
    seed: int = 0,
    samples: int = SHAPLEY_CHUNK,
) -> np.ndarray:
    (seed_seq,) = spawn_seeds(seed, 1)
    totals = np.asarray(
        _shapley_chunk((ModelParcel(model), monitor_ids, weights, samples, seed_seq))
    )
    rng = np.random.default_rng(seed_seq)
    orders = np.stack([rng.permutation(len(monitor_ids)) for _ in range(samples)])
    engine = engine_for(model)
    expected = cursor_marginal_totals(engine, monitor_ids, weights, orders)
    base = engine.utility(monitor_ids, weights)
    assert np.abs(totals - expected).max() <= REL_TOL * base
    return totals


def _star_model(
    types: int, fields_per_type: int, *, silent: bool = False, narrow: int = 3
) -> SystemModel:
    """One host, ``types`` monitor types on it, each with its own fields.

    Event ``wide`` is evidenced by every type (weights rising with the
    type index), event ``narrow`` by the first ``narrow`` types.  With
    ``silent``, one more monitor type captures a data type that
    evidences no event.
    """
    builder = ModelBuilder("star")
    builder.asset("h", kind=AssetKind.SERVER)
    for t in range(types):
        builder.data_type(f"d{t}", fields=[f"f{t}_{i}" for i in range(fields_per_type)])
        builder.monitor_type(f"m{t}", data_types=[f"d{t}"], cost={"cpu": 1 + t % 3})
        builder.monitor(f"m{t}", "h")
    if silent:
        builder.data_type("dsilent", fields=["quiet"])
        builder.monitor_type("msilent", data_types=["dsilent"], cost={"cpu": 1})
        builder.monitor("msilent", "h")
    builder.event("wide", asset="h")
    builder.event("narrow", asset="h")
    for t in range(types):
        builder.evidence(f"d{t}", "wide", (t + 1) / (types + 1))
    for t in range(min(narrow, types)):
        builder.evidence(f"d{t}", "narrow", 0.9 - 0.1 * t)
    builder.attack("A", steps=["wide", "narrow"], importance=1.0)
    return builder.build()


def _all_monitors(model: SystemModel) -> tuple[str, ...]:
    return tuple(sorted(model.monitors))


@pytest.mark.parametrize("model_seed", MODEL_SEEDS)
@pytest.mark.parametrize("weight_index", range(len(WEIGHT_CHOICES)))
def test_chunk_matches_cursor_walk_on_small_models(model_seed, weight_index):
    model = _small_model(model_seed)
    rng = np.random.default_rng(2000 + model_seed)
    monitor_ids: tuple[str, ...] = ()
    while not monitor_ids:
        monitor_ids = tuple(sorted(_random_deployment(rng, np.array(_all_monitors(model)))))
    _assert_chunk_matches_oracle(model, monitor_ids, WEIGHT_CHOICES[weight_index], model_seed)


def test_event_with_more_than_64_fields_uses_multi_word_bitsets():
    model = _star_model(types=10, fields_per_type=8)
    engine = engine_for(model)
    assert engine.n_words == 2
    _assert_chunk_matches_oracle(model, _all_monitors(model), UtilityWeights())


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_more_providers_than_the_redundancy_cap(cap):
    model = _star_model(types=9, fields_per_type=2)
    weights = UtilityWeights(coverage=0.4, redundancy=0.4, richness=0.2, redundancy_cap=cap)
    _assert_chunk_matches_oracle(model, _all_monitors(model), weights, seed=cap)


def test_one_monitor_deployment():
    model = _star_model(types=4, fields_per_type=2)
    totals = _assert_chunk_matches_oracle(model, ("m2@h",), UtilityWeights())
    base = engine_for(model).utility(["m2@h"], UtilityWeights())
    assert totals[0] == pytest.approx(SHAPLEY_CHUNK * base, rel=1e-12)


def test_monitor_that_evidences_no_event_gets_exactly_zero():
    model = _star_model(types=5, fields_per_type=2, silent=True)
    monitor_ids = _all_monitors(model)
    totals = _assert_chunk_matches_oracle(model, monitor_ids, UtilityWeights())
    assert totals[monitor_ids.index("msilent@h")] == 0.0


def test_unknown_monitor_id_raises():
    model = _star_model(types=3, fields_per_type=1)
    with pytest.raises(UnknownIdError):
        engine_for(model).provider_table(("m0@h", "ghost@h"), UtilityWeights())
    # The bare constructor skips the id check that ``Deployment.of`` makes.
    deployment = Deployment(model=model, monitor_ids=frozenset({"m0@h", "ghost@h"}))
    with pytest.raises(UnknownIdError):
        shapley_values(model, deployment, UtilityWeights(), samples=4, workers=1)


def test_padding_at_most_doubles_the_cells_of_a_300_provider_event():
    model = _star_model(types=300, fields_per_type=1, narrow=5)
    table = EvaluationEngine(model).provider_table(_all_monitors(model), UtilityWeights())
    assert table.entries == 305
    assert table.cells <= 2 * table.entries
