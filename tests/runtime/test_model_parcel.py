"""ModelParcel: a model pickled once per map and unpickled once per worker."""

from __future__ import annotations

import pickle

from repro import obs
from repro.analysis.contribution import SHAPLEY_CHUNK, shapley_values
from repro.metrics.utility import UtilityWeights
from repro.optimize.deployment import Deployment
from repro.runtime.engine import engine_for
from repro.runtime.parallel import parallel_map, spawn_generators
from repro.runtime.pool import ModelParcel, PersistentPool
from tests.conftest import build_toy_builder


def test_in_process_parcel_holds_the_callers_model():
    model = build_toy_builder().build()
    assert ModelParcel(model).model is model


def test_unpickled_parcels_of_one_blob_share_one_model_and_engine():
    model = build_toy_builder().build()
    parcel = ModelParcel(model)
    first, second = pickle.dumps(parcel), pickle.dumps(parcel)
    assert first == second
    a, b = pickle.loads(first), pickle.loads(second)
    assert a.model is b.model
    assert a.model is not model
    assert engine_for(a.model) is engine_for(b.model)
    assert sorted(a.model.monitors) == sorted(model.monitors)


def test_a_different_model_replaces_the_memo():
    builder = build_toy_builder()
    first = pickle.loads(pickle.dumps(ModelParcel(builder.build())))
    other = build_toy_builder()
    other.event("e4", asset="h1")
    second = pickle.loads(pickle.dumps(ModelParcel(other.build())))
    assert "e4" in second.model.events
    assert "e4" not in first.model.events


def test_pooled_shapley_builds_at_most_one_engine_per_worker():
    model = build_toy_builder().build()
    deployment = Deployment.full(model)
    chunks = 6
    engine_for(model)  # the caller's engine; the count below is the workers'
    with obs.capture() as cap:
        shapley_values(
            model, deployment, UtilityWeights(), samples=chunks * SHAPLEY_CHUNK, seed=4, workers=2
        )
    counters = cap.registry.snapshot()["counters"]
    assert counters["parallel.tasks"] == chunks
    assert counters.get("engine.builds", 0) <= 2


def _sample_deployments(model, count: int) -> list[frozenset[str]]:
    """Seeded monitor subsets spanning empty to full."""
    ids = sorted(model.monitors)
    picks: list[frozenset[str]] = [frozenset(), frozenset(ids)]
    for rng in spawn_generators(7, count - 2):
        keep = rng.random(len(ids)) < rng.uniform(0.2, 0.8)
        picks.append(frozenset(m for m, k in zip(ids, keep) if k))
    return picks


def _parcel_utility(task):
    """Worker entry point: evaluate a deployment on the parcel's model."""
    parcel, deployed = task
    return engine_for(parcel.model).utility(deployed)


def test_pool_workers_compute_the_in_process_utilities(web_model):
    oracle = engine_for(web_model)
    deployments = _sample_deployments(web_model, count=8)
    parcel = ModelParcel(web_model)
    with obs.capture() as cap, PersistentPool(workers=2) as pool:
        results = parallel_map(_parcel_utility, [(parcel, d) for d in deployments], pool=pool)
    assert results == [oracle.utility(d) for d in deployments]
    counters = cap.registry.snapshot()["counters"]
    assert counters["pool.created"] == 1.0
    assert "parallel.degraded_maps" not in counters
