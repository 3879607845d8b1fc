"""Differential test of the provider-indexed field lookup.

``reference_fields_for_event`` is the deployment-walking lookup the
model used to run: for every deployed monitor, the fields of each data
type through which it evidences the event.  The model now walks the
event's providers instead; on seeded random models and deployments the
two must agree exactly, and unknown ids must still raise.
"""

from __future__ import annotations

import random

import pytest

from repro.casestudy.scaling import ScalingConfig, synthetic_model
from repro.errors import UnknownIdError

MODELS = [
    ScalingConfig(assets=12, monitor_types=4, monitors=20, attacks=8, seed=seed)
    for seed in range(3)
] + [
    ScalingConfig(
        assets=30, monitor_types=6, monitors=60, attacks=20, seed=seed,
        topology="multizone", zones=3,
    )
    for seed in range(3, 5)
]


def reference_fields_for_event(model, event_id, monitor_ids):
    model.event(event_id)
    fields: set[str] = set()
    for monitor_id in monitor_ids:
        for dt in model.evidencing_data_types(monitor_id, event_id):
            fields |= model.evidence_fields(dt, event_id)
    return frozenset(fields)


def deployments(model, seed):
    ids = sorted(model.monitors)
    rng = random.Random(seed)
    yield frozenset()
    yield frozenset(ids)
    for _ in range(6):
        yield frozenset(rng.sample(ids, rng.randint(1, len(ids))))


@pytest.fixture(scope="module", params=MODELS, ids=lambda c: f"{c.topology}-s{c.seed}")
def model(request):
    return synthetic_model(request.param)


def test_matches_reference_on_seeded_deployments(model):
    for deployed in deployments(model, seed=11):
        for event_id in sorted(model.events):
            expected = reference_fields_for_event(model, event_id, sorted(deployed))
            assert model.fields_for_event(event_id, deployed) == expected, event_id
            assert model.fields_for_event(event_id, list(deployed)) == expected, event_id


def test_single_pass_iterables(model):
    for deployed in deployments(model, seed=12):
        for event_id in sorted(model.events):
            expected = reference_fields_for_event(model, event_id, deployed)
            assert model.fields_for_event(event_id, iter(sorted(deployed))) == expected
            assert model.fields_for_event(event_id, (m for m in deployed)) == expected


def test_max_fields_match_all_monitor_reference(model):
    everything = sorted(model.monitors)
    for event_id in model.events:
        expected = reference_fields_for_event(model, event_id, everything)
        assert model.max_fields_for_event(event_id) == expected


def test_provider_fields_cover_exactly_the_providers(model):
    for event_id in model.events:
        by_provider = model.provider_fields(event_id)
        assert set(by_provider) == set(model.monitors_for_event(event_id))
        for monitor_id, fields in by_provider.items():
            assert fields == reference_fields_for_event(model, event_id, [monitor_id])


def test_unknown_ids_still_raise(model):
    event_id = sorted(model.events)[0]
    some = sorted(model.monitors)[:3]
    for deployed in (["ghost"], some + ["ghost"], iter(some + ["ghost", "zz"])):
        with pytest.raises(UnknownIdError) as raised:
            model.fields_for_event(event_id, deployed)
        assert raised.value.kind == "monitor"
        assert raised.value.identifier == "ghost"
    with pytest.raises(UnknownIdError):
        model.fields_for_event("no-such-event", some)
    with pytest.raises(UnknownIdError):
        model.max_fields_for_event("no-such-event")
    with pytest.raises(UnknownIdError):
        model.provider_fields("no-such-event")
