"""Tests for SystemModel: integrity checking and derived indices."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import AssetKind, ModelBuilder
from repro.errors import UnknownIdError, ValidationError

from tests.conftest import build_toy_builder


class TestIntegrity:
    def test_monitor_with_unknown_type(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.monitor("ghost-type", "a")
        with pytest.raises(ValidationError, match="unknown type"):
            builder.build()

    def test_monitor_at_unknown_asset(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.data_type("d")
        builder.monitor_type("mt", data_types=["d"])
        builder.monitor("mt", "ghost")
        with pytest.raises(ValidationError, match="unknown asset"):
            builder.build()

    def test_monitor_at_incompatible_kind(self):
        builder = ModelBuilder()
        builder.asset("a", kind=AssetKind.SERVER)
        builder.data_type("d")
        builder.monitor_type("mt", data_types=["d"], deployable_kinds=[AssetKind.DATABASE])
        builder.monitor("mt", "a")
        with pytest.raises(ValidationError, match="not deployable"):
            builder.build()

    def test_monitor_type_with_unknown_data_type(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.monitor_type("mt", data_types=["ghost"])
        with pytest.raises(ValidationError, match="unknown data type"):
            builder.build()

    def test_event_at_unknown_asset(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.event("e", asset="ghost")
        with pytest.raises(ValidationError, match="unknown asset"):
            builder.build()

    def test_evidence_with_unknown_refs(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.event("e", asset="a")
        builder.evidence("ghost-dt", "e")
        with pytest.raises(ValidationError, match="unknown data type"):
            builder.build()

    def test_evidence_with_unknown_field(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.data_type("d", fields=["f1"])
        builder.event("e", asset="a")
        builder.evidence("d", "e", fields_used=["f1", "ghost"])
        with pytest.raises(ValidationError, match="absent from"):
            builder.build()

    def test_attack_with_unknown_event(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.attack("atk", steps=["ghost-event"])
        with pytest.raises(ValidationError, match="unknown event"):
            builder.build()

    def test_all_problems_reported_at_once(self):
        builder = ModelBuilder()
        builder.asset("a")
        builder.monitor("ghost-type", "a")
        builder.event("e", asset="ghost")
        with pytest.raises(ValidationError) as excinfo:
            builder.build()
        assert len(excinfo.value.problems) >= 2


class TestCoverageRelation:
    def test_monitors_for_event_host_scope(self, toy_model):
        providers = toy_model.monitors_for_event("e1")
        assert providers == {"mlog@h1": 1.0, "mnet@n1": 0.5}

    def test_network_scope_reaches_neighbors(self, toy_model):
        # mnet@n1 observes h2 through the n1--h2 link
        assert toy_model.monitors_for_event("e2") == {"mdb@h2": 0.8, "mnet@n1": 0.4}

    def test_host_monitor_does_not_reach_other_assets(self, toy_model):
        # mlog@h1 generates dlog, which evidences e3 at h2 — but cannot see h2
        assert "mlog@h1" not in toy_model.monitors_for_event("e3")
        assert toy_model.monitors_for_event("e3") == {"mlog@h2": 0.6}

    def test_events_for_monitor_is_transpose(self, toy_model):
        for monitor_id in toy_model.monitors:
            for event_id, weight in toy_model.events_for_monitor(monitor_id).items():
                assert toy_model.monitors_for_event(event_id)[monitor_id] == weight

    def test_evidencing_data_types(self, toy_model):
        assert toy_model.evidencing_data_types("mnet@n1", "e1") == frozenset({"dnet"})
        assert toy_model.evidencing_data_types("mnet@n1", "e3") == frozenset()

    def test_unknown_ids_raise(self, toy_model):
        with pytest.raises(UnknownIdError):
            toy_model.monitors_for_event("ghost")
        with pytest.raises(UnknownIdError):
            toy_model.events_for_monitor("ghost")
        with pytest.raises(UnknownIdError):
            toy_model.evidencing_data_types("ghost", "e1")


class TestAttackIndices:
    def test_attacks_using_event(self, toy_model):
        assert toy_model.attacks_using_event("e1") == frozenset({"A"})
        assert toy_model.attacks_using_event("e2") == frozenset({"A", "B"})

    def test_coverable_events(self, toy_model):
        assert toy_model.coverable_events() == frozenset({"e1", "e2", "e3"})

    def test_uncovered_event_excluded(self):
        builder = build_toy_builder()
        builder.event("orphan", asset="h1")
        model = builder.build()
        assert "orphan" not in model.coverable_events()


class TestCosts:
    def test_monitor_cost(self, toy_model):
        assert toy_model.monitor_cost("mnet@n1").as_dict() == {"cpu": 4, "network": 2}

    def test_deployment_cost_sums(self, toy_model):
        cost = toy_model.deployment_cost(["mlog@h1", "mdb@h2"])
        assert cost.as_dict() == {"cpu": 5, "storage": 1}

    def test_total_cost(self, toy_model):
        total = toy_model.total_cost()
        assert total.get("cpu") == 2 + 2 + 4 + 3
        assert total.get("storage") == 2
        assert total.get("network") == 2

    def test_cost_bits_do_not_depend_on_the_hash_seed(self):
        """Float sums must not follow set iteration order.

        Under ``PYTHONHASHSEED`` 0 and 1 a frozenset of monitor ids (and
        a set of cost dimensions) iterates in different orders; a sum in
        that order differs in the last bit.  Both the cost of a
        frozenset deployment and the frontier's first scalar cost must
        come out bit-identical.
        """
        script = (
            "from repro.casestudy.scaling import ScalingConfig, synthetic_model\n"
            "from repro.optimize.frontier import exact_frontier\n"
            "m = synthetic_model(ScalingConfig(assets=30, monitor_types=6, "
            "monitors=60, attacks=30, seed=3))\n"
            "ids = frozenset(sorted(m.monitors)[:40])\n"
            "print(m.deployment_cost(ids).scalarize().hex())\n"
            "print(exact_frontier(m)[0].scalar_cost.hex())\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestFields:
    def test_max_fields_for_event(self, toy_model):
        assert toy_model.max_fields_for_event("e1") == frozenset({"f1", "f2", "f3"})

    def test_fields_for_event_subset(self, toy_model):
        assert toy_model.fields_for_event("e1", ["mnet@n1"]) == frozenset({"f2", "f3"})
        assert toy_model.fields_for_event("e1", []) == frozenset()

    def test_evidence_fields_defaults_to_all(self, toy_model):
        assert toy_model.evidence_fields("dlog", "e1") == frozenset({"f1", "f2"})

    def test_evidence_fields_respects_restriction(self):
        builder = build_toy_builder()
        builder.event("e4", asset="h1")
        builder.evidence("dlog", "e4", fields_used=["f1"])
        model = builder.build()
        assert model.evidence_fields("dlog", "e4") == frozenset({"f1"})

    def test_no_evidence_pair_returns_empty(self, toy_model):
        assert toy_model.evidence_fields("ddb", "e1") == frozenset()


class TestStats:
    def test_stats_counts(self, toy_model):
        stats = toy_model.stats()
        assert stats == {
            "assets": 3,
            "links": 2,
            "data_types": 3,
            "monitor_types": 3,
            "monitors": 4,
            "events": 3,
            "evidence": 5,
            "attacks": 2,
        }

    def test_repr_mentions_counts(self, toy_model):
        assert "4 monitors" in repr(toy_model)
