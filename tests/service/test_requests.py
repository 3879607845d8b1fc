"""Request validation and the digests deduplication keys on."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.metrics.utility import UtilityWeights
from repro.service import (
    JobKind,
    RequestValidationError,
    SolveRequest,
    model_digest,
    request_digest,
)
from tests.conftest import build_toy_builder

pytestmark = pytest.mark.service


def valid_request(**overrides) -> SolveRequest:
    base = dict(
        tenant="t0", kind="max-utility", model_ref="abc123", budget_fraction=0.5
    )
    base.update(overrides)
    return SolveRequest(**base)


class TestValidation:
    def test_valid_request_has_no_problems(self):
        assert valid_request().problems() == []
        assert valid_request().validate() is not None

    def test_kind_coerces_from_string(self):
        assert valid_request().kind is JobKind.MAX_UTILITY
        with pytest.raises(ValueError):
            valid_request(kind="nope")

    def test_sequences_normalize_to_tuples(self):
        request = SolveRequest(
            tenant="t0",
            kind="sweep",
            model_ref="abc",
            fractions=[0.2, 0.4],
            fully_cover=["h1"],
            forced_monitors=["m1"],
        )
        assert request.fractions == (0.2, 0.4)
        assert request.fully_cover == ("h1",)
        assert request.forced_monitors == ("m1",)

    def test_exactly_one_model_source(self):
        model = build_toy_builder().build()
        assert "exactly one of model / model_ref" in " ".join(
            valid_request(model=model).problems()
        )
        assert "exactly one of model / model_ref" in " ".join(
            valid_request(model_ref=None).problems()
        )

    def test_empty_tenant_rejected(self):
        assert any("tenant" in p for p in valid_request(tenant="  ").problems())

    def test_unknown_backend_rejected(self):
        assert any("backend" in p for p in valid_request(backend="cplex").problems())

    @pytest.mark.parametrize("backend", ["parallel-bb", "enumeration"])
    def test_solution_stamps_and_test_oracles_are_not_backends(self, backend):
        with pytest.raises(RequestValidationError, match="unknown backend"):
            valid_request(backend=backend).validate()

    def test_fallback_backend_is_valid_for_every_kind(self):
        requirements = {
            JobKind.MAX_UTILITY: dict(budget_fraction=0.5),
            JobKind.MIN_COST: dict(min_utility=0.4),
            JobKind.SWEEP: dict(fractions=(0.5,)),
            JobKind.FRONTIER: {},
        }
        assert set(requirements) == set(JobKind)
        for kind, fields in requirements.items():
            request = SolveRequest(
                tenant="t0", kind=kind, model_ref="abc", backend="fallback", **fields
            )
            assert request.problems() == [], kind

    def test_max_utility_needs_exactly_one_budget(self):
        assert valid_request(budget_fraction=None).problems()
        assert valid_request(budget_limits={"cpu": 4}).problems()
        assert valid_request(budget_fraction=None, budget_limits={"cpu": 4}).problems() == []

    def test_min_cost_needs_a_requirement(self):
        bare = SolveRequest(tenant="t0", kind="min-cost", model_ref="abc")
        assert any("min-cost" in p for p in bare.problems())
        assert valid_request(kind="min-cost", budget_fraction=None, min_utility=1.5).problems()
        assert (
            valid_request(kind="min-cost", budget_fraction=None, min_utility=0.4).problems()
            == []
        )

    def test_sweep_needs_nonnegative_fractions(self):
        bare = SolveRequest(tenant="t0", kind="sweep", model_ref="abc")
        assert any("sweep" in p for p in bare.problems())
        bad = SolveRequest(tenant="t0", kind="sweep", model_ref="abc", fractions=(-0.1,))
        assert any(">= 0" in p for p in bad.problems())

    def test_frontier_knob_bounds(self):
        bad = SolveRequest(
            tenant="t0", kind="frontier", model_ref="abc", epsilon=0.0, max_points=0
        )
        problems = bad.problems()
        assert any("epsilon" in p for p in problems)
        assert any("max_points" in p for p in problems)

    def test_scalar_bounds(self):
        assert valid_request(budget_fraction=-0.5).problems()
        assert valid_request(budget_limits={"cpu": -1}, budget_fraction=None).problems()
        assert valid_request(deadline=0.0).problems()
        assert valid_request(time_limit=-1.0).problems()
        assert valid_request(max_monitors=-1).problems()

    def test_validate_lists_every_problem(self):
        request = SolveRequest(
            tenant="", kind="max-utility", model_ref="abc", backend="cplex", deadline=-1
        )
        with pytest.raises(RequestValidationError) as excinfo:
            request.validate()
        problems = excinfo.value.problems
        assert len(problems) >= 4
        for problem in problems:
            assert problem in str(excinfo.value)


class TestSite:
    def test_site_uses_job_id_when_present(self):
        assert valid_request(job_id="j7").site == "service.job.t0.j7"

    def test_site_falls_back_to_kind(self):
        assert valid_request().site == "service.job.t0.max-utility"


class TestDigests:
    def test_model_digest_is_structural(self):
        a = build_toy_builder().build()
        b = build_toy_builder().build()
        assert a is not b
        assert model_digest(a) == model_digest(b)

    def test_model_digest_is_memoized(self):
        model = build_toy_builder().build()
        assert model_digest(model) == model_digest(model)

    def test_request_digest_ignores_scheduling_fields(self):
        base = valid_request(job_id="a", deadline=5.0)
        for variant in (
            replace(base, job_id="b"),
            replace(base, deadline=99.0),
            replace(base, tenant="someone-else"),
        ):
            assert request_digest(variant, "md") == request_digest(base, "md")

    def test_request_digest_covers_result_shaping_fields(self):
        base = valid_request()
        digests = {
            request_digest(base, "md"),
            request_digest(replace(base, budget_fraction=0.6), "md"),
            request_digest(replace(base, backend="branch-and-bound"), "md"),
            request_digest(replace(base, weights=UtilityWeights(coverage=1.0, redundancy=0.0, richness=0.0)), "md"),
            request_digest(replace(base, max_nodes=10), "md"),
            request_digest(base, "other-model"),
        }
        assert len(digests) == 6

    def test_request_digest_bytes_are_pinned(self):
        # The canonical payload (weights as a 4-field list) must not drift:
        # result-cache keys and digests shared across processes depend on it.
        weights = UtilityWeights(coverage=0.5, redundancy=0.3, richness=0.2, redundancy_cap=4)
        assert request_digest(valid_request(), "md") == "466001a60d3137e6db9fea56697016cc"
        assert (
            request_digest(valid_request(weights=weights), "md")
            == "cc08600c3645600d8843f44f6e70a4ba"
        )
