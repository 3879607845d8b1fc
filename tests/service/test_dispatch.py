"""Every job kind reaches the solver the same way.

A job's backend name reaches the solve whatever the job kind:
``"fallback"`` is just another backend.
"""

from __future__ import annotations

import pytest

from repro.optimize.deployment import OptimizationResult
from repro.service import JobKind, JobStatus, ServiceConfig, SolveRequest
from tests.conftest import build_toy_builder
from tests.service.conftest import run_jobs

pytestmark = pytest.mark.service

#: Each job kind's requirement fields.
REQUIREMENTS = {
    JobKind.MAX_UTILITY: dict(budget_fraction=0.5),
    JobKind.MIN_COST: dict(min_utility=0.4),
    JobKind.SWEEP: dict(fractions=(0.2, 0.5)),
    JobKind.FRONTIER: dict(max_points=4),
}


def _deployments(value) -> list[tuple[str, ...]]:
    """The sorted monitor ids of every deployment in a job's value."""
    if isinstance(value, OptimizationResult):
        return [tuple(sorted(value.deployment.monitor_ids))]
    points = [getattr(point, "result", point) for point in value]
    return [tuple(sorted(point.deployment.monitor_ids)) for point in points]


def test_fallback_jobs_of_every_kind_match_scipy():
    model = build_toy_builder().build()
    requests = [
        SolveRequest(tenant="t0", kind=kind, model=model, backend=backend, **fields)
        for kind, fields in REQUIREMENTS.items()
        for backend in ("fallback", "scipy")
    ]
    results = run_jobs(requests, ServiceConfig(workers=1))
    for result in results:
        assert result.status is JobStatus.SUCCEEDED, result.failure
    for fallback, scipy in zip(results[::2], results[1::2]):
        assert fallback.kind is scipy.kind
        assert _deployments(fallback.value) == _deployments(scipy.value)

