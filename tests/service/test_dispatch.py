"""Every job kind reaches the solver the same way.

A job's backend name and the service's ``bb_workers`` reach the solve
whatever the job kind: ``"fallback"`` is just another backend, and
frontier jobs fan branch and bound out like sweeps and max-utility jobs.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.casestudy.scaling import ScalingConfig, synthetic_model
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


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


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


def test_frontier_jobs_honour_bb_workers():
    model = synthetic_model(
        ScalingConfig(assets=30, monitor_types=6, monitors=60, attacks=30, seed=3)
    )
    request = SolveRequest(
        tenant="t0", kind="frontier", model=model, backend="branch-and-bound", max_points=3
    )
    with obs.capture() as cap:
        (result,) = run_jobs([request], ServiceConfig(workers=1, bb_workers=2))
    assert result.status is JobStatus.SUCCEEDED, result.failure
    names = {span.name for root in cap.tracer.roots for span in _walk(root)}
    assert "solver.parallel_bb" in names
