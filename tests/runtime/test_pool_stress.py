"""Stress tests for the persistent pool.

Two properties the runtime substrate promises:

* **one pool per study** — campaign loops routed through one
  :class:`~repro.runtime.pool.PersistentPool` create exactly one
  executor across arbitrarily many maps (the per-call spin-up this
  subsystem exists to eliminate);
* **visible lifecycle** — respawns after a killed worker, idle reaps,
  and per-task queue waits all land on ``pool.*`` instruments.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.runtime.faults import FaultPlan, FaultSpec, FaultyJob, task_site
from repro.runtime.parallel import parallel_map
from repro.runtime.pool import PersistentPool, PoolError, use_pool
from repro.runtime.resilience import MapReport
from repro.simulation.campaign import run_campaign, run_campaigns


class TestOnePoolPerStudy:
    def test_multi_campaign_study_creates_exactly_one_executor(self, toy_model):
        """The per-call spin-up fix: N maps, one ``pool.created``."""
        from repro.optimize.deployment import Deployment

        full = Deployment.of(toy_model, frozenset(toy_model.monitors))
        with obs.capture() as cap:
            with PersistentPool(workers=2) as pool:
                for round_ in range(3):
                    run_campaigns(
                        toy_model,
                        full,
                        seeds=[10 * round_, 10 * round_ + 1],
                        pool=pool,
                        repetitions=1,
                    )
        counters = cap.registry.snapshot()["counters"]
        assert counters["pool.created"] == 1.0
        assert counters["parallel.maps"] == 3.0

    def test_pooled_campaigns_match_serial_campaigns(self, toy_model):
        from repro.optimize.deployment import Deployment

        full = Deployment.of(toy_model, frozenset(toy_model.monitors))
        seeds = [0, 1, 2]
        serial = [
            run_campaign(toy_model, full, seed=s, repetitions=1) for s in seeds
        ]
        with PersistentPool(workers=2) as pool, use_pool(pool):
            pooled = run_campaigns(toy_model, full, seeds=seeds, repetitions=1)
        for a, b in zip(serial, pooled):
            assert a.detection_rate == b.detection_rate
            assert a.observations == b.observations
            assert a.duration == b.duration

    def test_ambient_pool_is_scoped(self):
        from repro.runtime.pool import active_pool

        assert active_pool() is None
        with PersistentPool(workers=1) as pool, use_pool(pool):
            assert active_pool() is pool
        assert active_pool() is None


def _double(x: int) -> int:
    return 2 * x


class TestLifecycle:
    def test_killed_worker_respawns_and_results_are_oracle(self, tmp_path):
        state = tmp_path / "state"
        state.mkdir()
        plan = FaultPlan.of(state, {task_site(3): FaultSpec(kind="exit", times=1)})
        report = MapReport()
        with obs.capture() as cap:
            with PersistentPool(workers=2) as pool:
                results = parallel_map(
                    FaultyJob(_double, plan), range(8), pool=pool, report=report
                )
                assert pool.respawns == 1
        assert results == [2 * x for x in range(8)]
        assert not report.degraded  # the pool recovered; no serial rerun
        counters = cap.registry.snapshot()["counters"]
        assert counters["pool.respawns"] == 1.0
        assert counters["pool.created"] == 2.0  # original + respawn

    def test_idle_reap_and_lazy_recreation(self):
        with obs.capture() as cap:
            with PersistentPool(workers=2) as pool:
                assert "pool.created" not in cap.registry.snapshot()["counters"]
                assert parallel_map(_double, range(4), pool=pool) == [0, 2, 4, 6]
                assert parallel_map(_double, range(4), pool=pool) == [0, 2, 4, 6]
        counters = cap.registry.snapshot()["counters"]
        assert counters["pool.created"] == 1.0

    def test_queue_wait_histogram_records_every_pooled_task(self):
        with obs.capture() as cap:
            with PersistentPool(workers=2) as pool:
                parallel_map(_double, range(6), pool=pool)
        histograms = cap.registry.snapshot()["histograms"]
        assert histograms["pool.queue_wait_seconds"]["count"] == 6

    def test_closed_pool_refuses_use(self):
        pool = PersistentPool(workers=1)
        pool.close()
        assert pool.closed
        with pytest.raises(PoolError, match="closed"):
            pool.executor()
        # parallel_map simply ignores a closed ambient pool.
        with use_pool(pool):
            assert parallel_map(_double, range(3), workers=1) == [0, 2, 4]
