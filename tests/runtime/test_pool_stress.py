"""Stress tests for the persistent pool and zero-copy shared memory.

Four properties the runtime substrate promises:

* **zero-copy parity** — an engine attached from a shared segment (in
  this process or a pool worker) computes exactly what the in-process
  engine computes;
* **zero leaks** — exiting a pool's context manager (cleanly or via an
  exception) unlinks every published segment: nothing remains in
  ``/dev/shm`` and stale handles refuse to attach;
* **one pool per study** — campaign loops routed through one
  :class:`~repro.runtime.pool.PersistentPool` create exactly one
  executor across arbitrarily many maps (the per-call spin-up this
  subsystem exists to eliminate);
* **visible lifecycle** — respawns after a killed worker, idle reaps,
  and per-task queue waits all land on ``pool.*`` instruments.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.runtime.engine import engine_for
from repro.runtime.faults import FaultPlan, FaultSpec, FaultyJob, task_site
from repro.runtime.parallel import parallel_map, spawn_generators
from repro.runtime.pool import (
    SEGMENT_PREFIX,
    PersistentPool,
    PoolError,
    attach_arrays,
    attach_engine,
    detach_all,
    publish_arrays,
    publish_engine,
    use_pool,
)
from repro.runtime.resilience import MapReport
from repro.simulation.campaign import run_campaign, run_campaigns


def _shm_segments() -> set[str]:
    """Names of this module's live segments (empty set off-Linux)."""
    root = Path("/dev/shm")
    if not root.is_dir():
        return set()
    return {p.name for p in root.glob(f"{SEGMENT_PREFIX}-*")}


def _sample_deployments(model, count: int = 6) -> list[frozenset[str]]:
    """Seeded monitor subsets spanning empty to full."""
    ids = sorted(model.monitors)
    picks: list[frozenset[str]] = [frozenset(), frozenset(ids)]
    for rng in spawn_generators(7, count - 2):
        keep = rng.random(len(ids)) < rng.uniform(0.2, 0.8)
        picks.append(frozenset(m for m, k in zip(ids, keep) if k))
    return picks


def _pooled_utility(task):
    """Worker entry point: evaluate a deployment via an attached engine."""
    handle, monitor_ids = task
    return attach_engine(handle).utility(monitor_ids)


class TestZeroCopyParity:
    def test_attached_engine_matches_in_process_oracle(self, toy_model):
        oracle = engine_for(toy_model)
        with PersistentPool(workers=1) as pool:
            handle = publish_engine(toy_model, pool)
            attached = attach_engine(handle)
            for deployed in _sample_deployments(toy_model):
                assert attached.utility(deployed) == oracle.utility(deployed)
                assert attached.components(deployed) == oracle.components(deployed)
        detach_all()

    def test_pool_workers_compute_oracle_utilities(self, web_model):
        """The full zero-copy path: handle-carrying tasks, worker attach."""
        oracle = engine_for(web_model)
        deployments = _sample_deployments(web_model, count=8)
        with PersistentPool(workers=2) as pool:
            handle = publish_engine(web_model, pool)
            results = parallel_map(
                _pooled_utility, [(handle, d) for d in deployments], pool=pool
            )
        assert results == [oracle.utility(d) for d in deployments]

    def test_attached_arrays_are_read_only_views(self):
        payload = {"a": np.arange(12, dtype=np.float64).reshape(3, 4)}
        with PersistentPool(workers=1) as pool:
            views = attach_arrays(pool.share(payload))
            np.testing.assert_array_equal(views["a"], payload["a"])
            with pytest.raises(ValueError):
                views["a"][0, 0] = 99.0
        detach_all()


class TestLeakFreedom:
    def test_clean_exit_unlinks_every_segment(self, toy_model):
        before = _shm_segments()
        with PersistentPool(workers=1) as pool:
            handle = publish_engine(toy_model, pool)
            extra = pool.share({"z": np.ones(1000)})
            if Path("/dev/shm").is_dir():
                live = _shm_segments() - before
                assert handle.arrays.segment in live
                assert extra.segment in live
        assert _shm_segments() == before
        detach_all()

    def test_crash_exit_unlinks_every_segment(self, toy_model):
        """An exception mid-study must leak nothing either."""
        before = _shm_segments()
        with pytest.raises(RuntimeError, match="simulated crash"):
            with PersistentPool(workers=1) as pool:
                publish_engine(toy_model, pool)
                pool.share({"z": np.zeros(64)})
                raise RuntimeError("simulated crash")
        assert _shm_segments() == before
        detach_all()

    def test_stale_handles_refuse_to_attach(self):
        with PersistentPool(workers=1) as pool:
            handle = pool.share({"v": np.arange(8)})
        detach_all()  # drop any cached mapping; the segment is unlinked
        with pytest.raises(PoolError, match="gone"):
            attach_arrays(handle)

    def test_detach_all_releases_the_attachment_cache(self):
        with PersistentPool(workers=1) as pool:
            handle = pool.share({"v": np.arange(4, dtype=np.int64)})
            attach_arrays(handle)
            attach_arrays(handle)  # second call is a cache hit
            assert detach_all() >= 1
            assert detach_all() == 0
            # Re-attach works while the segment is still published.
            views = attach_arrays(handle)
            np.testing.assert_array_equal(views["v"], np.arange(4))
        detach_all()


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
        with pytest.raises(PoolError, match="closed"):
            pool.share({"v": np.zeros(1)})
        # parallel_map simply ignores a closed ambient pool.
        with use_pool(pool):
            assert parallel_map(_double, range(3), workers=1) == [0, 2, 4]

    def test_segment_instruments_fire(self):
        with obs.capture() as cap:
            with PersistentPool(workers=1) as pool:
                handle = pool.share({"v": np.zeros(1024, dtype=np.float64)})
                attach_arrays(handle)
            detach_all()
        counters = cap.registry.snapshot()["counters"]
        assert counters["pool.segments_published"] == 1.0
        assert counters["pool.segment_bytes"] >= 8192
        assert counters["pool.attaches"] == 1.0
        assert counters["pool.detaches"] == 1.0
        assert counters["pool.segments_unlinked"] == 1.0


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestSharedMemoryHousekeeping:
    def test_segment_names_carry_the_recognizable_prefix(self):
        with PersistentPool(workers=1) as pool:
            handle = pool.share({"v": np.zeros(4)})
            assert handle.segment.startswith(f"{SEGMENT_PREFIX}-{os.getpid()}-")

    def test_handle_nbytes_reports_payload_size(self):
        with PersistentPool(workers=1) as pool:
            handle = pool.share(
                {"a": np.zeros(10, dtype=np.float64), "b": np.zeros(3, dtype=np.int32)}
            )
            assert handle.nbytes == 10 * 8 + 3 * 4
