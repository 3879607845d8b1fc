"""Unit tests for the parallel map and deterministic seed spawning."""

import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.runtime.parallel import (
    WORKERS_ENV,
    parallel_map,
    resolve_workers,
    spawn_generators,
    spawn_seeds,
)
from repro.runtime.pool import SEGMENT_PREFIX, PersistentPool, use_pool
from repro.runtime.resilience import RetryPolicy


def _square(x):
    return x * x


def _counted_square(x):
    obs.counter("test.parallel.threaded_jobs").inc()
    return x * x


def _draw(seed_seq):
    return float(np.random.default_rng(seed_seq).random())


def _pid(_):
    return os.getpid()


def _nested_pids(_):
    """An outer task that runs a 2-worker map of its own."""
    return os.getpid(), parallel_map(_pid, range(4), workers=2)


def _shm_segments() -> set[str]:
    root = Path("/dev/shm")
    return {p.name for p in root.glob(f"{SEGMENT_PREFIX}-*")} if root.is_dir() else set()


class TestResolveWorkers:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "8")
        assert resolve_workers(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert resolve_workers() == 4

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers() == 1

    def test_garbage_environment_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "many")
        assert resolve_workers() == 1

    def test_never_below_one(self):
        assert resolve_workers(0) == 1
        assert resolve_workers(-5) == 1


class TestSpawnSeeds:
    def test_deterministic_per_position(self):
        first = spawn_seeds(7, 5)
        second = spawn_seeds(7, 5)
        assert [s.entropy for s in first] == [s.entropy for s in second]
        assert [_draw(s) for s in first] == [_draw(s) for s in second]

    def test_prefix_stability(self):
        # Asking for more children must not change the earlier ones.
        short = spawn_seeds(7, 2)
        long = spawn_seeds(7, 6)
        assert [_draw(s) for s in short] == [_draw(s) for s in long[:2]]

    def test_children_are_independent(self):
        draws = [_draw(s) for s in spawn_seeds(0, 10)]
        assert len(set(draws)) == 10

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawn_generators(self):
        gens = spawn_generators(3, 4)
        assert len(gens) == 4
        assert all(isinstance(g, np.random.Generator) for g in gens)


class TestParallelMap:
    def test_serial_map_preserves_order(self):
        assert parallel_map(_square, range(10), workers=1) == [x * x for x in range(10)]

    def test_pool_map_preserves_order(self):
        assert parallel_map(_square, range(10), workers=2) == [x * x for x in range(10)]

    def test_unpicklable_job_falls_back_to_serial(self):
        offset = 100
        assert parallel_map(lambda x: x + offset, range(5), workers=2) == [
            x + 100 for x in range(5)
        ]

    def test_empty_input(self):
        assert parallel_map(_square, [], workers=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_square, [3], workers=4) == [9]

    def test_chunksize_does_not_change_results(self):
        assert parallel_map(_square, range(20), workers=2, chunksize=5) == [
            x * x for x in range(20)
        ]

    def test_threaded_observed_maps_keep_the_ambient_registry(self):
        # Regression: serial maps under a tracing capture wrap each job
        # in its own obs.capture, which swaps the process-global
        # ambient instruments.  Run from many threads at once (the
        # solve service does), interleaved enter/exit used to violate
        # the LIFO restore and strand the ambient registry on a dead
        # per-task capture — every counter written afterwards vanished.
        rounds, jobs = 8, 5
        with obs.capture() as cap:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(parallel_map, _counted_square, list(range(jobs)), workers=1)
                    for _ in range(rounds)
                ]
                results = [f.result() for f in futures]
            assert obs.registry() is cap.registry
        assert results == [[x * x for x in range(jobs)] for _ in range(rounds)]
        expected = float(rounds * jobs)
        assert cap.registry.counter("test.parallel.threaded_jobs").value == expected


class TestNestedForkGuard:
    """A map inside a worker runs in that worker: no pool forks from a fork."""

    # A nested map that does fork (or drives an inherited pool) can hang;
    # the timeout turns that into a failure instead.
    POLICY = RetryPolicy(timeout=30)

    def _assert_nested_maps_ran_in_process(self, run):
        before = _shm_segments()
        with obs.capture() as cap:
            outer = run()
        assert len(outer) == 2
        for worker_pid, inner_pids in outer:
            assert worker_pid != os.getpid()
            assert inner_pids == [worker_pid] * 4
        assert cap.registry.counter("parallel.nested_serial").value == 2.0
        assert _shm_segments() == before

    def test_nested_map_without_a_pool(self):
        self._assert_nested_maps_ran_in_process(
            lambda: parallel_map(_nested_pids, range(2), workers=2, policy=self.POLICY)
        )

    def test_nested_map_under_an_ambient_pool(self):
        def run():
            with PersistentPool(workers=2) as pool, use_pool(pool):
                return parallel_map(_nested_pids, range(2), policy=self.POLICY)

        self._assert_nested_maps_ran_in_process(run)
