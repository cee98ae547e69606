"""Unit tests for the persistent warm worker pools."""

import os

import pytest

from repro.util.workerpool import (
    WorkerPool,
    default_processes,
    get_pool,
    resolve_processes,
    shutdown_pools,
)


def square(x):
    return x * x


class TestResolveProcesses:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "7")
        assert resolve_processes(3) == 3

    def test_env_var_used_when_no_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "5")
        assert resolve_processes() == 5

    def test_invalid_env_var_falls_back_to_cpu(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "banana")
        assert resolve_processes() == resolve_processes(os.cpu_count() or 1)

    def test_nonpositive_env_var_ignored(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "0")
        assert resolve_processes() >= 1

    def test_floor_is_one(self):
        assert resolve_processes(0) == 1
        assert resolve_processes(-4) == 1

    def test_env_var_reaches_shared_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROCESSES", "1")
        pool = get_pool()
        assert pool.processes == 1
        # Serial path: works even for lambdas, which cannot be pickled —
        # proof no pool was involved.
        assert pool.map(lambda x: x + 1, [1, 2]) == [2, 3]
        assert not pool.started

    def test_default_processes_positive(self):
        assert default_processes() >= 1


class TestWorkerPool:
    def test_lazy_no_processes_until_parallel_call(self):
        pool = WorkerPool(processes=2)
        assert not pool.started
        assert pool.map(square, [3]) == [9]  # single item: still serial
        assert not pool.started

    def test_serial_pool_never_starts(self):
        with WorkerPool(processes=1) as pool:
            assert pool.map(square, range(10)) == [x * x for x in range(10)]
            assert not pool.started

    def test_parallel_map_matches_serial(self):
        with WorkerPool(processes=2) as pool:
            items = list(range(12))
            assert pool.map(square, items) == [x * x for x in items]
            assert pool.started

    def test_pool_is_reused_across_calls(self):
        with WorkerPool(processes=2) as pool:
            pool.map(square, range(4))
            first = pool._pool
            pool.map(square, range(4))
            assert pool._pool is first

    def test_shutdown_is_idempotent_and_restartable(self):
        pool = WorkerPool(processes=2)
        pool.map(square, range(4))
        pool.shutdown()
        pool.shutdown()
        assert not pool.started
        assert pool.map(square, range(4)) == [x * x for x in range(4)]
        pool.shutdown()

    def test_imap_unordered_yields_all_results(self):
        with WorkerPool(processes=2) as pool:
            out = sorted(pool.imap_unordered(square, range(8)))
            assert out == sorted(x * x for x in range(8))

    def test_imap_unordered_serial_preserves_input_order(self):
        pool = WorkerPool(processes=1)
        assert list(pool.imap_unordered(square, range(5))) == [
            x * x for x in range(5)
        ]
        assert not pool.started


class TestSharedPools:
    def test_get_pool_keyed_by_worker_count(self):
        try:
            assert get_pool(2) is get_pool(2)
            assert get_pool(2) is not get_pool(3)
        finally:
            shutdown_pools()

    def test_shutdown_pools_clears_registry(self):
        a = get_pool(2)
        shutdown_pools()
        assert get_pool(2) is not a
        shutdown_pools()

    def test_replication_engine_draws_from_shared_pool(self):
        from repro.sim.replication import CellSpec, ReplicationEngine

        spec = CellSpec(n=3, rho=0.5, warmup=5, horizon=40, seeds=(0, 1))
        try:
            pool = get_pool(2)
            pooled = ReplicationEngine(processes=2).run(spec)
            assert [r.seed for r in pooled.replications] == [0, 1]
            assert pool.started
        finally:
            shutdown_pools()


class TestSharedPoolMap:
    """The ordered map of the shared pools (serial for trivial input)."""

    def test_serial_path(self):
        assert get_pool(1).map(square, [1, 2, 3]) == [1, 4, 9]

    def test_preserves_order(self):
        items = list(range(20))
        try:
            assert get_pool(2).map(square, items) == [x * x for x in items]
        finally:
            shutdown_pools()

    def test_empty_input(self):
        assert get_pool(4).map(square, []) == []

    def test_single_item_runs_serial(self):
        # A lambda cannot be pickled: only the in-process path can run it.
        assert get_pool(2).map(lambda x: x * x, [7]) == [49]

    def test_parallel_matches_serial(self):
        items = list(range(10))
        try:
            assert get_pool(3).map(square, items) == get_pool(1).map(
                square, items
            )
        finally:
            shutdown_pools()
