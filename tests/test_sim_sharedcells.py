"""Tests for the shared-memory replication fan-out.

The contract under test: publishing a batch's cell state into shared
memory and running replications on a warm pool changes *nothing* about
the results — same-seed outputs are bit-identical to the serial
in-process path for every registered engine — while the per-job payload
shrinks to a token-sized tuple and every shared block is unlinked.
"""

import gc
import math
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.scenarios import resolve_cell
from repro.sim import sharedcells
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.sim.sharedcells import (
    SharedCellBatch,
    publish_cells,
    run_seed_chunk,
    warm_cell,
)

WINDOW = dict(warmup=30, horizon=250)


def _resolved(spec):
    return (spec, *resolve_cell(spec))


class TestPublish:
    def test_block_holds_only_the_pickled_registry(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        entry = _resolved(spec)
        with publish_cells([entry]) as batch:
            name, reg_off, reg_len = batch.token
            assert reg_off == 0
            cells = pickle.loads(bytes(batch._shm.buf[:reg_len]))
        assert cells == [entry]

    def test_publish_builds_no_cache_in_the_parent(self):
        sharedcells._NETWORK_MEMO.clear()
        specs = [
            CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW),
            CellSpec(scenario="randomized", n=4, rho=0.5, **WINDOW),
        ]
        with publish_cells([_resolved(spec) for spec in specs]):
            assert not sharedcells._NETWORK_MEMO

    def test_job_payload_is_token_sized(self):
        """The acceptance criterion: no network/arena in the pickled job."""
        spec = CellSpec(scenario="uniform", n=8, rho=0.8, **WINDOW)
        with publish_cells([_resolved(spec)]) as batch:
            job = (batch.token, 0, 0, spec.seeds)
            assert len(pickle.dumps(job)) < 512

    def test_close_is_idempotent_and_unlinks(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        batch = SharedCellBatch([_resolved(spec)])
        name = batch.token[0]
        batch.close()
        batch.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    def test_warm_cell_precomputes_small_networks(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, engine="slotted", **WINDOW)
        _net, cache = warm_cell(*_resolved(spec))
        assert cache.complete

    def test_warm_cell_skips_large_networks(self):
        """Past the precompute limit a cell shares no path cache at all."""
        side = math.isqrt(sharedcells.PRECOMPUTE_NODE_LIMIT) + 1
        spec = CellSpec(scenario="uniform", n=side, rho=0.5, **WINDOW)
        _net, cache = warm_cell(*_resolved(spec))
        assert cache is None


class TestWarmOnlyCachesRunsRead:
    """warm_cell precomputes a cell's path cache only when some run of
    the cell looks paths up in it: not for rushed or numpy cells, nor for
    python fifo cells the kernel's level path solves."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(),
            dict(engine="finite"),
            dict(engine="rushed"),
            dict(engine_params=(("backend", "numpy"),)),
            dict(engine="slotted", engine_params=(("backend", "numpy"),)),
        ],
        ids=["fifo-level-path", "finite-unbounded", "rushed", "numpy", "slotted-numpy"],
    )
    def test_cache_left_cold(self, kw):
        sharedcells._NETWORK_MEMO.clear()
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW, **kw)
        _net, cache = warm_cell(*_resolved(spec))
        assert len(cache) == 0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(track_maxima=True),
            dict(collect_delays=True),
            dict(engine="finite", engine_params=(("buffer_size", 2),)),
            dict(engine="slotted"),
            dict(engine="ps"),
            dict(scenario="randomized"),
            dict(service="exponential"),
        ],
        ids=["maxima", "delays", "capped", "slotted", "ps", "randomized", "exponential"],
    )
    def test_cache_warmed(self, kw):
        sharedcells._NETWORK_MEMO.clear()
        spec = CellSpec(**{"scenario": "uniform", **kw}, n=4, rho=0.5, **WINDOW)
        _net, cache = warm_cell(*_resolved(spec))
        assert cache.complete

    def test_over_budget_cell_is_warmed(self, monkeypatch):
        from repro.sim.kernels import python_backend

        monkeypatch.setattr(python_backend, "NUMPY_VISIT_BUDGET", 10)
        sharedcells._NETWORK_MEMO.clear()
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        _net, cache = warm_cell(*_resolved(spec))
        assert cache.complete

    def test_cyclic_fallback_fills_the_cache_lazily(self):
        """A torus run passes every cheap check, so its cell is not
        warmed; its routes are cyclic, so it runs on the merge loop,
        which routes its pairs into the cache as it meets them."""
        sharedcells._NETWORK_MEMO.clear()
        spec = CellSpec(scenario="torus", n=4, rho=0.5, seeds=(0,), **WINDOW)
        entry = _resolved(spec)
        _net, cache = warm_cell(*entry)
        assert len(cache) == 0
        serial = ReplicationEngine(processes=1).run(spec)
        assert 0 < len(cache) < 16 * 16
        with publish_cells([entry]) as batch:
            sharedcells._NETWORK_MEMO.clear()
            _idx, _pos, (res,) = run_seed_chunk((batch.token, 0, 0, spec.seeds))
        assert res.mean_delay == serial.replications[0].mean_delay


class TestLargeCells:
    """A 12x12 mesh (144 nodes) is past PRECOMPUTE_NODE_LIMIT: its cell
    shares the network but no path cache."""

    def test_runs_free_their_private_caches(self, monkeypatch):
        from repro.sim import enginecommon

        caches = []
        resolve = enginecommon.resolve_path_cache

        def tracked(router, *, path_cache=None):
            cache = resolve(router, path_cache=path_cache)
            caches.append(weakref.ref(cache))
            return cache

        monkeypatch.setattr(enginecommon, "resolve_path_cache", tracked)
        sharedcells._NETWORK_MEMO.clear()
        spec = CellSpec(scenario="uniform", n=12, rho=0.6, seeds=(0, 1), **WINDOW)
        (result,) = ReplicationEngine(processes=1).run_many([spec])
        assert result.replications[0].generated > 0
        assert sharedcells.cell_network(spec)[1] is None
        gc.collect()
        assert len(caches) == 2
        assert all(ref() is None for ref in caches)

    def test_numpy_seeds_share_one_level_assignment(self, monkeypatch):
        from repro.sim.kernels import levels

        calls = []
        edge_levels = levels._edge_levels

        def counted(*args):
            calls.append(1)
            return edge_levels(*args)

        monkeypatch.setattr(levels, "_edge_levels", counted)
        sharedcells._NETWORK_MEMO.clear()
        spec = CellSpec(
            scenario="uniform", n=12, rho=0.6, seeds=(0, 1, 2),
            engine_params=(("backend", "numpy"),), **WINDOW,
        )
        ReplicationEngine(processes=1).run(spec)
        assert len(calls) == 1


class TestRunSeedChunk:
    def test_chunk_matches_serial_run(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.6, seeds=(3, 4), **WINDOW)
        serial = ReplicationEngine(processes=1).run(spec)
        with publish_cells([_resolved(spec)]) as batch:
            idx, pos, reps = run_seed_chunk((batch.token, 0, 0, spec.seeds))
        assert (idx, pos) == (0, 0)
        assert [r.mean_delay for r in reps] == [
            r.mean_delay for r in serial.replications
        ]

    def test_worker_warms_a_private_complete_cache(self):
        """A worker starting from an empty memo routes the cell itself:
        the cache it runs on is complete, writeable and outlives the
        unlinked block."""
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.6, engine="slotted", seeds=(1,), **WINDOW
        )
        with publish_cells([_resolved(spec)]) as batch:
            sharedcells._NETWORK_MEMO.clear()
            run_seed_chunk((batch.token, 0, 0, spec.seeds))
        ((net, cache),) = sharedcells._NETWORK_MEMO.values()
        assert cache.complete
        assert cache._dense_off.flags.writeable
        assert cache.path(0, 15) == net.router.path(0, 15)


def _assert_parity(serial, parallel):
    for s, p in zip(serial.replications, parallel.replications):
        assert s.mean_delay == p.mean_delay
        assert s.mean_number == p.mean_number
        assert s.generated == p.generated
        assert s.zero_hop == p.zero_hop
        assert s.r == p.r or (np.isnan(s.r) and np.isnan(p.r))


class TestParallelBitIdentity:
    """Same seeds, shared-memory pool vs serial: bit-identical results."""

    @pytest.mark.parametrize("engine", ["fifo", "slotted", "rushed", "finite", "ps"])
    def test_engine_parity(self, engine):
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.6, engine=engine,
            seeds=(0, 1, 2, 3), **WINDOW,
        )
        serial = ReplicationEngine(processes=1).run(spec)
        parallel = ReplicationEngine(processes=2).run(spec)
        _assert_parity(serial, parallel)

    @pytest.mark.parametrize(
        "spec",
        [
            # Two order tables; the coin per packet consumes RNG.
            CellSpec(scenario="randomized", n=4, rho=0.6, **WINDOW),
            # Workers warm these caches pair by pair.
            CellSpec(scenario="torus", n=4, rho=0.6, **WINDOW),
            CellSpec(scenario="bitreversal", n=4, rho=0.6, **WINDOW),
            CellSpec(
                scenario="uniform", n=4,
                node_rate=tuple(0.02 * (1 + i % 3) for i in range(16)), **WINDOW,
            ),
            # 144 nodes: above PRECOMPUTE_NODE_LIMIT, the cache stays lazy.
            CellSpec(scenario="uniform", n=12, rho=0.6, **WINDOW),
        ],
        ids=["randomized", "torus", "bitreversal", "tuple-node-rate", "mesh-12x12"],
    )
    def test_scenario_parity(self, spec):
        serial = ReplicationEngine(processes=1).run(spec)
        parallel = ReplicationEngine(processes=2).run(spec)
        _assert_parity(serial, parallel)


class TestStreamingFold:
    def test_mixed_batch_matches_serial(self):
        specs = [
            CellSpec(scenario="uniform", n=4, rho=0.5, seeds=(0, 1, 2), **WINDOW),
            CellSpec(scenario="hotspot", n=4, rho=0.7, seeds=(5,), **WINDOW),
            CellSpec(
                scenario="uniform", n=4, rho=0.9, seeds=(7, 8),
                track_saturated=True, **WINDOW,
            ),
        ]
        serial = ReplicationEngine(processes=1).run_many(specs)
        parallel = ReplicationEngine(processes=3).run_many(specs)
        for s, p in zip(serial, parallel):
            assert s.node_rate == p.node_rate
            assert [r.seed for r in p.replications] == list(p.spec.seeds)
            for rs, rp in zip(s.replications, p.replications):
                assert rs.mean_delay == rp.mean_delay
                assert rs.generated == rp.generated

    def test_on_result_streams_every_cell(self):
        specs = [
            CellSpec(scenario="uniform", n=4, rho=r, seeds=(0, 1), **WINDOW)
            for r in (0.4, 0.6)
        ]
        seen = []
        out = ReplicationEngine(processes=2).run_many(
            specs, on_result=lambda res: seen.append(res.spec.rho)
        )
        assert sorted(seen) == [0.4, 0.6]
        assert [o.spec.rho for o in out] == [0.4, 0.6]


class TestResourceTracker:
    """Every published block is unlinked by the parent, and its workers
    share the parent's resource tracker, so a pooled batch leaves no
    "leaked shared_memory" warning at exit, whether the pool started
    before or after the first publish."""

    SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.sim.replication import CellSpec, ReplicationEngine
from repro.util.workerpool import get_pool

if {pool_first}:
    get_pool(2).map(abs, [0, 1])
specs = [
    CellSpec(scenario="uniform", n=3, rho=rho, warmup=5, horizon=30, seeds=(1, 2))
    for rho in (0.5, 0.6)
]
ReplicationEngine(processes=2).run_many(specs)
print("RAN")
"""

    @pytest.mark.parametrize(
        "pool_first", [True, False], ids=["pool-first", "publish-first"]
    )
    def test_no_leak_warning_at_exit(self, pool_first):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = self.SCRIPT.format(src=src, pool_first=pool_first)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RAN" in proc.stdout
        assert "leaked shared_memory" not in proc.stderr, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
