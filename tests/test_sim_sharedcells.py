"""Tests for the shared-memory replication fan-out.

The contract under test: publishing a batch's cell state into shared
memory and running replications on a warm pool changes *nothing* about
the results — same-seed outputs are bit-identical to the serial
in-process path for every registered engine — while the per-job payload
shrinks to a token-sized tuple and every shared block is unlinked.
"""

import pickle

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
    def test_snapshot_published_for_small_network(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        with publish_cells([_resolved(spec)]) as batch:
            meta = pickle.loads(
                bytes(
                    batch._shm.buf[batch.token[1] : batch.token[1] + batch.token[2]]
                )
            )["cells"][0]
            assert "cache" in meta
            assert meta["cache"]["kind"] == "deterministic"
            assert meta["node_rate"] == pytest.approx(resolve_cell(spec)[0])

    def test_randomized_cache_publishes_both_orders(self):
        spec = CellSpec(scenario="randomized", n=4, rho=0.5, **WINDOW)
        with publish_cells([_resolved(spec)]) as batch:
            meta = pickle.loads(
                bytes(
                    batch._shm.buf[batch.token[1] : batch.token[1] + batch.token[2]]
                )
            )["cells"][0]
            assert meta["cache"]["kind"] == "randomized"
            assert {"row_off", "row_len", "col_off", "col_len"} <= set(
                meta["cache"]
            )

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
        spec = CellSpec(scenario="uniform", n=4, rho=0.5, **WINDOW)
        _net, cache = warm_cell(spec)
        assert cache.complete

    def test_warm_cell_skips_large_networks(self):
        side = sharedcells.PRECOMPUTE_NODE_LIMIT  # side**2 nodes >> limit
        spec = CellSpec(scenario="uniform", n=side, rho=0.5, **WINDOW)
        _net, cache = warm_cell(spec)
        assert not cache.complete


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

    def test_adopted_cache_is_complete_readonly_snapshot(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.6, **WINDOW)
        with publish_cells([_resolved(spec)]) as batch:
            # Clear the in-process memo so adoption actually runs (in a
            # real pool the worker process starts with its own memo).
            sharedcells._NETWORK_MEMO.clear()
            attached = sharedcells._AttachedBatch(batch.token)
            try:
                meta = attached.registry["cells"][0]
                _net, cache = sharedcells._adopt_cell(
                    meta["spec"], meta, attached
                )
                assert cache.complete
                assert not cache._dense_off.flags.writeable
                # The adopted arena view is the shared block itself.
                assert cache.arena.as_array().dtype == np.int32
            finally:
                # Drop the adopted views before closing the attachment so
                # the shared block releases cleanly.
                sharedcells._NETWORK_MEMO.clear()
                del cache
                attached.release()

    def test_release_forgets_cells_adopted_from_the_block(self):
        """Closing an attachment unmaps its pages under any live numpy
        view, so the memoized cells adopted from it go first — a later
        cell with the same key would otherwise read unmapped memory."""
        spec = CellSpec(scenario="uniform", n=4, rho=0.6, **WINDOW)
        with publish_cells([_resolved(spec)]) as batch:
            sharedcells._NETWORK_MEMO.clear()
            attached = sharedcells._AttachedBatch(batch.token)
            meta = attached.registry["cells"][0]
            sharedcells._adopt_cell(meta["spec"], meta, attached)
            key = sharedcells.cell_key(meta["spec"])
            assert key in sharedcells._NETWORK_MEMO
            attached.release()
            assert key not in sharedcells._NETWORK_MEMO


@pytest.mark.parametrize("engine", ["fifo", "slotted", "rushed", "finite", "ps"])
class TestParallelBitIdentity:
    """Same seeds, shared-memory pool vs serial: bit-identical results."""

    def test_engine_parity(self, engine):
        spec = CellSpec(
            scenario="uniform", n=4, rho=0.6, engine=engine,
            seeds=(0, 1, 2, 3), **WINDOW,
        )
        serial = ReplicationEngine(processes=1).run(spec)
        parallel = ReplicationEngine(processes=2).run(spec)
        for s, p in zip(serial.replications, parallel.replications):
            assert s.mean_delay == p.mean_delay
            assert s.mean_number == p.mean_number
            assert s.generated == p.generated
            assert s.r == p.r or (np.isnan(s.r) and np.isnan(p.r))


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
