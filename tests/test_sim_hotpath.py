"""Engine-level tests for the hot-path overhaul: fast-id block discipline,
PS block draws, slotted option parity, the batched slot kernel and its
per-packet path lookups, and replication-level cache sharing."""

import math

import numpy as np
import pytest

from repro.analysis import rngsan
from repro.routing.destinations import HotSpotDestinations, UniformDestinations
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.pathcache import (
    PathCache,
    RandomizedGreedyPathCache,
    path_cache_for,
)
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.sim.fifo_network import NetworkSimulation
from repro.sim.kernels.python_backend import _BLOCK
from repro.sim.ps_network import PSNetworkSimulation
from repro.sim.replication import CellSpec, replicate
from repro.sim.sharedcells import cell_network
from repro.sim.slotted import SlottedNetworkSimulation
from repro.topology.array_mesh import ArrayMesh


class TestFastIdBlockDiscipline:
    """Satellite: the fast-id refill must happen at exactly ``2 * _BLOCK``
    consumed ids — the old ``>= 2 * _BLOCK - 1`` condition documented an
    off-by-one that would have discarded the last id of every block had
    the cursor ever been odd."""

    def test_draw_count_pinned_across_refill(self):
        """Replay the engine's documented draw order independently and pin
        the (src, dst) pairing across the id-block refill boundary.

        The run consumes > _BLOCK id pairs, so a refill that skipped or
        discarded even one id would shift every later pairing and change
        ``zero_hop`` (and ``generated`` via the gap stream) almost surely.
        """
        n_nodes = 16
        node_rate = 2.0
        total_rate = node_rate * n_nodes
        horizon = 310.0
        seed = 5

        mesh = ArrayMesh(4)
        sim = NetworkSimulation(
            GreedyArrayRouter(mesh),
            UniformDestinations(n_nodes),
            node_rate,
            seed=seed,
        )
        assert sim._fast_ids
        res = sim.run(0.0, horizon)

        # Independent replay of the documented block discipline: one
        # exponential block, one 2*_BLOCK id block, refills exactly at
        # exhaustion; deterministic service consumes no other draws.
        rng = np.random.default_rng(seed)
        exp_block = rng.exponential(size=_BLOCK)
        exp_i = 0
        id_block = rng.integers(0, n_nodes, size=2 * _BLOCK).tolist()
        id_i = 0
        gap_scale = 1.0 / total_rate
        t = exp_block[exp_i] * gap_scale
        exp_i += 1
        generated = zero_hop = 0
        while t < horizon:
            if id_i >= 2 * _BLOCK:
                id_block = rng.integers(0, n_nodes, size=2 * _BLOCK).tolist()
                id_i = 0
            src, dst = id_block[id_i], id_block[id_i + 1]
            id_i += 2
            generated += 1
            if src == dst:
                zero_hop += 1
            if exp_i >= _BLOCK:
                exp_block = rng.exponential(size=_BLOCK)
                exp_i = 0
            t = t + exp_block[exp_i] * gap_scale
            exp_i += 1

        assert generated > _BLOCK  # the id refill boundary was crossed
        assert res.generated == generated
        assert res.zero_hop == zero_hop


class TestSlottedOptionParity:
    """Satellite: slotted engine grows the event engine's ``track_maxima``
    and ``collect_delays`` options with the same warmup-window
    semantics."""

    def _sim(self, seed=3, dests=None):
        mesh = ArrayMesh(4)
        return SlottedNetworkSimulation(
            GreedyArrayRouter(mesh),
            dests or UniformDestinations(16),
            0.3,
            seed=seed,
        )

    def test_defaults_do_not_track(self):
        res = self._sim().run(10, 200)
        assert res.max_queue_length == -1
        assert math.isnan(res.max_delay)
        assert res.delays is None

    def test_collected_delays_match_summary(self):
        res = self._sim().run(10, 300, collect_delays=True)
        assert res.delays is not None
        assert len(res.delays) == res.completed
        assert float(np.sum(res.delays)) / len(res.delays) == pytest.approx(
            res.mean_delay, rel=1e-9
        )
        # Zero-hop packets contribute delay 0 at generation time.
        assert (res.delays == 0.0).sum() >= res.zero_hop

    def test_max_delay_is_worst_collected_delay(self):
        res = self._sim().run(10, 300, collect_delays=True, track_maxima=True)
        assert res.max_delay == pytest.approx(float(np.max(res.delays)))
        assert res.max_queue_length >= 1

    def test_maxima_only_cover_measurement_window(self):
        """A run whose measurement window starts after a congested warmup
        still seeds max_queue with the standing backlog (event-engine
        parity), so the maximum cannot shrink below the crossing state."""
        hot = HotSpotDestinations(16, hot_node=5, h=0.9)
        sim = SlottedNetworkSimulation(
            GreedyArrayRouter(ArrayMesh(4)), hot, 0.4, seed=7
        )
        res = sim.run(40, 80, track_maxima=True)
        assert res.max_queue_length >= 1

    def test_delays_with_warmup_exclude_warmup_packets(self):
        res = self._sim().run(50, 100, collect_delays=True)
        assert len(res.delays) == res.completed == res.generated


class TestPSBlockDraws:
    """PS draws its arrivals from blocks, like the python fifo kernel: an
    8192-gap exponential block and a 16384-id block, refilled when spent.
    A scalar per-arrival draw would show up as a size-None call, and the
    call count would grow with every arrival."""

    def test_uniform_run_makes_only_block_draws(self):
        sim = PSNetworkSimulation(
            GreedyArrayRouter(ArrayMesh(4)), UniformDestinations(16), 0.5,
            seed=3,
        )
        assert sim._fast_ids
        with rngsan.trace() as tracer:
            res = sim.run(0.0, 2500.0)
        arrivals = res.generated
        assert arrivals > 2 * _BLOCK  # both blocks are refilled
        kinds = [(kind, size) for kind, size, _site in tracer.draws]
        assert set(kinds) <= {
            ("exponential", _BLOCK), ("integers", 2 * _BLOCK)
        }
        bound = math.ceil(arrivals / _BLOCK) + 2
        assert kinds.count(("exponential", _BLOCK)) <= bound
        assert kinds.count(("integers", 2 * _BLOCK)) <= bound


class TestSlottedPathLookup:
    """The python slot kernel probes the path cache per packet when the
    cache consumes no randomness; RNG-consuming caches keep the per-slot
    batch call, which draws the slot's coins."""

    def test_rng_free_cache_never_batch_looks_up(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("offlen_batch called")

        monkeypatch.setattr(PathCache, "offlen_batch", boom)
        router = GreedyArrayRouter(ArrayMesh(4))
        for dests in (
            UniformDestinations(16),
            HotSpotDestinations(16, hot_node=5, h=0.3),
        ):
            res = SlottedNetworkSimulation(router, dests, 0.3, seed=2).run(
                10, 200
            )
            assert res.completed > 0

    def test_cold_cache_matches_pair_by_pair_fill(self):
        """A cold dense-table cache ends with the arena a scalar fill of
        the same pairs, in first-lookup order, lays out; and the run's
        result equals a run on that pre-filled cache."""
        router = GreedyArrayRouter(ArrayMesh(8))
        dests = UniformDestinations(64)
        cold = path_cache_for(router)
        assert cold._dense_off is not None
        a = SlottedNetworkSimulation(
            router, dests, 0.3, seed=4, path_cache=cold
        ).run(20, 300)
        filled = path_cache_for(router)
        for key in cold.table:  # insertion order = first-lookup order
            filled.ensure(*divmod(key, 64))
        b = SlottedNetworkSimulation(
            router, dests, 0.3, seed=4, path_cache=filled
        ).run(20, 300)
        assert cold.arena.edges == filled.arena.edges
        assert np.array_equal(cold._dense_off, filled._dense_off)
        assert repr(a) == repr(b)

    def test_randomized_greedy_draws_coins_per_slot(self, monkeypatch):
        calls = []
        real = RandomizedGreedyPathCache.sample_offlen_batch

        def counted(self, srcs, dsts, rng):
            calls.append(len(srcs))
            return real(self, srcs, dsts, rng)

        monkeypatch.setattr(
            RandomizedGreedyPathCache, "sample_offlen_batch", counted
        )
        router = RandomizedGreedyArrayRouter(ArrayMesh(4))
        res = SlottedNetworkSimulation(
            router, UniformDestinations(16), 0.3, seed=6
        ).run(0, 200)
        assert calls
        assert sum(calls) == res.generated - res.zero_hop


class TestSlottedBatchRng:
    """Satellite: blocked Poisson draws + fully batched slot kernel."""

    def _mk(self, dests, seed=11, rate=0.3, n=4, router=None):
        mesh = ArrayMesh(n)
        return SlottedNetworkSimulation(
            router or GreedyArrayRouter(mesh), dests, rate, seed=seed
        )

    def test_seed_stable(self):
        a = self._mk(UniformDestinations(16)).run(10, 300)
        b = self._mk(UniformDestinations(16)).run(10, 300)
        assert a.mean_delay == b.mean_delay
        assert a.mean_number == b.mean_number
        assert a.generated == b.generated

    def test_fast_ids_draw_one_id_block_per_count_block(self, monkeypatch):
        """Fast ids over an RNG-free path cache: one interleaved id block
        right after each Poisson count block, no draw per slot."""
        from repro.sim.kernels import python_backend

        monkeypatch.setattr(python_backend, "_BLOCK", 64)
        with rngsan.trace() as tracer:
            res = self._mk(UniformDestinations(16)).run(10, 300)
        assert res.generated > 0
        kinds = [kind for kind, _size, _site in tracer.draws]
        assert kinds == ["poisson", "integers"] * 5  # 310 slots, 64 a block

    def test_randomized_router_coins_batched(self):
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh)
        res = self._mk(UniformDestinations(16), router=router).run(20, 400)
        assert res.completed > 0
        assert res.littles_law_gap < 0.25


class TestReplicationCacheSharing:
    def test_cell_network_is_memoized(self):
        spec = CellSpec(scenario="uniform", n=4, rho=0.5)
        net1, cache1 = cell_network(spec)
        net2, cache2 = cell_network(
            CellSpec(scenario="uniform", n=4, rho=0.9, seeds=(7,))
        )
        assert net1 is net2  # rho/seeds are not part of the cell identity
        assert cache1 is cache2
        other, _ = cell_network(CellSpec(scenario="uniform", n=5, rho=0.5))
        assert other is not net1

    def test_shared_cache_matches_fresh_engines(self):
        """Replications through the memoized (network, cache) are
        bit-identical to fresh per-seed engines."""
        spec = CellSpec(
            scenario="uniform", n=4, node_rate=0.3,
            warmup=20, horizon=200, seeds=(0, 1, 2),
        )
        pooled = replicate(spec, processes=1)
        from repro.scenarios import build_network

        for seed, rep in zip(spec.seeds, pooled.replications):
            net = build_network("uniform", 4)
            direct = NetworkSimulation(
                net.router, net.destinations, 0.3, seed=seed
            ).run(20, 200)
            assert rep.mean_delay == direct.mean_delay
            assert rep.mean_number == direct.mean_number
            assert rep.generated == direct.generated

    def test_slotted_replication_shares_cache_too(self):
        spec = CellSpec(
            scenario="hotspot", n=4, node_rate=0.2, engine="slotted",
            warmup=20, horizon=200, seeds=(3, 4),
        )
        pooled = replicate(spec, processes=1)
        assert len(pooled.replications) == 2
        assert all(r.completed > 0 for r in pooled.replications)
