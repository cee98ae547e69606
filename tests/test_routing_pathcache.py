"""Tests for the shared path-cache arena (repro.routing.pathcache)."""

import numpy as np
import pytest

from repro.routing.base import BaseRouter, TabulatedRouter
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.destinations import PBiasedHypercubeDestinations
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.pathcache import (
    BULK_MIN_MISSES,
    DENSE_NODE_LIMIT,
    PathArena,
    PathCache,
    RandomizedGreedyPathCache,
    SampledPathInterner,
    _kd_batch_builder,
    _mesh_batch_builder,
    build_paths,
    gather_paths,
    path_cache_for,
    route_packets,
)
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus


def _all_offlens(cache):
    """``(offsets, lengths)`` of every ``(src, dst)`` key in key order: one
    batch lookup over the whole pair space of a complete cache."""
    n = cache.num_nodes
    return cache.offlen_batch(*np.divmod(np.arange(n * n), n))


class TestPathArena:
    def test_offsets_and_views(self):
        arena = PathArena()
        o1 = arena.add([3, 1, 4])
        o2 = arena.add((1, 5))
        assert (o1, o2) == (0, 3)
        assert arena.view(o1, 3) == (3, 1, 4)
        assert arena.view(o2, 2) == (1, 5)
        assert len(arena) == 5

    def test_edges_list_identity_is_stable(self):
        """Engines bind arena.edges once; growth must happen in place."""
        arena = PathArena()
        ref = arena.edges
        arena.add(list(range(100)))
        arena.extend_array(np.arange(5000, dtype=np.int32))
        assert ref is arena.edges and len(ref) == 5100

    def test_mixed_growth_appends_in_order(self):
        arena = PathArena()
        rng = np.random.default_rng(1)
        want = []
        for step in range(40):
            if step % 3:
                path = rng.integers(0, 900, size=step).tolist()
                assert arena.add(path) == len(want)
            else:
                path = rng.integers(0, 900, size=50 * step)
                assert arena.extend_array(path) == len(want)
                path = path.tolist()
            want += path
            assert arena.edges == want

    def test_extend_array_returns_offsets(self):
        arena = PathArena()
        arena.add([1, 2])
        assert arena.extend_array(np.array([3, 4, 5])) == 2
        assert arena.extend_array(np.array([], dtype=np.int32)) == 5
        assert arena.add([6]) == 5
        assert arena.view(2, 3) == (3, 4, 5) and len(arena) == 6

    def test_bulk_fill_shares_edge_int_objects(self):
        """A bulk fill's list entries reference one int object per edge
        id, not a fresh int per entry (the memory contract)."""
        router = GreedyArrayRouter(ArrayMesh(12))
        cache = path_cache_for(router)
        n = cache.num_nodes
        srcs, dsts = np.divmod(np.arange(n * n), n)
        cache.offlen_batch(srcs, dsts)
        edges = cache.arena.edges
        assert len(edges) > 10 * router.topology.num_edges
        assert {type(e) for e in edges} == {int}
        assert len({id(e) for e in edges}) <= router.topology.num_edges


@pytest.mark.parametrize(
    "router_factory",
    [
        lambda: GreedyArrayRouter(ArrayMesh(4)),
        lambda: GreedyArrayRouter(ArrayMesh(3, 5), column_first=True),
        lambda: GreedyTorusRouter(Torus(4)),
        lambda: GreedyTorusRouter(Torus(5), column_first=True),
        lambda: GreedyTorusRouter(Torus(3, 6)),
        lambda: GreedyHypercubeRouter(Hypercube(3)),
        lambda: GreedyHypercubeRouter(Hypercube(4)),
        lambda: GreedyKDRouter(KDArray((3, 4, 2))),
        lambda: GreedyKDRouter(KDArray((3, 4, 2)), dimension_order=(2, 0, 1)),
    ],
)
def test_cache_matches_router_on_all_pairs(router_factory):
    """Pair-by-pair lookups return the router's paths, and a
    ``precompute_all`` fill lays the cache out exactly as they do."""
    router = router_factory()
    cache = path_cache_for(router)
    n = router.topology.num_nodes
    for s in range(n):
        for d in range(n):
            assert cache.path(s, d) == router.path(s, d), (s, d)
    filled = path_cache_for(router)
    filled.precompute_all()
    assert filled.arena.edges == cache.arena.edges
    assert filled.table == cache.table
    for got, want in zip(_all_offlens(filled), _all_offlens(cache)):
        assert got.tolist() == want.tolist()


def test_butterfly_cache_matches_router_on_all_valid_pairs():
    """Butterfly parity over every (input, output) pair — the only pairs
    the unique-path scheme routes."""
    b = Butterfly(3)
    router = ButterflyRouter(b)
    cache = path_cache_for(router)
    for rs in range(b.rows):
        for rd in range(b.rows):
            src, dst = b.node_id(0, rs), b.node_id(b.d, rd)
            assert cache.path(src, dst) == router.path(src, dst), (rs, rd)


class TestSpecialisedBuilders:
    """Scalar misses are built by the router's own ``path`` on every
    topology; only the greedy mesh and k-d routers get a closed-form
    batch builder for bulk fills."""

    @pytest.mark.parametrize(
        "router_factory",
        [
            lambda: GreedyArrayRouter(ArrayMesh(4)),
            lambda: GreedyTorusRouter(Torus(4)),
            lambda: GreedyHypercubeRouter(Hypercube(3)),
            lambda: ButterflyRouter(Butterfly(2)),
            lambda: GreedyKDRouter(KDArray((3, 3, 3))),
        ],
    )
    def test_scalar_misses_call_router_path(self, router_factory):
        router = router_factory()
        cache = path_cache_for(router)
        walk, calls = router.path, []

        def counted(src, dst):
            calls.append((src, dst))
            return walk(src, dst)

        router.path = counted
        src, dst = 0, router.topology.num_nodes - 1
        assert cache.path(src, dst) == walk(src, dst)
        assert cache.path(src, dst) == walk(src, dst)  # memo hit
        assert calls == [(src, dst)]

    def test_mesh_router_keeps_its_grid_walk(self):
        """Greedy mesh batch misses use the closed-form mesh builder."""
        router = GreedyArrayRouter(ArrayMesh(4))
        assert path_cache_for(router)._build_batch is not None

    def test_kd_router_fills_misses_in_bulk(self):
        """k-d batch misses use the closed-form k-d batch builder."""
        cache = path_cache_for(GreedyKDRouter(KDArray((3, 3, 3))))
        assert cache._build_batch.__name__ == "build_kd_paths"

    @pytest.mark.parametrize(
        "router_factory",
        [
            lambda: GreedyTorusRouter(Torus(4)),
            lambda: GreedyHypercubeRouter(Hypercube(3)),
            lambda: ButterflyRouter(Butterfly(2)),
        ],
    )
    def test_other_routers_keep_the_per_pair_miss_loop(self, router_factory):
        assert path_cache_for(router_factory())._build_batch is None


class TestPathCache:
    def test_lazy_memoization(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        cache = PathCache(router)
        assert len(cache) == 0
        off, ln = cache.offlen(0, 8)
        assert ln == len(router.path(0, 8))
        assert len(cache) == 1
        # Second lookup returns the identical view without rebuilding.
        assert cache.offlen(0, 8) == (off, ln)
        assert len(cache) == 1

    def test_precompute_all(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        cache = PathCache(router)
        cache.precompute_all()
        assert len(cache) == 81
        assert cache.path(2, 7) == router.path(2, 7)

    def test_shared_arena(self):
        mesh = ArrayMesh(3)
        arena = PathArena()
        a = PathCache(GreedyArrayRouter(mesh), arena=arena)
        b = PathCache(GreedyArrayRouter(mesh, column_first=True), arena=arena)
        a.offlen(0, 8)
        b.offlen(0, 8)
        assert a.arena is b.arena is arena
        assert len(arena) == 8  # two 4-hop paths, one arena

    def test_offlen_batch_dense_gather(self):
        router = GreedyArrayRouter(ArrayMesh(4))
        cache = PathCache(router)
        assert cache.num_nodes <= DENSE_NODE_LIMIT
        rng = np.random.default_rng(0)
        srcs = rng.integers(0, 16, size=50)
        dsts = rng.integers(0, 16, size=50)
        offs, lens = cache.offlen_batch(srcs, dsts)
        for s, d, off, ln in zip(srcs, dsts, offs, lens):
            assert cache.arena.view(int(off), int(ln)) == router.path(int(s), int(d))

    def test_offlen_batch_duplicate_misses_intern_once(self):
        """A batch repeating a missing pair must append the path to the
        shared append-only arena exactly once, not once per occurrence."""
        router = GreedyArrayRouter(ArrayMesh(4))
        cache = PathCache(router)
        srcs = np.array([0, 0, 0, 0])
        dsts = np.array([15, 15, 15, 15])
        offs, lens = cache.offlen_batch(srcs, dsts)
        assert len(cache.arena) == len(router.path(0, 15))
        assert set(offs.tolist()) == {0}
        assert len(cache) == 1

    def test_offlen_batch_without_dense_tables(self):
        router = GreedyArrayRouter(ArrayMesh(4))
        cache = PathCache(router)
        cache._dense_off = cache._dense_len = None  # simulate a big network
        srcs = np.array([0, 3, 7])
        dsts = np.array([15, 3, 1])
        offs, lens = cache.offlen_batch(srcs, dsts)
        for s, d, off, ln in zip(srcs, dsts, offs, lens):
            assert cache.arena.view(int(off), int(ln)) == router.path(int(s), int(d))

    def test_consumes_no_rng(self):
        cache = PathCache(GreedyArrayRouter(ArrayMesh(3)))
        assert cache.consumes_rng is False

    def test_butterfly_lazy_cache_only_touches_valid_pairs(self):
        b = Butterfly(2)
        router = ButterflyRouter(b)
        cache = path_cache_for(router)
        src, dst = b.node_id(0, 0), b.node_id(2, 3)
        assert cache.path(src, dst) == router.path(src, dst)
        with pytest.raises(ValueError):
            cache.path(dst, src)  # invalid pairs still raise via the router


class TestMeshBatchBuilder:
    """The closed-form mesh builder against the router's hop-by-hop walk."""

    @pytest.mark.parametrize("shape", [(4, 4), (3, 5), (6, 3)])
    @pytest.mark.parametrize("column_first", [False, True])
    def test_matches_router_on_every_pair(self, shape, column_first):
        router = GreedyArrayRouter(ArrayMesh(*shape), column_first=column_first)
        n = router.topology.num_nodes
        srcs, dsts = np.divmod(np.arange(n * n, dtype=np.int64), n)
        flat, lens = _mesh_batch_builder(router)(srcs, dsts)
        assert flat.dtype == np.int32
        paths = [router.path(s, d) for s, d in zip(srcs.tolist(), dsts.tolist())]
        assert lens.tolist() == [len(p) for p in paths]
        assert flat.tolist() == [e for p in paths for e in p]

    def test_all_empty_paths(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        flat, lens = _mesh_batch_builder(router)(np.array([4, 0]), np.array([4, 0]))
        assert flat.size == 0 and lens.tolist() == [0, 0]

    @staticmethod
    def _count_bulk_calls(cache):
        """Make ``cache``'s batch builder record each call's pair count in
        ``cache.bulk_calls``."""
        build = cache._build_batch
        cache.bulk_calls = []

        def counted(srcs, dsts):
            cache.bulk_calls.append(srcs.size)
            return build(srcs, dsts)

        cache._build_batch = counted
        return cache

    @classmethod
    def _pair(cls, column_first=False):
        """A bulk-filling cache, whose batch builder counts its calls, and
        a scalar-only reference cache on one 8x8 router."""
        router = GreedyArrayRouter(ArrayMesh(8), column_first=column_first)
        bulk, scalar = path_cache_for(router), PathCache(router)
        scalar._build_batch = None
        return cls._count_bulk_calls(bulk), scalar

    @staticmethod
    def _assert_same_fill(bulk, scalar):
        assert len(bulk) == len(scalar)
        assert len(bulk.arena) == len(scalar.arena)
        assert bulk.arena.edges == scalar.arena.edges
        assert bulk.table == scalar.table

    @pytest.mark.parametrize("column_first", [False, True])
    def test_mixed_scalar_and_bulk_fills_share_one_arena(self, column_first):
        """Scalar ensure() misses and bulk fills interleave on one arena
        and lay it out exactly as a scalar-only fill of the same pairs."""
        bulk, scalar = self._pair(column_first)
        rng = np.random.default_rng(5)
        for size in [BULK_MIN_MISSES + 10, 8] * 6:
            for s, d in rng.integers(0, 64, size=(4, 2)).tolist():
                assert bulk.offlen(s, d) == scalar.offlen(s, d)
            srcs = rng.integers(0, 64, size=size)
            dsts = rng.integers(0, 64, size=size)
            ob, lb = bulk.offlen_batch(srcs, dsts)
            os_, ls = scalar.offlen_batch(srcs, dsts)
            assert ob.tolist() == os_.tolist() and lb.tolist() == ls.tolist()
        assert len(bulk.bulk_calls) >= 3
        self._assert_same_fill(bulk, scalar)
        for s in range(64):
            for d in range(64):
                assert bulk.path(s, d) == bulk.router.path(s, d)

    def test_repeated_missing_keys_intern_once(self):
        bulk, scalar = self._pair()
        keys = np.random.default_rng(2).choice(64 * 64, size=30, replace=False)
        # Each key twice, in both orders, plus a repeated self pair.
        keys = np.concatenate([keys, keys[::-1], [12 * 65] * 4])
        assert keys.size >= BULK_MIN_MISSES
        srcs, dsts = np.divmod(keys, 64)
        offs, lens = bulk.offlen_batch(srcs, dsts)
        scalar.offlen_batch(srcs, dsts)
        assert bulk.bulk_calls == [31]
        self._assert_same_fill(bulk, scalar)
        assert len(bulk) == 31
        assert offs[:30].tolist() == offs[59::-1][:30].tolist()

    def test_small_miss_batches_fill_pair_by_pair(self):
        """Below BULK_MIN_MISSES misses the per-pair ensure() loop is
        cheaper than the bulk fill's fixed cost; at the threshold the
        batch builder takes over. Both lay the arena out identically."""
        bulk, scalar = self._pair()
        keys = np.random.default_rng(3).choice(
            64 * 64, size=2 * BULK_MIN_MISSES - 1, replace=False
        )
        for batch in (keys[: BULK_MIN_MISSES - 1], keys[BULK_MIN_MISSES - 1 :]):
            srcs, dsts = np.divmod(batch, 64)
            bulk.offlen_batch(srcs, dsts)
            scalar.offlen_batch(srcs, dsts)
        assert bulk.bulk_calls == [BULK_MIN_MISSES]
        self._assert_same_fill(bulk, scalar)

    def test_randomized_tables_fill_in_bulk(self):
        cache = RandomizedGreedyPathCache(RandomizedGreedyArrayRouter(ArrayMesh(4)))
        assert cache.row_first._build_batch is not None
        assert cache.col_first._build_batch is not None

    @pytest.mark.parametrize("column_first", [False, True])
    def test_precompute_all_builds_in_one_bulk_call(self, column_first):
        """precompute_all builds every missing pair in one batch-builder
        call and lays the arena out as the pair-by-pair fill does."""
        bulk, scalar = self._pair(column_first)
        for s, d in [(3, 60), (0, 0), (63, 1)]:
            assert bulk.offlen(s, d) == scalar.offlen(s, d)
        bulk.precompute_all()
        scalar.precompute_all()
        assert bulk.bulk_calls == [64 * 64 - 3]
        assert bulk.complete
        self._assert_same_fill(bulk, scalar)
        for got, want in zip(_all_offlens(bulk), _all_offlens(scalar)):
            assert got.tolist() == want.tolist()

    def test_randomized_precompute_builds_each_table_in_one_bulk_call(self):
        router = RandomizedGreedyArrayRouter(ArrayMesh(8))
        bulk, scalar = RandomizedGreedyPathCache(router), RandomizedGreedyPathCache(router)
        for table in (bulk.row_first, bulk.col_first):
            self._count_bulk_calls(table)
        scalar.row_first._build_batch = scalar.col_first._build_batch = None
        bulk.precompute_all()
        scalar.precompute_all()
        assert bulk.row_first.bulk_calls == bulk.col_first.bulk_calls == [64 * 64]
        assert bulk.complete
        assert bulk.arena.edges == scalar.arena.edges
        assert bulk.row_first.table == scalar.row_first.table
        assert bulk.col_first.table == scalar.col_first.table


class TestKDBatchBuilder:
    """The closed-form k-d builder against the router's hop-by-hop walk."""

    @pytest.mark.parametrize(
        ("dims", "order"),
        [
            ((4, 4), None),
            ((4, 4), (1, 0)),
            ((3, 5, 2), None),
            ((3, 5, 2), (2, 0, 1)),
            ((2, 3, 2, 3), (3, 1, 0, 2)),
            ((6,), None),
        ],
    )
    def test_matches_router_on_every_pair(self, dims, order):
        router = GreedyKDRouter(KDArray(dims), order)
        n = router.topology.num_nodes
        srcs, dsts = np.divmod(np.arange(n * n, dtype=np.int64), n)
        flat, lens = _kd_batch_builder(router)(srcs, dsts)
        assert flat.dtype == np.int32
        paths = [router.path(s, d) for s, d in zip(srcs.tolist(), dsts.tolist())]
        assert lens.tolist() == [len(p) for p in paths]
        assert flat.tolist() == [e for p in paths for e in p]

    def test_all_empty_paths(self):
        router = GreedyKDRouter(KDArray((3, 2, 2)))
        flat, lens = _kd_batch_builder(router)(np.array([5, 0]), np.array([5, 0]))
        assert flat.size == 0 and lens.tolist() == [0, 0]
        none = np.array([], dtype=np.int64)
        flat, lens = _kd_batch_builder(router)(none, none)
        assert flat.size == 0 and lens.size == 0

    def test_bulk_fill_lays_the_arena_out_like_a_scalar_fill(self):
        router = GreedyKDRouter(KDArray((4, 3, 4)), (1, 2, 0))
        bulk, scalar = path_cache_for(router), PathCache(router)
        scalar._build_batch = None
        n = router.topology.num_nodes
        keys = np.random.default_rng(4).integers(0, n * n, size=3 * BULK_MIN_MISSES)
        srcs, dsts = np.divmod(keys, n)
        ob, lb = bulk.offlen_batch(srcs, dsts)
        os_, ls = scalar.offlen_batch(srcs, dsts)
        assert ob.tolist() == os_.tolist() and lb.tolist() == ls.tolist()
        assert bulk.table == scalar.table
        assert bulk.arena.edges == scalar.arena.edges


class TestBuildPaths:
    """build_paths: flat canonical paths, batched or pair by pair."""

    @pytest.mark.parametrize(
        "router_factory",
        [
            lambda: GreedyArrayRouter(ArrayMesh(3, 4), column_first=True),
            lambda: GreedyKDRouter(KDArray((2, 3, 2))),
            lambda: GreedyTorusRouter(Torus(4)),
            lambda: GreedyHypercubeRouter(Hypercube(3)),
            lambda: RandomizedGreedyArrayRouter(ArrayMesh(3)),
        ],
    )
    def test_matches_router_path(self, router_factory):
        router = router_factory()
        n = router.topology.num_nodes
        srcs, dsts = np.divmod(np.arange(n * n, dtype=np.int64)[::-1], n)
        edges, lens = build_paths(router, srcs, dsts)
        paths = [router.path(s, d) for s, d in zip(srcs.tolist(), dsts.tolist())]
        assert lens.tolist() == [len(p) for p in paths]
        assert edges.tolist() == [e for p in paths for e in p]

    def test_butterfly_rejects_a_pair_outside_its_levels(self):
        b = Butterfly(2)
        router = ButterflyRouter(b)
        with pytest.raises(ValueError):
            build_paths(
                router, np.array([b.node_id(1, 0)]), np.array([b.node_id(2, 0)])
            )


class TestRandomizedGreedyPathCache:
    def test_both_tables_match_the_two_orders(self):
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh)
        cache = RandomizedGreedyPathCache(router)
        rf = GreedyArrayRouter(mesh, column_first=False)
        cf = GreedyArrayRouter(mesh, column_first=True)
        for s in range(16):
            for d in range(16):
                assert cache.row_first.path(s, d) == rf.path(s, d)
                assert cache.col_first.path(s, d) == cf.path(s, d)

    def test_coin_draw_matches_uncached_router(self):
        """sample_offlen consumes exactly the rng.random() the uncached
        scheme consumes, and picks the same order."""
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh, row_first_probability=0.3)
        cache = RandomizedGreedyPathCache(router)
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        for s, d in [(0, 15), (3, 12), (5, 5), (1, 2)] * 10:
            off, ln = cache.sample_offlen(s, d, a)
            assert cache.arena.view(off, ln) == router.sample_path(s, d, b)
        # Streams advanced identically.
        assert a.random() == b.random()

    def test_batch_coins_match_scalar_coins(self):
        mesh = ArrayMesh(4)
        router = RandomizedGreedyArrayRouter(mesh, row_first_probability=0.5)
        cache = RandomizedGreedyPathCache(router)
        rng = np.random.default_rng(7)
        srcs = rng.integers(0, 16, size=200)
        dsts = rng.integers(0, 16, size=200)
        a = np.random.default_rng(3)
        b = np.random.default_rng(3)
        offs, lens = cache.sample_offlen_batch(srcs, dsts, a)
        for i, (s, d) in enumerate(zip(srcs.tolist(), dsts.tolist())):
            want = cache.sample_offlen(s, d, b)
            assert (int(offs[i]), int(lens[i])) == want

    def test_shared_arena_across_tables(self):
        cache = RandomizedGreedyPathCache(RandomizedGreedyArrayRouter(ArrayMesh(3)))
        assert cache.row_first.arena is cache.arena
        assert cache.col_first.arena is cache.arena


class TestSampledPathInterner:
    def test_rebuilds_but_interns(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        interner = SampledPathInterner(router)
        rng = np.random.default_rng(0)
        ol1 = interner.sample_offlen(0, 8, rng)
        ol2 = interner.sample_offlen(0, 8, rng)
        assert ol1 == ol2  # same arena slot, no duplicate storage
        assert interner.arena.view(*ol1) == router.path(0, 8)

    def test_preserves_randomized_stream(self):
        mesh = ArrayMesh(3)
        router = RandomizedGreedyArrayRouter(mesh)
        interner = SampledPathInterner(router)
        a = np.random.default_rng(1)
        b = np.random.default_rng(1)
        for _ in range(20):
            ol = interner.sample_offlen(0, 8, a)
            assert interner.arena.view(*ol) == router.sample_path(0, 8, b)
        assert a.random() == b.random()


class TestPathCacheFor:
    def test_dispatch(self):
        mesh = ArrayMesh(3)
        assert isinstance(path_cache_for(GreedyArrayRouter(mesh)), PathCache)
        assert isinstance(
            path_cache_for(RandomizedGreedyArrayRouter(mesh)),
            RandomizedGreedyPathCache,
        )

        class WeirdRouter:
            """Structurally a Router but unknown to the cache layer."""

            def __init__(self, topology):
                self.topology = topology

            def path(self, src, dst):
                return (0,) if src != dst else ()

            def sample_path(self, src, dst, rng):
                return self.path(src, dst)

        assert isinstance(
            path_cache_for(WeirdRouter(LinearArray(2))), SampledPathInterner
        )

    def test_tabulated_router_is_deterministic(self):
        line = LinearArray(2)
        router = TabulatedRouter(
            line, {(0, 1): [0], (1, 0): [1], (0, 0): [], (1, 1): []}
        )
        cache = path_cache_for(router)
        assert isinstance(cache, PathCache)
        assert cache.path(0, 1) == (0,)


def _cached_visits(cache, offs, lens):
    """Visits of ``(offset, length)`` views into ``cache``'s arena."""
    return gather_paths(np.array(cache.arena.edges, dtype=np.int32), offs, lens)


def _butterfly_pairs(b, rng, size):
    """Level-0 sources to last-level destinations (the routed pairs)."""
    srcs = [b.node_id(0, r) for r in rng.integers(0, b.rows, size=size)]
    dsts = [b.node_id(b.d, r) for r in rng.integers(0, b.rows, size=size)]
    return np.array(srcs), np.array(dsts)


def _uniform_pairs(n, rng, size):
    return rng.integers(0, n, size=size), rng.integers(0, n, size=size)


def _p_biased_pairs(cube, rng, size):
    srcs = rng.integers(0, cube.num_nodes, size=size)
    return srcs, PBiasedHypercubeDestinations(cube, 0.3).sample_batch(srcs, rng)


class TestRoutePackets:
    """route_packets: the vectorized kernels' memo-free router against
    the cache lookup plus arena gather it replaces."""

    @pytest.mark.parametrize(
        ("router_factory", "pairs"),
        [
            (lambda: GreedyArrayRouter(ArrayMesh(5)), _uniform_pairs),
            (
                lambda: GreedyArrayRouter(ArrayMesh(4, 6), column_first=True),
                _uniform_pairs,
            ),
            (
                lambda: GreedyKDRouter(KDArray((3, 5, 2)), dimension_order=(2, 0, 1)),
                _uniform_pairs,
            ),
            (lambda: GreedyHypercubeRouter(Hypercube(4)), None),
            (lambda: ButterflyRouter(Butterfly(3)), None),
            (
                lambda: TabulatedRouter(
                    ArrayMesh(2, 3),
                    GreedyArrayRouter(
                        ArrayMesh(2, 3), column_first=True
                    ).all_pairs_paths(),
                ),
                _uniform_pairs,
            ),
        ],
        ids=["mesh", "mesh-column-first", "kd", "hypercube", "butterfly", "tabulated"],
    )
    @pytest.mark.parametrize("size", [7, 1024], ids=["few", "many"])
    def test_matches_cache_lookup_and_gather(self, router_factory, pairs, size):
        """7 packets are fewer than the pairs of these networks; 1024 are
        more, so the deduplication must expand repeated pairs."""
        router = router_factory()
        topo = router.topology
        rng = np.random.default_rng(size)
        if isinstance(topo, Butterfly):
            srcs, dsts = _butterfly_pairs(topo, rng, size)
        elif isinstance(topo, Hypercube):
            srcs, dsts = _p_biased_pairs(topo, rng, size)
        else:
            srcs, dsts = pairs(topo.num_nodes, rng, size)
        assert (topo.num_nodes**2 <= size) == (size == 1024)
        cache = path_cache_for(router)
        want = _cached_visits(cache, *cache.offlen_batch(srcs, dsts))
        visits, lens = route_packets(router, srcs, dsts, None)
        assert visits.dtype == np.int32 and lens.dtype == np.int64
        assert visits.tolist() == want.tolist()
        assert lens.tolist() == [len(router.path(s, d)) for s, d in zip(srcs, dsts)]

    def test_dict_only_cache_agrees(self):
        """A network past the dense limit: the dict-probe batch lookup."""
        router = GreedyArrayRouter(ArrayMesh(17))
        assert router.topology.num_nodes > DENSE_NODE_LIMIT
        srcs, dsts = _uniform_pairs(289, np.random.default_rng(1), 500)
        cache = path_cache_for(router)
        want = _cached_visits(cache, *cache.offlen_batch(srcs, dsts))
        assert route_packets(router, srcs, dsts, None)[0].tolist() == want.tolist()

    def test_no_packets(self):
        for router in (
            GreedyArrayRouter(ArrayMesh(3)),
            GreedyHypercubeRouter(Hypercube(2)),
        ):
            none = np.array([], dtype=np.int64)
            visits, lens = route_packets(router, none, none, None)
            assert visits.size == 0 and lens.size == 0

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("size", [5, 300])
    def test_randomized_draws_the_cache_batch_coins(self, p, size):
        router = RandomizedGreedyArrayRouter(ArrayMesh(4), row_first_probability=p)
        srcs, dsts = _uniform_pairs(16, np.random.default_rng(9), size)
        cache = RandomizedGreedyPathCache(router)
        a, b = np.random.default_rng(4), np.random.default_rng(4)
        want = _cached_visits(cache, *cache.sample_offlen_batch(srcs, dsts, a))
        visits, lens = route_packets(router, srcs, dsts, b)
        assert visits.tolist() == want.tolist()
        assert a.random() == b.random()  # streams advanced identically

    def test_rng_router_draws_the_interner_stream(self):
        """An unrecognised RNG-consuming router: one ``sample_path`` per
        packet, in packet order, as the interner draws them."""

        class CoinRouter(BaseRouter):
            """Row-first or column-first by a per-packet coin."""

            def __init__(self, mesh):
                super().__init__(mesh)
                self.orders = (
                    GreedyArrayRouter(mesh),
                    GreedyArrayRouter(mesh, column_first=True),
                )

            def path(self, src, dst):
                return self.orders[0].path(src, dst)

            def sample_path(self, src, dst, rng):
                return self.orders[int(rng.integers(2))].path(src, dst)

        router = CoinRouter(ArrayMesh(4))
        interner = path_cache_for(router)
        assert isinstance(interner, SampledPathInterner)
        srcs, dsts = _uniform_pairs(16, np.random.default_rng(2), 200)
        a, b = np.random.default_rng(6), np.random.default_rng(6)
        want = _cached_visits(interner, *interner.sample_offlen_batch(srcs, dsts, a))
        visits, lens = route_packets(router, srcs, dsts, b)
        assert visits.tolist() == want.tolist()
        assert a.random() == b.random()
