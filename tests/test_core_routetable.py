"""Bit-exact parity of the route-table ingredients with the reference loops.

Every exact route ingredient (per-edge rates, mean and maximal route
length, expected remaining distances, saturated counts) is a reduction
over a :class:`~repro.core.routetable.RouteTable`. The reductions keep the
reference loops' accumulation order, so they must agree with the loops in
``tests/_route_oracle.py`` exactly — ``np.array_equal`` (NaN-aware) on the
arrays and ``==`` on scalars and on :class:`GenericBounds` — not merely to
a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

import _route_oracle as oracle
from repro.core.distances import max_route_length, mean_route_length
from repro.core.generic_bounds import generic_bounds
from repro.core.rates import edge_rates_from_routing
from repro.core.remaining_distance import expected_remaining_distances
from repro.core.routetable import RouteTable
from repro.core.saturation import (
    max_saturated_on_route,
    s_bar_exact,
    saturated_edge_mask,
    saturated_remaining_expectations,
)
from repro.routing.base import TabulatedRouter
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.destinations import (
    GeometricStopDestinations,
    HotSpotDestinations,
    MatrixDestinations,
    PBiasedHypercubeDestinations,
    PermutationDestinations,
    UniformDestinations,
)
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.torus import Torus


def _weighted(sources):
    """Uneven source weights with a zero every fifth source."""
    return [0.0 if i % 5 == 0 else 1.0 + (i % 3) for i in range(len(sources))]


def _uniform_outputs(b: Butterfly) -> MatrixDestinations:
    """Every node sends uniformly to the level-d outputs."""
    outs = [b.node_id(b.d, r) for r in range(b.rows)]
    p = np.zeros((b.num_nodes, b.num_nodes))
    p[:, outs] = 1.0 / len(outs)
    return MatrixDestinations(p)


def _tabulated() -> TabulatedRouter:
    """Column-first mesh paths frozen into an explicit table."""
    mesh = ArrayMesh(3, 4)
    walk = GreedyArrayRouter(mesh, column_first=True)
    n = mesh.num_nodes
    return TabulatedRouter(
        mesh, {(s, d): walk.path(s, d) for s in range(n) for d in range(n) if s != d}
    )


def _sparse_matrix(n: int) -> MatrixDestinations:
    """A row-stochastic law with many zero entries."""
    rng = np.random.default_rng(9)
    p = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
    p[np.arange(n), (np.arange(n) + 1) % n] += 0.5
    return MatrixDestinations(p / p.sum(axis=1, keepdims=True))


def _system(name):
    """``(router, destinations, source_nodes, weights, layered)``."""
    if name == "mesh-row-first-uniform":
        mesh = ArrayMesh(5, 7)
        return GreedyArrayRouter(mesh), UniformDestinations(35), None, None, True
    if name == "mesh-column-first-hotspot":
        mesh = ArrayMesh(5, 7)
        router = GreedyArrayRouter(mesh, column_first=True)
        return router, HotSpotDestinations(35, hot_node=17, h=0.3), None, None, True
    if name == "mesh-geometric-weighted":
        mesh = ArrayMesh(4, 6)
        sources = list(range(mesh.num_nodes))
        dests = GeometricStopDestinations(mesh, stop=0.4)
        return GreedyArrayRouter(mesh), dests, sources, _weighted(sources), True
    if name == "mesh-transpose":
        mesh = ArrayMesh(6)
        dests = PermutationDestinations.transpose(mesh)
        return GreedyArrayRouter(mesh), dests, None, None, True
    if name == "kd-uneven-permuted-weighted":
        array = KDArray((3, 5, 2))
        sources = list(range(array.num_nodes))[::-1]
        router = GreedyKDRouter(array, (2, 0, 1))
        dests = HotSpotDestinations(array.num_nodes, hot_node=7, h=0.2)
        return router, dests, sources, _weighted(sources), True
    if name == "torus-uniform":
        torus = Torus(6)
        return GreedyTorusRouter(torus), UniformDestinations(36), None, None, False
    if name == "hypercube-p-biased":
        cube = Hypercube(5)
        dests = PBiasedHypercubeDestinations(cube, 0.3)
        return GreedyHypercubeRouter(cube), dests, None, None, True
    if name == "butterfly-level-0-sources":
        b = Butterfly(3)
        sources = [b.node_id(0, r) for r in range(b.rows)]
        return ButterflyRouter(b), _uniform_outputs(b), sources, None, True
    if name == "tabulated-sparse-law":
        router = _tabulated()
        return router, _sparse_matrix(12), None, None, True
    if name == "randomized-canonical-weighted":
        mesh = ArrayMesh(4, 5)
        sources = list(range(mesh.num_nodes))
        router = RandomizedGreedyArrayRouter(mesh)
        return router, UniformDestinations(20), sources, _weighted(sources), True
    raise KeyError(name)


SYSTEMS = [
    "mesh-row-first-uniform",
    "mesh-column-first-hotspot",
    "mesh-geometric-weighted",
    "mesh-transpose",
    "kd-uneven-permuted-weighted",
    "torus-uniform",
    "hypercube-p-biased",
    "butterfly-level-0-sources",
    "tabulated-sparse-law",
    "randomized-canonical-weighted",
]


def _same(a, b):
    assert type(a) is type(b)
    if isinstance(a, np.ndarray):
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
    else:
        assert a == b


@pytest.fixture(scope="module", params=SYSTEMS)
def system(request):
    router, dests, sources, weights, layered = _system(request.param)
    rates = oracle.edge_rates_from_routing(
        router, dests, 1.0 if weights is None else weights, source_nodes=sources
    )
    support = np.zeros(router.topology.num_nodes, dtype=bool)
    for src in sources if sources is not None else range(support.size):
        support |= dests.pmf(src) > 0
    dest_nodes = np.flatnonzero(support).tolist()
    return router, dests, sources, weights, layered, rates, dest_nodes


class TestHelpersMatchTheReferenceLoops:
    def test_edge_rates(self, system):
        router, dests, sources, weights, _, _, _ = system
        rates = 0.5 if weights is None else weights
        _same(
            edge_rates_from_routing(router, dests, rates, source_nodes=sources),
            oracle.edge_rates_from_routing(router, dests, rates, source_nodes=sources),
        )

    def test_mean_route_length(self, system):
        router, dests, sources, weights, _, _, _ = system
        kw = dict(source_nodes=sources, source_weights=weights)
        got = mean_route_length(router, dests, **kw)
        assert type(got) is float
        _same(got, oracle.mean_route_length(router, dests, **kw))

    def test_max_route_length(self, system):
        router, _, sources, _, _, _, dest_nodes = system
        kw = dict(source_nodes=sources, dest_nodes=dest_nodes)
        _same(max_route_length(router, **kw), oracle.max_route_length(router, **kw))

    def test_expected_remaining_distances(self, system):
        router, dests, sources, weights, _, _, _ = system
        kw = dict(source_nodes=sources, source_weights=weights)
        _same(
            expected_remaining_distances(router, dests, **kw),
            oracle.expected_remaining_distances(router, dests, **kw),
        )

    def test_max_saturated_on_route(self, system):
        router, _, sources, _, _, rates, dest_nodes = system
        mask = saturated_edge_mask(rates)
        kw = dict(source_nodes=sources, dest_nodes=dest_nodes)
        _same(
            max_saturated_on_route(router, mask, **kw),
            oracle.max_saturated_on_route(router, mask, **kw),
        )

    def test_saturated_remaining_expectations(self, system):
        router, dests, sources, weights, _, rates, _ = system
        mask = saturated_edge_mask(rates)
        kw = dict(source_nodes=sources, source_weights=weights)
        _same(
            saturated_remaining_expectations(router, dests, mask, **kw),
            oracle.saturated_remaining_expectations(router, dests, mask, **kw),
        )

    def test_generic_bounds(self, system):
        router, dests, sources, weights, layered, rates, _ = system
        scale = 0.8 / rates.max()  # network load 0.8
        node_rate = scale if weights is None else [scale * w for w in weights]
        kw = dict(source_nodes=sources, layered=layered)
        got = generic_bounds(router, dests, node_rate, **kw)
        assert type(got.mean_distance) is float
        assert type(got.lower_trivial) is float
        _same(got, oracle.reference_bounds(router, dests, node_rate, **kw))


class TestFourDimensionalArray:
    """``KDArray((4,)*4)``: 65,536 pairs, where a pairwise mean or edge sum
    would already differ from the loops in the last bits."""

    @pytest.fixture(scope="class")
    def kd4(self):
        array = KDArray((4,) * 4)
        return GreedyKDRouter(array), UniformDestinations(array.num_nodes)

    def test_generic_bounds(self, kd4):
        router, dests = kd4
        lam = 0.9 * 4 / 4**4
        got = generic_bounds(router, dests, lam)
        assert type(got.mean_distance) is type(got.lower_trivial) is float
        _same(got, oracle.reference_bounds(router, dests, lam))

    def test_mean_route_length(self, kd4):
        router, dests = kd4
        got = mean_route_length(router, dests)
        assert type(got) is float
        _same(got, oracle.mean_route_length(router, dests))


class TestRouteTable:
    def test_layout_is_source_major_with_destinations_ascending(self):
        router = GreedyArrayRouter(ArrayMesh(3))
        sources = [4, 0, 8]
        keep = np.zeros((3, 9), dtype=bool)
        keep[:, [8, 0, 4, 5]] = True
        table = RouteTable.build(router, sources, keep)
        srcs = np.asarray(sources)[table.row].tolist()
        pairs = list(zip(srcs, table.dst.tolist()))
        assert pairs == [
            (4, 0), (4, 5), (4, 8), (0, 4), (0, 5), (0, 8), (8, 0), (8, 4), (8, 5)
        ]
        paths = [router.path(s, d) for s, d in pairs]
        assert table.lens.tolist() == [len(p) for p in paths]
        assert table.edges.tolist() == [e for p in paths for e in p]
        assert table.pair.tolist() == [i for i, p in enumerate(paths) for _ in p]
        assert table.pos.tolist() == [k for p in paths for k in range(len(p))]
        columns = (table.row, table.dst, table.lens, table.edges, table.pair, table.pos)
        assert {arr.dtype for arr in columns} == {np.dtype(np.int32)}
        total = table.mean_length(np.ones(len(pairs)))
        assert type(total) is float and total == sum(map(len, paths))

    def test_routes_only_kept_off_diagonal_pairs(self):
        """The butterfly router raises outside level 0 -> level d, so the
        table must route nothing else."""
        b = Butterfly(2)
        sources = [b.node_id(0, r) for r in range(b.rows)]
        outputs = np.zeros(b.num_nodes, dtype=bool)
        outputs[[b.node_id(b.d, r) for r in range(b.rows)]] = True
        table = RouteTable.build(ButterflyRouter(b), sources, outputs)
        assert table.lens.size == b.rows * b.rows
        assert set(table.lens.tolist()) == {b.d}

    def test_empty_table(self):
        router = GreedyKDRouter(KDArray((2, 3)))
        table = RouteTable.build(router, [0, 1], np.zeros(6, dtype=bool))
        assert table.lens.size == table.edges.size == 0
        assert table.max_length() == 0
        assert table.max_saturated(np.ones(router.topology.num_edges, bool)) == 0
        assert table.mean_length(np.zeros(0)) == 0.0
        assert type(table.mean_length(np.zeros(0))) is float
        assert np.isnan(table.remaining_distances(np.zeros(0))).all()


def test_s_bar_exact_is_memoized():
    s_bar_exact.cache_clear()
    first = s_bar_exact(5)
    assert s_bar_exact(5) is first
    assert s_bar_exact.cache_info().hits == 1
