"""Tests for Lemma 2 layering, the generic validator, and the torus
obstruction (Section 6)."""

import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.core.layering import (
    array_layering_labels,
    find_layering_obstruction,
    follows_digraph,
    layering_from_follows,
    render_figure1,
    verify_layering,
)
from repro.routing.base import TabulatedRouter
from repro.routing.butterfly_routing import ButterflyRouter
from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.routing.hypercube_greedy import GreedyHypercubeRouter
from repro.routing.randomized_greedy import RandomizedGreedyArrayRouter
from repro.routing.torus_greedy import GreedyTorusRouter
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.butterfly import Butterfly
from repro.topology.hypercube import Hypercube
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus


class TestLemma2Labels:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_labelling_layers_the_array(self, n):
        mesh = ArrayMesh(n)
        labels = array_layering_labels(mesh)
        assert verify_layering(GreedyArrayRouter(mesh), labels)

    def test_label_values_match_paper_table(self):
        """Spot-check the four formulas at specific edges (1-based paper)."""
        n = 5
        mesh = ArrayMesh(n)
        labels = array_layering_labels(mesh)
        # right edge ((2,3),(2,4)): label j = 3  ->  0-based (1,2)
        assert labels[mesh.directed_edge_id(1, 2, "right")] == 3
        # left edge ((2,4),(2,3)): label n - j = 2
        assert labels[mesh.directed_edge_id(1, 3, "left")] == 2
        # down edge ((2,3),(3,3)): label n + i - 1 = 6
        assert labels[mesh.directed_edge_id(1, 2, "down")] == 6
        # up edge ((3,3),(2,3)): label 2n - i - 1 = 7 with i = 2
        assert labels[mesh.directed_edge_id(2, 2, "up")] == 7

    def test_row_labels_below_column_labels(self):
        n = 6
        mesh = ArrayMesh(n)
        labels = array_layering_labels(mesh)
        h = mesh.horizontal_edge_count()
        assert labels[: 2 * h].max() == n - 1
        assert labels[2 * h :].min() == n

    def test_rectangular_rejected(self):
        with pytest.raises(ValueError):
            array_layering_labels(ArrayMesh(3, 4))

    def test_render_contains_labels(self):
        text = render_figure1(3)
        assert "R1" in text and "D" in text


class TestRouterEdgeLevels:
    """The routers' closed-form levels layer every canonical route."""

    @pytest.mark.parametrize("column_first", [False, True])
    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (3, 5), (6, 2)])
    def test_mesh(self, shape, column_first):
        router = GreedyArrayRouter(ArrayMesh(*shape), column_first=column_first)
        levels = router.edge_levels()
        assert levels.dtype == np.int16
        assert verify_layering(router, levels)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_linear_array(self, n):
        router = GreedyKDRouter(LinearArray(n))
        levels = router.edge_levels()
        assert verify_layering(router, levels)
        assert levels.max() == n - 2

    @pytest.mark.parametrize("order", [(0, 1, 2), (2, 0, 1), (1, 2, 0)])
    def test_3d_array_any_walk_order(self, order):
        array = KDArray((3, 2, 4), block_order=(1, 2, 0))
        router = GreedyKDRouter(array, dimension_order=order)
        assert verify_layering(router, router.edge_levels())

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_hypercube(self, d):
        cube = Hypercube(d)
        router = GreedyHypercubeRouter(cube)
        levels = router.edge_levels()
        assert verify_layering(router, levels)
        assert levels.tolist() == [
            cube.edge_dimension(e) for e in range(cube.num_edges)
        ]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_butterfly(self, d):
        b = Butterfly(d)
        router = ButterflyRouter(b)
        levels = router.edge_levels()
        assert levels.dtype == np.int16
        assert levels.tolist() == [b.edge_level(e) for e in range(b.num_edges)]
        sources = [b.node_id(0, r) for r in range(b.rows)]
        dests = [b.node_id(d, r) for r in range(b.rows)]
        assert verify_layering(
            router, levels, source_nodes=sources, dest_nodes=dests
        )

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_lemma2_labels_are_the_levels_plus_one(self, n):
        mesh = ArrayMesh(n)
        levels = GreedyArrayRouter(mesh).edge_levels()
        assert (array_layering_labels(mesh) == levels + 1).all()

    @pytest.mark.parametrize(
        "router_factory",
        [
            lambda: GreedyTorusRouter(Torus(4)),
            lambda: RandomizedGreedyArrayRouter(ArrayMesh(3)),
            lambda: RandomizedGreedyArrayRouter(
                ArrayMesh(3), row_first_probability=1.0
            ),
            lambda: TabulatedRouter(LinearArray(2), {(0, 1): [0], (1, 0): [1]}),
        ],
        ids=["torus", "randomized", "randomized-p1", "tabulated"],
    )
    def test_other_routers_have_none(self, router_factory):
        assert router_factory().edge_levels() is None


class TestVerifyLayering:
    def test_rejects_bad_labelling(self, mesh4, router4):
        labels = np.zeros(mesh4.num_edges, dtype=int)  # all equal: not strict
        assert not verify_layering(router4, labels)

    def test_shape_mismatch(self, router4):
        with pytest.raises(ValueError):
            verify_layering(router4, np.zeros(3))

    def test_butterfly_level_labels_layer(self):
        b = Butterfly(3)
        router = ButterflyRouter(b)
        labels = np.array([b.edge_level(e) for e in range(b.num_edges)])
        sources = [b.node_id(0, r) for r in range(b.rows)]
        dests = [b.node_id(3, r) for r in range(b.rows)]
        assert verify_layering(router, labels, source_nodes=sources, dest_nodes=dests)

    def test_hypercube_dimension_labels_layer(self):
        cube = Hypercube(3)
        router = GreedyHypercubeRouter(cube)
        labels = np.array(
            [cube.edge_dimension(e) for e in range(cube.num_edges)]
        )
        assert verify_layering(router, labels)


class TestFollowsDigraphAndObstruction:
    def test_array_is_acyclic_with_topo_labels(self, mesh4, router4):
        auto = layering_from_follows(router4)
        assert auto is not None
        assert verify_layering(router4, auto)

    def test_array_no_obstruction(self, router4):
        assert find_layering_obstruction(router4) is None

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_torus_has_obstruction(self, n):
        """Section 6: greedy on the torus routes around directed rings, so
        no layering exists; the witness is a cycle in the follows graph."""
        router = GreedyTorusRouter(Torus(n))
        cycle = find_layering_obstruction(router)
        assert cycle is not None and len(cycle) >= 2

    def test_torus_layering_from_follows_is_none(self):
        assert layering_from_follows(GreedyTorusRouter(Torus(4))) is None

    def test_torus_3_is_degenerately_layerable(self):
        """Shortest-way greedy on the 3x3 torus has legs of at most one
        edge, so no ring is ever traversed and a layering exists — the
        degenerate exception documented in repro.core.layering."""
        router = GreedyTorusRouter(Torus(3))
        labels = layering_from_follows(router)
        assert labels is not None
        assert verify_layering(router, labels)

    def test_follows_digraph_edges_are_consecutive_pairs(self, mesh4, router4):
        g = follows_digraph(router4)
        for a, b in g.edges():
            # consecutive edges must share the intermediate node
            assert mesh4.edge_endpoints(a)[1] == mesh4.edge_endpoints(b)[0]


class TestObstructionWithoutNetworkx:
    """The obstruction and topological-order searches run on a plain
    adjacency map; networkx is only the test oracle."""

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_torus_cycle_is_a_directed_cycle_of_the_relation(self, n):
        router = GreedyTorusRouter(Torus(n))
        cycle = find_layering_obstruction(router)
        g = follows_digraph(router)
        assert len(set(cycle)) == len(cycle) >= 2
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert g.has_edge(a, b)

    @pytest.mark.parametrize(
        "router_factory",
        [
            lambda: GreedyArrayRouter(ArrayMesh(4)),
            lambda: GreedyArrayRouter(ArrayMesh(3, 5), column_first=True),
            lambda: GreedyKDRouter(KDArray((3, 2, 3))),
            lambda: GreedyHypercubeRouter(Hypercube(3)),
            lambda: ButterflyRouter(Butterfly(2)),
            lambda: GreedyTorusRouter(Torus(3)),
            lambda: GreedyTorusRouter(Torus(4)),
            lambda: GreedyTorusRouter(Torus(5), column_first=True),
            lambda: GreedyTorusRouter(Torus(6)),
        ],
    )
    def test_agrees_with_networkx(self, router_factory):
        router = router_factory()
        kw = {}
        if isinstance(router, ButterflyRouter):
            b = router.topology
            kw = dict(
                source_nodes=[b.node_id(0, r) for r in range(b.rows)],
                dest_nodes=[b.node_id(b.d, r) for r in range(b.rows)],
            )
        g = follows_digraph(router, **kw)
        try:
            want = [a for a, _b in nx.find_cycle(g)]
        except nx.NetworkXNoCycle:
            want = None
        assert find_layering_obstruction(router, **kw) == want
        if not kw:
            labels = layering_from_follows(router)
            assert (labels is None) == (want is not None)
            if labels is not None:
                assert verify_layering(router, labels)

    def test_torus_experiment_never_imports_networkx(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = f"""
import sys
sys.path.insert(0, {src!r})
from repro.experiments import torus
cfg = torus.TorusConfig(n=4, rho=0.5, warmup=5.0, horizon=20.0)
assert torus.run(cfg, processes=1).obstruction_cycle_len >= 2
print("networkx" in sys.modules)
"""
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
