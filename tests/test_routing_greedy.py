"""Unit and property tests for greedy array routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.greedy import GreedyArrayRouter, GreedyKDRouter
from repro.topology.array_mesh import ArrayMesh, KDArray

from _route_oracle import ReferenceMeshRouter, reference_kd_path


class TestGreedyArrayRouter:
    def test_empty_path_for_same_node(self, router4):
        assert router4.path(5, 5) == ()

    def test_row_first_order(self):
        """The paper's scheme: all row edges precede all column edges."""
        mesh = ArrayMesh(5)
        router = GreedyArrayRouter(mesh)
        src, dst = mesh.node_id(0, 0), mesh.node_id(3, 4)
        path = router.path(src, dst)
        directions = [mesh.edge_direction(e) for e in path]
        # 4 horizontal then 3 vertical.
        assert directions == ["right"] * 4 + ["down"] * 3

    def test_column_first_order(self):
        mesh = ArrayMesh(5)
        router = GreedyArrayRouter(mesh, column_first=True)
        src, dst = mesh.node_id(0, 0), mesh.node_id(3, 4)
        directions = [mesh.edge_direction(e) for e in router.path(src, dst)]
        assert directions == ["down"] * 3 + ["right"] * 4

    def test_all_pairs_valid_and_shortest(self, mesh4, router4):
        for s in range(mesh4.num_nodes):
            for t in range(mesh4.num_nodes):
                path = router4.path(s, t)
                mesh4.validate_path(path, s, t)
                i1, j1 = mesh4.node_coords(s)
                i2, j2 = mesh4.node_coords(t)
                assert len(path) == abs(i1 - i2) + abs(j1 - j2)

    def test_leftward_and_upward_paths(self):
        mesh = ArrayMesh(4)
        router = GreedyArrayRouter(mesh)
        src, dst = mesh.node_id(3, 3), mesh.node_id(1, 0)
        directions = [mesh.edge_direction(e) for e in router.path(src, dst)]
        assert directions == ["left"] * 3 + ["up"] * 2

    def test_sample_path_is_deterministic(self, router4, rng):
        assert router4.sample_path(0, 15, rng) == router4.path(0, 15)

    def test_path_length_helper(self, router4):
        assert router4.path_length(0, 15) == 6

    @given(st.integers(0, 35), st.integers(0, 35))
    @settings(max_examples=80, deadline=None)
    def test_path_never_revisits_a_node(self, s, t):
        mesh = ArrayMesh(6)
        router = GreedyArrayRouter(mesh)
        path = router.path(s, t)
        visited = [s]
        at = s
        for e in path:
            at = mesh.edge_endpoints(e)[1]
            visited.append(at)
        assert len(set(visited)) == len(visited)


class TestGreedyKDRouter:
    def test_2d_column_major_matches_row_first_length(self):
        kd = KDArray((4, 4))
        router = GreedyKDRouter(kd)
        for s in range(16):
            for t in range(16):
                cs, ct = kd.node_coords(s), kd.node_coords(t)
                expected = sum(abs(a - b) for a, b in zip(cs, ct))
                path = router.path(s, t)
                kd.validate_path(path, s, t)
                assert len(path) == expected

    def test_3d_paths_valid(self):
        kd = KDArray((2, 3, 2))
        router = GreedyKDRouter(kd)
        for s in range(kd.num_nodes):
            for t in range(kd.num_nodes):
                kd.validate_path(router.path(s, t), s, t)

    def test_dimension_order_respected(self):
        kd = KDArray((3, 3))
        router = GreedyKDRouter(kd, dimension_order=(1, 0))
        # Correcting axis 1 first means stride-1 moves come first.
        path = router.path(kd.node_id((0, 0)), kd.node_id((2, 2)))
        first_two = [kd.edge_endpoints(e) for e in path[:2]]
        assert all(v - u == 1 for u, v in first_two)  # axis-1 steps

    def test_bad_dimension_order(self):
        with pytest.raises(ValueError):
            GreedyKDRouter(KDArray((3, 3)), dimension_order=(0, 0))

    def test_kd_mean_distance_matches_2d_formula(self):
        """Cross-check: mean path length on KDArray((n,n)) equals n-bar."""
        from repro.core.distances import mean_distance
        from repro.routing.destinations import UniformDestinations
        from repro.core.distances import mean_route_length

        kd = KDArray((4, 4))
        router = GreedyKDRouter(kd)
        got = mean_route_length(router, UniformDestinations(kd.num_nodes))
        assert np.isclose(got, mean_distance(4))


def _all_pairs(n):
    return [(s, t) for s in range(n) for t in range(n)]


class TestGreedyWalkParity:
    """The one greedy walk against the test oracle's two walks: the
    per-direction-grid mesh walk and the per-hop ``edge_id`` k-d walk."""

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (5, 2), (8, 8)])
    @pytest.mark.parametrize("column_first", [False, True])
    def test_mesh_orders_on_every_pair(self, shape, column_first):
        mesh = ArrayMesh(*shape)
        router = GreedyArrayRouter(mesh, column_first=column_first)
        oracle = ReferenceMeshRouter(mesh, column_first=column_first)
        order = (0, 1) if column_first else (1, 0)
        assert router.dimension_order == order
        kd = GreedyKDRouter(KDArray(shape), order)
        for s, t in _all_pairs(mesh.num_nodes):
            path = router.path(s, t)
            assert path == oracle.path(s, t)
            assert path == reference_kd_path(mesh, order, s, t)
            assert kd.path(s, t) == reference_kd_path(kd.array, order, s, t)

    @pytest.mark.parametrize("column_first", [False, True])
    def test_random_pairs_on_32x32(self, column_first):
        mesh = ArrayMesh(32)
        router = GreedyArrayRouter(mesh, column_first=column_first)
        oracle = ReferenceMeshRouter(mesh, column_first=column_first)
        order = router.dimension_order
        pairs = np.random.default_rng(30).integers(0, mesh.num_nodes, size=(20_000, 2))
        for s, t in pairs.tolist():
            path = router.path(s, t)
            assert path == oracle.path(s, t)
            assert path == reference_kd_path(mesh, order, s, t)

    @pytest.mark.parametrize("order", [(2, 0, 3, 1), (0, 1, 2, 3)])
    def test_4d_array_on_every_pair(self, order):
        array = KDArray((4,) * 4)
        router = GreedyKDRouter(array, order)
        for s, t in _all_pairs(array.num_nodes):
            assert router.path(s, t) == reference_kd_path(array, order, s, t)

    @pytest.mark.parametrize("src, dst", [(0, 1023), (1023, 0), (40, 977)])
    def test_paths_share_int_objects(self, src, dst):
        """Every path reuses one int object per edge id, so a path cache's
        arena costs a list slot per entry, not a fresh int."""
        router = GreedyArrayRouter(ArrayMesh(32))
        first, again = router.path(src, dst), router.path(src, dst)
        assert len(first) > 30 and max(first) > 256
        assert all(a is b for a, b in zip(first, again))

    def test_mesh_router_keeps_its_attributes(self):
        mesh = ArrayMesh(4, 6)
        router = GreedyArrayRouter(mesh, column_first=True)
        assert router.mesh is mesh and router.array is mesh
        assert router.topology is mesh and router.column_first
