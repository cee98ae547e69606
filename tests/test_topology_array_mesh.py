"""Unit tests for repro.topology.array_mesh."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP, ArrayMesh, KDArray
from repro.topology.linear import LinearArray

from _route_oracle import linear_edges, mesh_edges


class TestArrayMeshStructure:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_edge_count(self, n):
        mesh = ArrayMesh(n)
        assert mesh.num_edges == 4 * n * (n - 1)

    def test_rectangular(self):
        mesh = ArrayMesh(3, 5)
        assert mesh.num_nodes == 15
        # 2 * (rows*(cols-1) + (rows-1)*cols) edges.
        assert mesh.num_edges == 2 * (3 * 4 + 2 * 5)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            ArrayMesh(1)

    def test_node_coords_roundtrip(self):
        mesh = ArrayMesh(4, 3)
        for v in range(mesh.num_nodes):
            i, j = mesh.node_coords(v)
            assert mesh.node_id(i, j) == v

    def test_node_id_bounds(self):
        mesh = ArrayMesh(3)
        with pytest.raises(ValueError):
            mesh.node_id(3, 0)
        with pytest.raises(ValueError):
            mesh.node_coords(9)

    def test_upper_left_is_zero(self):
        assert ArrayMesh(5).node_id(0, 0) == 0


class TestDirectedEdges:
    def test_right_edge_endpoints(self):
        mesh = ArrayMesh(3)
        e = mesh.directed_edge_id(1, 0, RIGHT)
        assert mesh.edge_endpoints(e) == (mesh.node_id(1, 0), mesh.node_id(1, 1))

    def test_left_edge_endpoints(self):
        mesh = ArrayMesh(3)
        e = mesh.directed_edge_id(1, 2, LEFT)
        assert mesh.edge_endpoints(e) == (mesh.node_id(1, 2), mesh.node_id(1, 1))

    def test_down_edge_endpoints(self):
        mesh = ArrayMesh(3)
        e = mesh.directed_edge_id(0, 2, DOWN)
        assert mesh.edge_endpoints(e) == (mesh.node_id(0, 2), mesh.node_id(1, 2))

    def test_up_edge_endpoints(self):
        mesh = ArrayMesh(3)
        e = mesh.directed_edge_id(2, 1, UP)
        assert mesh.edge_endpoints(e) == (mesh.node_id(2, 1), mesh.node_id(1, 1))

    def test_border_edges_rejected(self):
        mesh = ArrayMesh(3)
        with pytest.raises(ValueError):
            mesh.directed_edge_id(0, 2, RIGHT)
        with pytest.raises(ValueError):
            mesh.directed_edge_id(0, 0, LEFT)
        with pytest.raises(ValueError):
            mesh.directed_edge_id(2, 0, DOWN)
        with pytest.raises(ValueError):
            mesh.directed_edge_id(0, 0, UP)

    def test_unknown_direction(self):
        with pytest.raises(ValueError, match="direction"):
            ArrayMesh(3).directed_edge_id(0, 0, "diagonal")

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_direction_blocks_consistent(self, n):
        """edge_direction agrees with directed_edge_id for every edge."""
        mesh = ArrayMesh(n)
        seen = set()
        for i in range(n):
            for j in range(n):
                for direction, ok in (
                    (RIGHT, j < n - 1),
                    (LEFT, j > 0),
                    (DOWN, i < n - 1),
                    (UP, i > 0),
                ):
                    if ok:
                        e = mesh.directed_edge_id(i, j, direction)
                        assert mesh.edge_direction(e) == direction
                        assert mesh.edge_info(e) == (direction, i, j)
                        seen.add(e)
        assert seen == set(range(mesh.num_edges))

    def test_every_neighbor_pair_has_both_edges(self):
        mesh = ArrayMesh(4)
        for v in range(mesh.num_nodes):
            i, j = mesh.node_coords(v)
            for di, dj in ((0, 1), (1, 0)):
                if i + di < 4 and j + dj < 4:
                    w = mesh.node_id(i + di, j + dj)
                    assert mesh.has_edge(v, w) and mesh.has_edge(w, v)

    def test_side_property(self):
        assert ArrayMesh(4).side == 4
        with pytest.raises(ValueError):
            _ = ArrayMesh(3, 4).side


class TestKDArray:
    def test_matches_2d_mesh_structure(self):
        kd = KDArray((3, 3))
        mesh = ArrayMesh(3)
        assert kd.num_nodes == mesh.num_nodes
        assert kd.num_edges == mesh.num_edges

    def test_3d_counts(self):
        kd = KDArray((2, 3, 4))
        assert kd.num_nodes == 24
        # directed edges = 2 * sum over axes of (d_axis-1) * prod(others)
        expected = 2 * ((1 * 12) + (2 * 8) + (3 * 6))
        assert kd.num_edges == expected

    def test_coord_roundtrip(self):
        kd = KDArray((2, 3, 2))
        for v in range(kd.num_nodes):
            assert kd.node_id(kd.node_coords(v)) == v

    def test_blocks_partition_edges(self):
        kd = KDArray((3, 2))
        spans = [kd.block(a, s) for a in range(2) for s in (+1, -1)]
        covered = set()
        for lo, hi in spans:
            covered |= set(range(lo, hi))
        assert covered == set(range(kd.num_edges))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            KDArray((1, 3))
        with pytest.raises(ValueError):
            KDArray(())

    @given(st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_edges_connect_unit_steps(self, dims):
        """Property: every edge connects coordinates differing by one unit
        along exactly one axis."""
        kd = KDArray(tuple(dims))
        for e in range(kd.num_edges):
            u, v = kd.edge_endpoints(e)
            cu, cv = kd.node_coords(u), kd.node_coords(v)
            diffs = [abs(a - b) for a, b in zip(cu, cv)]
            assert sum(diffs) == 1 and max(diffs) == 1

    @pytest.mark.parametrize("dims", [(2.7, 3), (True, 2), (3, np.int64(3)), ("3",)])
    def test_rejects_non_int_sides(self, dims):
        """Sides are validated, not truncated: ``(2.7, 3)`` is no 2x3 array."""
        with pytest.raises(TypeError, match="dims"):
            KDArray(dims)

    @pytest.mark.parametrize("order", [(0,), (0, 0), (1, 2), (0, 1, 2)])
    def test_rejects_bad_block_order(self, order):
        with pytest.raises(ValueError, match="block_order"):
            KDArray((3, 3), block_order=order)

    def test_block_order_places_blocks(self):
        kd = KDArray((3, 4, 2), block_order=(2, 0, 1))
        spans = [kd.block(a, s) for a in (2, 0, 1) for s in (+1, -1)]
        assert [lo for lo, _ in spans] == [0] + [hi for _, hi in spans[:-1]]
        assert spans[-1][1] == kd.num_edges


class TestArrayFamilyParity:
    """ArrayMesh and LinearArray are KDArrays with the explicit edge loops'
    edge ids and names."""

    @pytest.mark.parametrize("shape", [(3, 3), (4, 6), (5, 2), (8, 8), (32, 32)])
    def test_mesh_edges_match_explicit_loops(self, shape):
        mesh = ArrayMesh(*shape)
        src, dst = zip(*mesh_edges(*shape))
        assert mesh.edge_source.tolist() == list(src)
        assert mesh.edge_target.tolist() == list(dst)
        assert mesh.name == f"array({shape[0]}x{shape[1]})"
        kd = KDArray(shape, block_order=(1, 0))
        assert np.array_equal(kd.edge_source, mesh.edge_source)
        assert np.array_equal(kd.edge_target, mesh.edge_target)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_linear_edges_match_explicit_loops(self, n):
        line = LinearArray(n)
        src, dst = zip(*linear_edges(n))
        assert line.edge_source.tolist() == list(src)
        assert line.edge_target.tolist() == list(dst)
        assert line.name == f"linear({n})"
        kd = KDArray((n,))
        assert np.array_equal(kd.edge_source, line.edge_source)
        assert np.array_equal(kd.edge_target, line.edge_target)

    def test_mesh_blocks_are_its_directions(self):
        mesh = ArrayMesh(4, 6)
        for (axis, sign), direction in {
            (1, +1): RIGHT,
            (1, -1): LEFT,
            (0, +1): DOWN,
            (0, -1): UP,
        }.items():
            lo, hi = mesh.block(axis, sign)
            assert {mesh.edge_direction(e) for e in range(lo, hi)} == {direction}
