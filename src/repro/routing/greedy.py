"""Greedy (dimension-order) routing on array meshes.

The paper's scheme: "packets move to their destination greedily, first to
the correct column along only row edges and then to the correct row along
only column edges". :class:`GreedyArrayRouter` implements exactly that
order (row edges first); :class:`GreedyKDRouter` generalises to
k-dimensional arrays, correcting dimensions in a fixed canonical order,
which is the natural higher-dimensional analogue from Section 5.2.

Implementation note: the simulators do not call ``path`` per packet; the
interpreted loops look paths up in a :mod:`repro.routing.pathcache` memo.
``path`` builds a scalar miss from precomputed per-direction edge-id
grids, one Python loop iteration per hop with no hashing. The numpy
kernels' direct routing (``route_packets``), batch lookups with many
misses and a cache's ``precompute_all`` build paths with the closed-form
mesh builder instead: it takes each leg's first edge from the same grids
and relies on :class:`~repro.topology.array_mesh.ArrayMesh`'s edge-id
layout only for the step along a leg (``±1`` along a row, ``±cols`` along
a column).
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP, ArrayMesh, KDArray


class GreedyArrayRouter(BaseRouter):
    """Row-first greedy routing on an :class:`ArrayMesh`.

    A packet at ``(i, j)`` destined for ``(i', j')`` first walks along row
    ``i`` to column ``j'`` (right or left), then along column ``j'`` to row
    ``i'`` (down or up).

    Parameters
    ----------
    mesh:
        The array mesh to route on.
    column_first:
        If true, correct the row coordinate first (column edges before row
        edges). The paper's standard scheme is ``column_first=False``; the
        transposed variant is provided because the randomized scheme of
        Section 6 mixes the two.

    Examples
    --------
    >>> mesh = ArrayMesh(3)
    >>> router = GreedyArrayRouter(mesh)
    >>> src, dst = mesh.node_id(0, 0), mesh.node_id(2, 1)
    >>> [mesh.edge_endpoints(e) for e in router.path(src, dst)]
    [(0, 1), (1, 4), (4, 7)]
    """

    def __init__(self, mesh: ArrayMesh, *, column_first: bool = False) -> None:
        super().__init__(mesh)
        self.mesh = mesh
        self.column_first = column_first
        rows, cols = mesh.rows, mesh.cols
        # Per-direction edge-id grids; -1 marks a missing edge at a border.
        self._right = np.full((rows, cols), -1, dtype=np.int64)
        self._left = np.full((rows, cols), -1, dtype=np.int64)
        self._down = np.full((rows, cols), -1, dtype=np.int64)
        self._up = np.full((rows, cols), -1, dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                if j < cols - 1:
                    self._right[i, j] = mesh.directed_edge_id(i, j, RIGHT)
                if j > 0:
                    self._left[i, j] = mesh.directed_edge_id(i, j, LEFT)
                if i < rows - 1:
                    self._down[i, j] = mesh.directed_edge_id(i, j, DOWN)
                if i > 0:
                    self._up[i, j] = mesh.directed_edge_id(i, j, UP)
        # Nested-list mirrors of the grids for the leg walks of ``path``:
        # Python list indexing is ~10x faster than NumPy scalar indexing,
        # and ``path`` is the path cache's scalar miss path (hot at large
        # meshes where most (src, dst) pairs are seen once).
        self._right_rows: list[list[int]] = self._right.tolist()
        self._left_rows: list[list[int]] = self._left.tolist()
        self._down_rows: list[list[int]] = self._down.tolist()
        self._up_rows: list[list[int]] = self._up.tolist()

    def _row_leg(self, i: int, j: int, j2: int) -> list[int]:
        """Edges walking along row ``i`` from column ``j`` to ``j2``."""
        if j2 > j:
            row = self._right_rows[i]
            return row[j:j2]
        row = self._left_rows[i]
        return [row[c] for c in range(j, j2, -1)]

    def _col_leg(self, i: int, i2: int, j: int) -> list[int]:
        """Edges walking along column ``j`` from row ``i`` to ``i2``."""
        if i2 > i:
            grid = self._down_rows
            return [grid[r][j] for r in range(i, i2)]
        grid = self._up_rows
        return [grid[r][j] for r in range(i, i2, -1)]

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Greedy path from ``src`` to ``dst``; empty when they coincide."""
        if src == dst:
            return ()
        i1, j1 = self.mesh.node_coords(src)
        i2, j2 = self.mesh.node_coords(dst)
        if self.column_first:
            first = self._col_leg(i1, i2, j1) if i1 != i2 else []
            second = self._row_leg(i2, j1, j2) if j1 != j2 else []
        else:
            first = self._row_leg(i1, j1, j2) if j1 != j2 else []
            second = self._col_leg(i1, i2, j2) if i1 != i2 else []
        return tuple(first + second)


class GreedyKDRouter(BaseRouter):
    """Dimension-order greedy routing on a :class:`KDArray`.

    Dimensions are corrected in the order given by ``dimension_order``
    (default ``0, 1, ..., k-1``). On a 2-D array with order ``(1, 0)`` this
    coincides with the paper's row-first scheme (dimension 1 is the column
    coordinate, adjusted while moving along the row).
    """

    def __init__(self, array: KDArray, dimension_order: tuple[int, ...] | None = None) -> None:
        super().__init__(array)
        self.array = array
        k = len(array.dims)
        order = tuple(range(k)) if dimension_order is None else tuple(dimension_order)
        if sorted(order) != list(range(k)):
            raise ValueError(f"dimension_order must permute 0..{k - 1}, got {order}")
        self.dimension_order = order

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Correct each dimension fully, in canonical order."""
        if src == dst:
            return ()
        coord = list(self.array.node_coords(src))
        target = self.array.node_coords(dst)
        at = src
        out: list[int] = []
        for axis in self.dimension_order:
            step = self.array.strides[axis]
            while coord[axis] < target[axis]:
                nxt = at + step
                out.append(self.array.edge_id(at, nxt))
                at = nxt
                coord[axis] += 1
            while coord[axis] > target[axis]:
                nxt = at - step
                out.append(self.array.edge_id(at, nxt))
                at = nxt
                coord[axis] -= 1
        return tuple(out)
