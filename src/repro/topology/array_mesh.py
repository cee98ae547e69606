"""The n-by-m array mesh — the paper's central topology.

Nodes are laid out on a grid with *rows* ``0..rows-1`` (top to bottom, the
paper's ``i - 1``) and *columns* ``0..cols-1`` (left to right, the paper's
``j - 1``); node ``(1, 1)`` of the paper — the upper-left corner — is node
id 0 here. Every neighbouring pair is joined by two directed edges, one per
direction, matching the paper's "input and an output wire for each pair".

Edge-id layout
--------------
Edges are grouped by direction so analytic rate maps can be built with pure
NumPy indexing:

========= =========================== ==========================
direction paper edge                  id block
========= =========================== ==========================
RIGHT     ``((i, j), (i, j+1))``      ``0 .. H-1``
LEFT      ``((i, j+1), (i, j))``      ``H .. 2H-1``
DOWN      ``((i, j), (i+1, j))``      ``2H .. 2H+V-1``
UP        ``((i+1, j), (i, j))``      ``2H+V .. 2H+2V-1``
========= =========================== ==========================

with ``H = rows * (cols - 1)`` horizontal edges per direction and
``V = (rows - 1) * cols`` vertical edges per direction.

Each block lists its edges in row-major order of their source node.
:class:`ArrayMesh` is the 2-D :class:`KDArray`, the k-dimensional array of
the Section 5.2 extension, with the column axis's blocks first.
"""

from __future__ import annotations

import numpy as np

from repro.topology.base import Topology
from repro.util.validation import check_side

#: Direction constants. Values index the per-direction edge blocks.
RIGHT, LEFT, DOWN, UP = "right", "left", "down", "up"

DIRECTIONS = (RIGHT, LEFT, DOWN, UP)


class KDArray(Topology):
    """A k-dimensional array with both directed edges along every dimension.

    Supports the "higher dimensions" extension of Section 5.2, and is the
    one array topology: :class:`ArrayMesh` is the 2-D case and
    :class:`~repro.topology.linear.LinearArray` the 1-D one. Node ids use
    row-major (C) order over the coordinate tuple. Edge ids are grouped by
    ``(axis, sign)`` block, ``(axis, +)`` then ``(axis, -)`` for each axis
    in ``block_order``, so that per-dimension rate maps can be assembled
    independently. Each block lists its edges in source-node order, so
    along one axis consecutive edges of a walk differ by that axis's
    node-id stride.

    Parameters
    ----------
    dims:
        Side length per dimension, each an int of at least 2.
    block_order:
        The axes in edge-block order, a permutation of ``0..k-1``
        (default ascending). ``ArrayMesh(rows, cols)`` is
        ``KDArray((rows, cols), block_order=(1, 0))`` edge for edge.
    """

    def __init__(
        self, dims: tuple[int, ...], block_order: tuple[int, ...] | None = None
    ) -> None:
        if len(dims) < 1:
            raise ValueError("dims must have at least one dimension")
        dims = tuple(check_side(d, f"dims[{axis}]") for axis, d in enumerate(dims))
        k = len(dims)
        order = tuple(range(k)) if block_order is None else tuple(block_order)
        if sorted(order) != list(range(k)):
            raise ValueError(f"block_order must permute 0..{k - 1}, got {order}")
        self.dims = dims
        num_nodes = int(np.prod(dims))
        strides: list[int] = []
        acc = 1
        for d in reversed(dims):
            strides.append(acc)
            acc *= d
        self.strides = tuple(reversed(strides))  # row-major strides
        nodes = np.arange(num_nodes, dtype=np.int64)
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        self._block_slices: dict[tuple[int, int], tuple[int, int]] = {}
        start = 0
        for axis in order:
            stride, side = self.strides[axis], dims[axis]
            coord = nodes // stride % side
            for sign, has_edge in ((+1, coord < side - 1), (-1, coord > 0)):
                u = nodes[has_edge]
                sources.append(u)
                targets.append(u + sign * stride)
                self._block_slices[axis, sign] = (start, start + u.size)
                start += u.size
        edges = zip(np.concatenate(sources).tolist(), np.concatenate(targets).tolist())
        super().__init__(num_nodes, list(edges), name=f"kdarray{dims}")

    def node_id(self, coord: tuple[int, ...]) -> int:
        """Node id of a coordinate tuple."""
        if len(coord) != len(self.dims):
            raise ValueError(f"coordinate {coord} has wrong dimensionality")
        v = 0
        for c, d, s in zip(coord, self.dims, self.strides):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {coord} outside dims {self.dims}")
            v += c * s
        return v

    def node_coords(self, v: int) -> tuple[int, ...]:
        """Coordinate tuple of node id ``v``."""
        if not 0 <= v < self.num_nodes:
            raise ValueError(f"node {v} outside 0..{self.num_nodes - 1}")
        v = int(v)
        out = []
        for s in self.strides:
            out.append(v // s)
            v %= s
        return tuple(out)

    def block(self, axis: int, sign: int) -> tuple[int, int]:
        """Half-open edge-id range for the ``(axis, sign)`` direction block."""
        if sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        return self._block_slices[axis, sign]


class ArrayMesh(KDArray):
    """An ``rows x cols`` array mesh with directed edges in both directions.

    The 2-D :class:`KDArray` ``(rows, cols)`` with its column axis's blocks
    first (``block_order=(1, 0)``): RIGHT and LEFT are axis 1's ``+`` and
    ``-`` blocks, DOWN and UP axis 0's. On top of the k-d interface it
    keeps the paper's ``(i, j)`` node API and the direction labels.

    Parameters
    ----------
    rows:
        Number of rows (the paper's ``n``). Must be at least 2.
    cols:
        Number of columns; defaults to ``rows`` (the paper only treats
        square arrays but notes rectangular ones are handled similarly).

    Examples
    --------
    >>> mesh = ArrayMesh(3)
    >>> mesh.num_nodes, mesh.num_edges
    (9, 24)
    >>> mesh.edge_id(mesh.node_id(0, 0), mesh.node_id(0, 1))  # right edge
    0
    """

    def __init__(self, rows: int, cols: int | None = None) -> None:
        rows = check_side(rows, "rows")
        cols = rows if cols is None else check_side(cols, "cols")
        super().__init__((rows, cols), block_order=(1, 0))
        self.name = f"array({rows}x{cols})"
        self.rows = rows
        self.cols = cols
        self._h = rows * (cols - 1)
        self._v = (rows - 1) * cols

    # ------------------------------------------------------------------
    # Node coordinates
    # ------------------------------------------------------------------
    def node_id(self, i: int, j: int) -> int:
        """Node id of row ``i``, column ``j`` (0-based); the paper's form
        of :meth:`KDArray.node_id`, which takes the tuple ``(i, j)``."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise ValueError(f"({i}, {j}) outside {self.rows}x{self.cols} mesh")
        return i * self.cols + j

    # ------------------------------------------------------------------
    # Direction-structured edge access
    # ------------------------------------------------------------------
    def directed_edge_id(self, i: int, j: int, direction: str) -> int:
        """Edge id of the edge leaving node ``(i, j)`` in ``direction``.

        ``RIGHT`` requires ``j < cols-1``, ``LEFT`` requires ``j > 0``,
        ``DOWN`` requires ``i < rows-1``, ``UP`` requires ``i > 0``.
        """
        h, v, cols = self._h, self._v, self.cols
        if direction == RIGHT:
            if j >= cols - 1:
                raise ValueError(f"no right edge from column {j}")
            return i * (cols - 1) + j
        if direction == LEFT:
            if j <= 0:
                raise ValueError("no left edge from column 0")
            return h + i * (cols - 1) + (j - 1)
        if direction == DOWN:
            if i >= self.rows - 1:
                raise ValueError(f"no down edge from row {i}")
            return 2 * h + i * cols + j
        if direction == UP:
            if i <= 0:
                raise ValueError("no up edge from row 0")
            return 2 * h + v + (i - 1) * cols + j
        raise ValueError(f"unknown direction {direction!r}")

    def edge_direction(self, e: int) -> str:
        """Direction label of edge ``e``."""
        h, v = self._h, self._v
        if e < 0 or e >= self.num_edges:
            raise ValueError(f"edge {e} outside 0..{self.num_edges - 1}")
        if e < h:
            return RIGHT
        if e < 2 * h:
            return LEFT
        if e < 2 * h + v:
            return DOWN
        return UP

    def edge_info(self, e: int) -> tuple[str, int, int]:
        """Return ``(direction, i, j)`` where ``(i, j)`` is the source node."""
        u, _ = self.edge_endpoints(e)
        i, j = self.node_coords(u)
        return self.edge_direction(e), i, j

    def horizontal_edge_count(self) -> int:
        """Number of edges per horizontal direction block."""
        return self._h

    @property
    def is_square(self) -> bool:
        """True for the paper's square ``n x n`` case."""
        return self.rows == self.cols

    @property
    def side(self) -> int:
        """The side length ``n`` for square meshes.

        Raises
        ------
        ValueError
            If the mesh is rectangular.
        """
        if not self.is_square:
            raise ValueError("side is only defined for square meshes")
        return self.rows
