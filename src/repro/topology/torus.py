"""2-D torus (array with wraparound), the Section 6 open-problem topology.

The torus is graph-regular: every node has degree 4 in each direction sense,
and every directed ring of edges is a cycle. The paper points out that any
network containing a directed ring cannot be layered, so the Theorem 1
upper-bound machinery does not apply; we still simulate it and use it as
the negative test case for :func:`repro.core.layering.find_layering_obstruction`.

Edge-id layout mirrors :class:`~repro.topology.array_mesh.ArrayMesh`:
RIGHT block, LEFT block, DOWN block, UP block, each of size ``rows*cols``
(every node has all four outgoing edges thanks to wraparound).
"""

from __future__ import annotations

from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP
from repro.topology.base import Topology
from repro.util.validation import check_side

#: Edge-block index of each direction.
_BLOCK = {RIGHT: 0, LEFT: 1, DOWN: 2, UP: 3}


class Torus(Topology):
    """An ``rows x cols`` torus with directed edges both ways per dimension.

    Examples
    --------
    >>> t = Torus(3)
    >>> t.num_nodes, t.num_edges
    (9, 36)
    """

    def __init__(self, rows: int, cols: int | None = None) -> None:
        rows = check_side(rows, "rows", minimum=3)
        cols = rows if cols is None else check_side(cols, "cols", minimum=3)
        self.rows = rows
        self.cols = cols
        nid = lambda i, j: (i % rows) * cols + (j % cols)  # noqa: E731
        edges: list[tuple[int, int]] = []
        for i in range(rows):
            for j in range(cols):
                edges.append((nid(i, j), nid(i, j + 1)))  # RIGHT
        for i in range(rows):
            for j in range(cols):
                edges.append((nid(i, j), nid(i, j - 1)))  # LEFT
        for i in range(rows):
            for j in range(cols):
                edges.append((nid(i, j), nid(i + 1, j)))  # DOWN
        for i in range(rows):
            for j in range(cols):
                edges.append((nid(i, j), nid(i - 1, j)))  # UP
        super().__init__(rows * cols, edges, name=f"torus({rows}x{cols})")

    def node_id(self, i: int, j: int) -> int:
        """Node id of row ``i``, column ``j`` (coordinates taken mod size)."""
        return (i % self.rows) * self.cols + (j % self.cols)

    def node_coords(self, v: int) -> tuple[int, int]:
        """Row/column of node id ``v``."""
        if not 0 <= v < self.num_nodes:
            raise ValueError(f"node {v} outside 0..{self.num_nodes - 1}")
        return divmod(int(v), self.cols)

    def directed_edge_id(self, i: int, j: int, direction: str) -> int:
        """Edge id of the edge leaving ``(i, j)`` in ``direction``."""
        base = (i % self.rows) * self.cols + (j % self.cols)
        if direction not in _BLOCK:
            raise ValueError(f"unknown direction {direction!r}")
        return _BLOCK[direction] * self.num_nodes + base

    def edge_direction(self, e: int) -> str:
        """Direction label of edge ``e``."""
        if not 0 <= e < self.num_edges:
            raise ValueError(f"edge {e} outside 0..{self.num_edges - 1}")
        return (RIGHT, LEFT, DOWN, UP)[e // self.num_nodes]
