"""Greedy (dimension-order) routing on arrays.

The paper's scheme: "packets move to their destination greedily, first to
the correct column along only row edges and then to the correct row along
only column edges". :class:`GreedyKDRouter` is the one greedy walk: on a
:class:`~repro.topology.array_mesh.KDArray` it corrects each dimension
fully, in a fixed order, which is the natural higher-dimensional analogue
from Section 5.2. :class:`GreedyArrayRouter` is that walk on an
:class:`~repro.topology.array_mesh.ArrayMesh` with the order fixed to the
paper's row-first scheme (or its column-first transpose).

Implementation note: inside one ``(axis, sign)`` edge block consecutive
edges of a leg differ by the axis's node-id stride, so a leg is one
arithmetic run of edge ids. ``path`` takes each leg's first edge from
per-axis out-edge lists and slices the run out of a list of every edge
id, with no per-hop lookup. The simulators do not call ``path`` per packet; the interpreted
loops look paths up in a :mod:`repro.routing.pathcache` memo, whose scalar
misses call ``path``, and the closed-form batch builder there lays out the
same runs for many pairs at once from the router's :attr:`out_edges`.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.topology.array_mesh import ArrayMesh, KDArray


class GreedyKDRouter(BaseRouter):
    """Dimension-order greedy routing on a :class:`KDArray`.

    Dimensions are corrected in the order given by ``dimension_order``
    (default ``0, 1, ..., k-1``). On a 2-D array with order ``(1, 0)`` this
    coincides with the paper's row-first scheme (dimension 1 is the column
    coordinate, adjusted while moving along the row).

    The walk reads node ids only through their arithmetic (``v // stride
    % side``), never through ``node_coords``, so it runs unchanged on
    subclasses with their own coordinate API.
    """

    def __init__(self, array: KDArray, dimension_order: tuple[int, ...] | None = None) -> None:
        super().__init__(array)
        self.array = array
        k = len(array.dims)
        order = tuple(range(k)) if dimension_order is None else tuple(dimension_order)
        if sorted(order) != list(range(k)):
            raise ValueError(f"dimension_order must permute 0..{k - 1}, got {order}")
        self.dimension_order = order
        #: ``out_edges[axis, sign][v]``: the edge leaving node ``v`` along
        #: ``sign * axis`` (-1 at the border).
        self.out_edges: dict[tuple[int, int], np.ndarray] = {}
        for axis in order:
            for sign in (+1, -1):
                lo, hi = array.block(axis, sign)
                table = np.full(array.num_nodes, -1, dtype=np.int64)
                table[array.edge_source[lo:hi]] = np.arange(lo, hi)
                self.out_edges[axis, sign] = table
        # Legs are slices of one list of every edge id, so paths share its
        # int objects: a path cache's arena then costs a list slot per
        # entry, not a fresh int. A ``-`` slice never stops below 0, since
        # every ``(axis, -)`` block starts past its ``(axis, +)`` block of
        # at least ``strides[axis]`` edges.
        self._edge_ids = list(range(array.num_edges))
        # One (stride, side, + list, - list) per leg, in walk order: Python
        # list indexing is ~10x faster than NumPy scalar indexing.
        self._legs = [
            (
                array.strides[axis],
                array.dims[axis],
                self.out_edges[axis, +1].tolist(),
                self.out_edges[axis, -1].tolist(),
            )
            for axis in order
        ]

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Correct each dimension fully, in ``dimension_order``."""
        if src == dst:
            return ()
        ids = self._edge_ids
        out: list[int] = []
        at = src
        for stride, side, plus, minus in self._legs:
            # The leg's node-id offset: its hop count times the stride.
            step = (dst // stride % side - at // stride % side) * stride
            if step > 0:
                e = plus[at]
                out += ids[e : e + step : stride]
            elif step:
                e = minus[at]
                out += ids[e : e + step : -stride]
            at += step
        return tuple(out)

    def edge_levels(self) -> np.ndarray:
        """Lemma 2's layering, generalised: each axis in walk order takes
        the next ``side - 1`` levels, an edge's offset being its tail's
        coordinate ``c`` on a ``+`` leg and ``side - 1 - c`` on a ``-``
        leg (``int16`` where the levels fit).

        >>> GreedyArrayRouter(ArrayMesh(3)).edge_levels().tolist()
        [0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0, 2, 2, 2, 3, 3, 3, 3, 3, 3, 2, 2, 2]
        """
        array = self.array
        small = sum(array.dims) < np.iinfo(np.int16).max
        lvl = np.empty(array.num_edges, dtype=np.int16 if small else np.int64)
        base = 0
        for axis in self.dimension_order:
            stride, side = array.strides[axis], array.dims[axis]
            for sign in (+1, -1):
                lo, hi = array.block(axis, sign)
                c = array.edge_source[lo:hi] // stride % side
                lvl[lo:hi] = base + (c if sign > 0 else side - 1 - c)
            base += side - 1
        return lvl


class GreedyArrayRouter(GreedyKDRouter):
    """Row-first greedy routing on an :class:`ArrayMesh`.

    A packet at ``(i, j)`` destined for ``(i', j')`` first walks along row
    ``i`` to column ``j'`` (right or left), then along column ``j'`` to row
    ``i'`` (down or up): the :class:`GreedyKDRouter` order ``(1, 0)``.

    Parameters
    ----------
    mesh:
        The array mesh to route on.
    column_first:
        If true, correct the row coordinate first (column edges before row
        edges, order ``(0, 1)``). The paper's standard scheme is
        ``column_first=False``; the transposed variant is provided because
        the randomized scheme of Section 6 mixes the two.

    Examples
    --------
    >>> mesh = ArrayMesh(3)
    >>> router = GreedyArrayRouter(mesh)
    >>> src, dst = mesh.node_id(0, 0), mesh.node_id(2, 1)
    >>> [mesh.edge_endpoints(e) for e in router.path(src, dst)]
    [(0, 1), (1, 4), (4, 7)]
    """

    def __init__(self, mesh: ArrayMesh, *, column_first: bool = False) -> None:
        super().__init__(mesh, (0, 1) if column_first else (1, 0))
        self.mesh = mesh
        self.column_first = column_first
