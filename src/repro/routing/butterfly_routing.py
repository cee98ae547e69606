"""Unique-path routing on the butterfly.

In a d-level butterfly a packet entering at ``(0, r)`` destined for
``(d, r')`` has exactly one path: at level ``l`` it takes the cross edge
iff bit ``l`` of ``r XOR r'`` is set. Every packet crosses exactly ``d``
edges, which is why the copy bound (Theorem 10) gives a ``2d`` gap here —
the paper notes this matches Stamoulis and Tsitsiklis.

Sources must be level-0 nodes and destinations level-d nodes; routing any
other pair is a usage error and raises ``ValueError``.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.topology.butterfly import Butterfly


class ButterflyRouter(BaseRouter):
    """The unique level-by-level butterfly path.

    Examples
    --------
    >>> b = Butterfly(2)
    >>> r = ButterflyRouter(b)
    >>> len(r.path(b.node_id(0, 0), b.node_id(2, 3)))
    2
    """

    def __init__(self, butterfly: Butterfly) -> None:
        super().__init__(butterfly)
        self.butterfly = butterfly

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """The unique path from an input (level 0) to an output (level d)."""
        b = self.butterfly
        level_s, row_s = b.node_coords(src)
        level_d, row_d = b.node_coords(dst)
        if level_s != 0:
            raise ValueError(f"butterfly sources must be level-0 nodes, got level {level_s}")
        if level_d != b.d:
            raise ValueError(f"butterfly destinations must be level-{b.d} nodes, got level {level_d}")
        out: list[int] = []
        row = row_s
        need = row_s ^ row_d
        for level in range(b.d):
            if (need >> level) & 1:
                out.append(b.cross_edge(level, row))
                row ^= 1 << level
            else:
                out.append(b.straight_edge(level, row))
        return tuple(out)

    def edge_levels(self) -> np.ndarray:
        """Each edge's butterfly level (as ``int16``,
        :meth:`Butterfly.edge_level` vectorized): every path crosses
        levels ``0..d-1`` in order.

        >>> ButterflyRouter(Butterfly(2)).edge_levels().tolist()
        [0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
        """
        b = self.butterfly
        return (np.arange(b.num_edges) // (2 * b.rows)).astype(np.int16)
