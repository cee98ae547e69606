"""Canonical-order greedy routing on the hypercube (Section 4.5).

"Under greedy routing, the system can be thought of as a Markovian network
where each packet considers each dimension in some canonical order and
crosses an edge dimension with probability p." We fix the canonical order
to dimensions ``0, 1, ..., d-1``: the packet corrects every differing bit
in increasing bit order. This layers the hypercube (label an edge by its
dimension) and makes the routing Markovian, exactly the setting of
Stamoulis-Tsitsiklis that the paper's Section 4.5 improves upon.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import BaseRouter
from repro.topology.hypercube import Hypercube


class GreedyHypercubeRouter(BaseRouter):
    """Fix differing bits in increasing dimension order.

    Examples
    --------
    >>> cube = Hypercube(3)
    >>> router = GreedyHypercubeRouter(cube)
    >>> [cube.edge_endpoints(e) for e in router.path(0b000, 0b101)]
    [(0, 1), (1, 5)]
    """

    def __init__(self, cube: Hypercube) -> None:
        super().__init__(cube)
        self.cube = cube

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Cross each differing dimension once, lowest dimension first."""
        if src == dst:
            return ()
        at = int(src)
        diff = at ^ int(dst)
        out: list[int] = []
        k = 0
        while diff:
            if diff & 1:
                out.append(self.cube.dimension_edge(at, k))
                at ^= 1 << k
            diff >>= 1
            k += 1
        return tuple(out)

    def edge_levels(self) -> np.ndarray:
        """Each edge's dimension (as ``int16``): the walk crosses
        dimensions in increasing order.

        >>> GreedyHypercubeRouter(Hypercube(2)).edge_levels().tolist()
        [0, 0, 0, 0, 1, 1, 1, 1]
        """
        cube = self.cube
        return (np.arange(cube.num_edges) // cube.num_nodes).astype(np.int16)
