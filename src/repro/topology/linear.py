"""1-D linear array.

The paper uses the linear array twice: as the row/column building block of
the Lemma 3 Markov-chain argument, and as the worst-case example showing
Theorems 10 and 12 are essentially tight ("for a linear array of M/D/1
queues, E[N-bar] ~= E[N] d"). It is the 1-D
:class:`~repro.topology.array_mesh.KDArray`. Edge ids: the ``n-1`` rightward
edges first (``0..n-2``, edge ``j`` goes ``j -> j+1``), then the leftward
edges (``n-1..2n-3``, edge ``n-1+j`` goes ``j+1 -> j``).
"""

from __future__ import annotations

from repro.topology.array_mesh import KDArray
from repro.util.validation import check_side


class LinearArray(KDArray):
    """A line of ``n`` nodes with directed edges both ways: ``KDArray((n,))``.

    Examples
    --------
    >>> line = LinearArray(4)
    >>> line.num_nodes, line.num_edges
    (4, 6)
    >>> line.right_edge(0), line.left_edge(3)
    (0, 5)
    """

    def __init__(self, n: int) -> None:
        n = check_side(n, "n")
        super().__init__((n,))
        self.name = f"linear({n})"
        self.n = n

    def right_edge(self, j: int) -> int:
        """Edge id of ``j -> j+1``."""
        if not 0 <= j < self.n - 1:
            raise ValueError(f"no right edge from node {j}")
        return j

    def left_edge(self, j: int) -> int:
        """Edge id of ``j -> j-1``."""
        if not 1 <= j < self.n:
            raise ValueError(f"no left edge from node {j}")
        return (self.n - 1) + (j - 1)
