"""Directed network topologies used by the paper and its extensions.

Every topology exposes the same flat, array-backed interface
(:class:`~repro.topology.base.Topology`): integer node ids, integer edge
ids, and NumPy lookup tables. The simulator, the routing layer, and the
analytic traffic solver all address edges purely by id, so they are
topology-agnostic.

The paper's primary object is the :class:`ArrayMesh` (an n-by-n array with
a pair of directed edges between each neighbouring pair of nodes); the
torus, hypercube, butterfly, and linear array support the extensions in
Sections 4.5, 5, and 6. The arrays are one family: :class:`KDArray` is the
k-dimensional array of Section 5.2, and :class:`ArrayMesh` and
:class:`LinearArray` are its 2-D and 1-D cases, with the same edge ids
their own edge loops once gave them.
"""

from repro.topology.base import Topology
from repro.topology.array_mesh import ArrayMesh, KDArray
from repro.topology.linear import LinearArray
from repro.topology.torus import Torus
from repro.topology.hypercube import Hypercube
from repro.topology.butterfly import Butterfly

__all__ = [
    "Topology",
    "ArrayMesh",
    "KDArray",
    "LinearArray",
    "Torus",
    "Hypercube",
    "Butterfly",
]
