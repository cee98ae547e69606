"""Average route distances (Section 2.1).

``n-bar = (2/3)(n - 1/n)`` is the average number of edges a uniformly
routed packet crosses on the n-by-n array (destination may equal source);
``n-bar-2 = 2n/3`` excludes same-source-destination packets. Both follow
from the 1-D identity ``E|U - V| = (n^2 - 1)/(3n)`` for independent uniform
coordinates, doubled across the two dimensions.

:func:`mean_route_length` computes the same quantity for any router and
destination law by direct expectation, which the tests compare against the
closed forms; it and :func:`max_route_length` reduce the route lengths of
one :class:`~repro.core.routetable.RouteTable`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.routetable import RouteTable, node_mask, pmf_matrix
from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.util.validation import check_side


def mean_distance(n: int) -> float:
    """``n-bar``: average greedy distance, self-destinations included."""
    check_side(n, "n")
    return (2.0 / 3.0) * (n - 1.0 / n)


def mean_distance_excluding_self(n: int) -> float:
    """``n-bar-2``: average greedy distance over packets with dst != src.

    Equals ``n-bar * n^2 / (n^2 - 1) = 2n/3``.
    """
    check_side(n, "n")
    return 2.0 * n / 3.0


def mean_axis_displacement(n: int) -> float:
    """``E|U - V|`` for independent uniforms on ``1..n``: ``(n^2-1)/(3n)``."""
    check_side(n, "n")
    return (n * n - 1.0) / (3.0 * n)


def mean_route_length(
    router: Router,
    destinations: DestinationDistribution,
    *,
    source_nodes: Sequence[int] | None = None,
    source_weights: Sequence[float] | None = None,
) -> float:
    """Exact mean canonical-route length under any routing system.

    Sums ``w_src * P(dst | src) * len(path)`` over the pairs with
    ``P(dst | src) > 0`` sequentially, in pair order.

    Parameters
    ----------
    router, destinations:
        The routing scheme and destination law.
    source_nodes:
        Generating nodes (default all nodes, equally weighted).
    source_weights:
        Relative generation rates per source (default uniform).
    """
    topo = router.topology
    sources = (
        list(range(topo.num_nodes)) if source_nodes is None else list(source_nodes)
    )
    if source_weights is None:
        weights = np.full(len(sources), 1.0 / len(sources))
    else:
        weights = np.asarray(source_weights, dtype=float)
        if weights.shape != (len(sources),):
            raise ValueError("source_weights must match source_nodes in length")
        if weights.sum() <= 0:
            raise ValueError("source_weights must have positive total")
        weights = weights / weights.sum()
    pmf = pmf_matrix(destinations, sources, topo.num_nodes)
    table = RouteTable.build(router, sources, pmf != 0)
    return table.mean_length(weights[table.row] * table.gather(pmf))


def max_route_length(
    router: Router,
    *,
    source_nodes: Sequence[int] | None = None,
    dest_nodes: Sequence[int] | None = None,
) -> int:
    """Theorem 10's ``d``: the longest canonical route over all pairs.

    On the n-by-n array under greedy routing this is ``2(n-1)`` (corner to
    opposite corner), which the tests assert.
    """
    topo = router.topology
    sources = (
        list(range(topo.num_nodes)) if source_nodes is None else list(source_nodes)
    )
    dests = node_mask(topo.num_nodes, dest_nodes)
    return RouteTable.build(router, sources, dests).max_length()
