"""Saturated edges and the Theorem 14 constants (Definition 13, Figure 2).

An edge is *saturated* when ``lam_e / phi_e`` equals the network load
``rho``. On the standard array the saturated edges are the middle ones:

* even n — the ``4n`` edges crossing the single central row/column
  boundary (``i = n/2`` in the Theorem 6 rate ``(lam/n) i(n-i)``);
* odd n — the ``8n`` edges at the two boundaries ``i = (n-1)/2`` and
  ``i = (n+1)/2``, which tie for the maximal rate.

A greedy route crosses at most ``s = 2`` saturated edges for even n (one
horizontal, one vertical) and up to ``s = 4`` for odd n — the paper's
Figure 2. The Markovian refinement replaces ``s`` by
``s-bar = max_e s_e``, the worst-case expected number of *remaining*
saturated services for a packet queued at a saturated edge: exactly
``3/2`` for even n, and below 3 (tending to 3) for odd n. Theorem 14 then
gives the headline constant-factor gap: 3 (even) / at most 6 (odd) between
the upper and lower bounds as ``rho -> 1``.

The exact ``s`` and ``s_e`` for any routing system
(:func:`max_saturated_on_route`, :func:`saturated_remaining_expectations`)
are counts over the saturated visits of one
:class:`~repro.core.routetable.RouteTable`.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

from repro.core.routetable import RouteTable, node_mask, pmf_matrix
from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.routing.greedy import GreedyArrayRouter
from repro.routing.destinations import UniformDestinations
from repro.topology.array_mesh import ArrayMesh
from repro.util.validation import check_side


def saturated_edge_mask(
    edge_rates: np.ndarray,
    service_rates: np.ndarray | float = 1.0,
    *,
    rel_tol: float = 1e-9,
) -> np.ndarray:
    """Boolean mask of saturated edges: ``lam_e/phi_e`` within ``rel_tol``
    of the network load ``rho = max_e lam_e/phi_e``."""
    lam = np.asarray(edge_rates, dtype=float)
    phi = (
        np.full_like(lam, float(service_rates))
        if np.isscalar(service_rates)
        else np.asarray(service_rates, dtype=float)
    )
    if phi.shape != lam.shape:
        raise ValueError("service_rates must broadcast to edge_rates")
    loads = lam / phi
    rho = loads.max()
    if rho <= 0:
        raise ValueError("no traffic: all edge loads are zero")
    return loads >= rho * (1.0 - rel_tol)


def array_saturated_boundaries(n: int) -> list[int]:
    """1-based boundary indices ``i`` with maximal ``i(n-i)``.

    ``[n/2]`` for even n; ``[(n-1)/2, (n+1)/2]`` for odd n.
    """
    check_side(n, "n")
    if n % 2 == 0:
        return [n // 2]
    return [(n - 1) // 2, (n + 1) // 2]


def array_saturated_count(n: int) -> int:
    """Number of saturated edges on the n-by-n array: 4n even / 8n odd."""
    return 4 * n * len(array_saturated_boundaries(n))


def max_saturated_on_route(
    router: Router,
    mask: np.ndarray,
    *,
    source_nodes: Sequence[int] | None = None,
    dest_nodes: Sequence[int] | None = None,
) -> int:
    """Theorem 14's ``s``: the most saturated edges any route crosses."""
    topo = router.topology
    sources = (
        list(range(topo.num_nodes)) if source_nodes is None else list(source_nodes)
    )
    dests = node_mask(topo.num_nodes, dest_nodes)
    return RouteTable.build(router, sources, dests).max_saturated(mask)


def array_max_saturated_on_route(n: int) -> int:
    """Closed form for ``s`` on the array: 2 for even n, 4 for odd n."""
    check_side(n, "n")
    return 2 if n % 2 == 0 else 4


def saturated_remaining_expectations(
    router: Router,
    destinations: DestinationDistribution,
    mask: np.ndarray,
    *,
    source_nodes: Sequence[int] | None = None,
    source_weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Exact ``s_e`` for every saturated edge (NaN elsewhere / uncrossed).

    ``s_e`` is the expected number of remaining *saturated* services
    (including the one at ``e``) over the traffic mix crossing saturated
    edge ``e`` (Definition 13).
    """
    topo = router.topology
    sources = (
        list(range(topo.num_nodes)) if source_nodes is None else list(source_nodes)
    )
    if source_weights is None:
        weights = [1.0] * len(sources)
    else:
        weights = [float(w) for w in source_weights]
        if len(weights) != len(sources):
            raise ValueError("source_weights must match source_nodes in length")
    pmf = pmf_matrix(destinations, sources, topo.num_nodes)
    w = np.array(weights)[:, None] * pmf
    table = RouteTable.build(router, sources, w != 0)
    return table.saturated_remaining(table.gather(w), mask)


def s_bar(n: int) -> float:
    """``s-bar`` for the n-by-n array under greedy/uniform routing.

    Even n returns the closed form ``3/2``. Odd n is computed exactly by
    enumeration (it approaches 3 from below as ``n`` grows; the paper's
    Theorem 14 discussion gives ``s-bar < 3``).
    """
    check_side(n, "n")
    if n % 2 == 0:
        return 1.5
    return s_bar_exact(n)


@cache
def s_bar_exact(n: int) -> float:
    """``s-bar`` by exact enumeration (any parity; used to test the even
    closed form and to evaluate odd n). Memoized: a pure function of
    ``n``."""
    mesh = ArrayMesh(n)
    router = GreedyArrayRouter(mesh)
    dests = UniformDestinations(mesh.num_nodes)
    # Any positive lam gives the same mask; use the Theorem 6 profile.
    from repro.core.rates import array_edge_rates  # local import: avoid cycle

    rates = array_edge_rates(mesh, 1.0)
    mask = saturated_edge_mask(rates)
    s_e = saturated_remaining_expectations(router, dests, mask)
    finite = s_e[np.isfinite(s_e)]
    if finite.size == 0:  # pragma: no cover - cannot happen for n >= 2
        raise AssertionError("no saturated edge carries traffic")
    return float(finite.max())
