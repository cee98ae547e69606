"""Topology-generic versions of the paper's bounds.

The array closed forms in :mod:`repro.core.lower_bounds` are special cases
of comparisons that only need three ingredients — the per-edge arrival
rates, the route structure, and (for the Markovian refinements) the
expected-remaining-distance constants. This module assembles the bounds
from those ingredients for *any* router/destination law, which is exactly
how the paper extends its results to the torus (Theorem 10 "also holds for
non-Markovian systems, such as toroidal meshes"), the hypercube, the
butterfly, and higher-dimensional arrays (Section 5.2).

Everything here is exact but enumeration-based (O(nodes^2 * path)); for
the square array prefer the closed forms, which the tests verify agree.
Each of the six ingredient helpers walks every (src, dst) pair, so one
:func:`generic_bounds` call routes each pair once through a memoizing
wrapper and hands the helpers the stored paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.distances import max_route_length, mean_route_length
from repro.core.md1_approx import md1_network_number
from repro.core.rates import edge_rates_from_routing
from repro.core.remaining_distance import expected_remaining_distances
from repro.core.saturation import (
    max_saturated_on_route,
    saturated_edge_mask,
    saturated_remaining_expectations,
)
from repro.core.upper_bound import delay_upper_bound_generic
from repro.routing.base import BaseRouter, Router
from repro.routing.destinations import DestinationDistribution
from repro.util.validation import check_positive


class _RoutedOnce(BaseRouter):
    """``router``'s canonical paths, each computed once and then looked
    up (lives for one :func:`generic_bounds` call)."""

    def __init__(self, router: Router) -> None:
        super().__init__(router.topology)
        self._route = router.path
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        key = (src, dst)
        found = self._paths.get(key)
        if found is None:
            found = self._paths[key] = self._route(src, dst)
        return found


@dataclass(frozen=True)
class GenericBounds:
    """Every applicable bound for one routing system at one rate.

    Attributes
    ----------
    total_rate:
        Total external arrival rate (Little's-Law denominator).
    network_load:
        ``rho = max_e lam_e / phi_e``.
    mean_distance:
        Mean route length under the system's destination law.
    upper:
        Product-form upper bound — **only valid when the system is layered
        and Markovian** (Theorem 1); ``None`` when ``layered=False`` was
        declared.
    lower_trivial, lower_copy, lower_markov, lower_saturated:
        The T >= n-bar bound, Theorem 10, Theorem 12 (requires
        ``markovian=True``), and Theorem 14 (Markovian variant when
        available, else the route-count variant).
    d_max, d_bar, s_max, s_bar:
        The comparison constants the bounds divided by.
    """

    total_rate: float
    network_load: float
    mean_distance: float
    upper: float | None
    lower_trivial: float
    lower_copy: float
    lower_markov: float | None
    lower_saturated: float
    d_max: int
    d_bar: float | None
    s_max: int
    s_bar: float | None

    @property
    def lower_best(self) -> float:
        """Best applicable lower bound."""
        candidates = [self.lower_trivial, self.lower_copy, self.lower_saturated]
        if self.lower_markov is not None:
            candidates.append(self.lower_markov)
        return max(candidates)

    def is_consistent(self) -> bool:
        """Lower bounds below the upper bound (when one exists)."""
        if self.upper is None:
            return True
        return self.lower_best <= self.upper * (1 + 1e-12)


def generic_bounds(
    router: Router,
    destinations: DestinationDistribution,
    node_rate: float | Sequence[float],
    *,
    source_nodes: Sequence[int] | None = None,
    service_rates: float | np.ndarray = 1.0,
    layered: bool = True,
    markovian: bool = True,
) -> GenericBounds:
    """Evaluate every applicable bound for an arbitrary routing system.

    Parameters
    ----------
    router, destinations, node_rate, source_nodes:
        The routing system, as in :func:`repro.core.rates.edge_rates_from_routing`.
    service_rates:
        Per-edge ``phi_e`` (scalar broadcasts).
    layered:
        Declare whether Theorem 1 applies (the array/hypercube/butterfly
        under greedy are layered; the torus is not — pass ``False`` and
        the upper bound is omitted rather than wrongly claimed).
    markovian:
        Declare whether the routing is Markovian (Theorem 12/14's d-bar
        and s-bar refinements need it; Theorem 10's d and s do not).

    Notes
    -----
    ``layered``/``markovian`` are *declarations* by the caller about the
    scheme — they cannot be fully decided from samples. For layeredness
    there is a checker: :func:`repro.core.layering.find_layering_obstruction`.
    """
    routed = _RoutedOnce(router)
    topo = router.topology
    sources = (
        list(range(topo.num_nodes)) if source_nodes is None else list(source_nodes)
    )
    if np.isscalar(node_rate):
        check_positive(node_rate, "node_rate")
        weights = [float(node_rate)] * len(sources)
    else:
        weights = [float(r) for r in node_rate]
        if len(weights) != len(sources):
            raise ValueError("node_rate sequence must match source_nodes")
    total_rate = float(sum(weights))
    if total_rate <= 0:
        raise ValueError("total arrival rate must be positive")

    rates = edge_rates_from_routing(
        routed, destinations, weights, source_nodes=sources
    )
    # Only destinations the law can actually produce participate in the
    # route-structure maxima (the butterfly, e.g., only routes to outputs).
    support = np.zeros(topo.num_nodes, dtype=bool)
    for src in sources:
        support |= destinations.pmf(src) > 0
    dest_nodes = [int(v) for v in np.nonzero(support)[0]]
    phi = (
        np.full_like(rates, float(service_rates))
        if np.isscalar(service_rates)
        else np.asarray(service_rates, dtype=float)
    )
    loads = rates / phi
    rho = float(loads.max())
    if rho >= 1.0:
        raise ValueError(f"unstable system: network load {rho} >= 1")

    nbar = mean_route_length(
        routed,
        destinations,
        source_nodes=sources,
        source_weights=weights,
    )
    upper = (
        delay_upper_bound_generic(rates, total_rate, phi) if layered else None
    )

    # Theorem 10: copies at every queue; divide by the max route length.
    # (With non-unit phi the comparison queues are M/D/1 with service
    # 1/phi_e; md1_network_number expects unit service, so feed loads and
    # scale each queue's count — the M/D/1 mean number depends only on
    # rho_e, not on the time unit.)
    md1_total = md1_network_number(loads, variant="pk")
    d_max = max_route_length(
        routed, source_nodes=sources, dest_nodes=dest_nodes
    )
    lower_copy = md1_total / (d_max * total_rate)

    d_bar = None
    lower_markov = None
    if markovian:
        d_e = expected_remaining_distances(
            routed, destinations, source_nodes=sources, source_weights=weights
        )
        d_bar = float(np.nanmax(d_e))
        lower_markov = md1_total / (d_bar * total_rate)

    # Theorem 14: saturated queues only.
    mask = saturated_edge_mask(rates, phi)
    sat_total = md1_network_number(loads[mask], variant="pk")
    s_max = max_saturated_on_route(
        routed, mask, source_nodes=sources, dest_nodes=dest_nodes
    )
    s_bar_val = None
    if markovian:
        s_e = saturated_remaining_expectations(
            routed,
            destinations,
            mask,
            source_nodes=sources,
            source_weights=weights,
        )
        finite = s_e[np.isfinite(s_e)]
        s_bar_val = float(finite.max()) if finite.size else float(s_max)
        lower_saturated = sat_total / (s_bar_val * total_rate)
    else:
        lower_saturated = sat_total / (s_max * total_rate)

    return GenericBounds(
        total_rate=total_rate,
        network_load=rho,
        mean_distance=nbar,
        upper=upper,
        lower_trivial=nbar,
        lower_copy=lower_copy,
        lower_markov=lower_markov,
        lower_saturated=lower_saturated,
        d_max=d_max,
        d_bar=d_bar,
        s_max=s_max,
        s_bar=s_bar_val,
    )
