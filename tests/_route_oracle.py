"""Reference implementations of the exact route ingredients.

These are the Python double loops the bound helpers in
:mod:`repro.core` used before they became reductions over a
:class:`~repro.core.routetable.RouteTable`, kept verbatim as a
test-only oracle: each walks every ``(src, dst)`` pair's canonical path
and accumulates in loop order, so the vectorized helpers must match
them bit for bit (``tests/test_core_routetable.py``).
:func:`reference_bounds` assembles :class:`GenericBounds` from them the
way :func:`repro.core.generic_bounds.generic_bounds` did, routing each
pair once through :class:`MemoRouter`.

The array topologies and greedy walks get the same treatment: the
explicit edge loops :class:`~repro.topology.array_mesh.ArrayMesh` and
:class:`~repro.topology.linear.LinearArray` built before they became
:class:`~repro.topology.array_mesh.KDArray` subclasses
(:func:`mesh_edges`, :func:`linear_edges`), the per-direction-grid mesh
walk (:class:`ReferenceMeshRouter`) and the per-hop ``edge_id`` k-d walk
(:func:`reference_kd_path`) that :class:`~repro.routing.greedy.GreedyKDRouter`
replaced (``tests/test_routing_greedy.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.generic_bounds import GenericBounds
from repro.core.md1_approx import md1_network_number
from repro.core.saturation import saturated_edge_mask
from repro.core.upper_bound import delay_upper_bound_generic
from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.topology.array_mesh import DOWN, LEFT, RIGHT, UP
from repro.util.validation import check_positive


def mesh_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """``ArrayMesh(rows, cols)``'s edges in id order: RIGHT, LEFT, DOWN and
    UP blocks, each row-major over its source node."""
    edges: list[tuple[int, int]] = []
    nid = lambda i, j: i * cols + j  # noqa: E731 - local helper
    # RIGHT block: row-major over (i, j) with j in 0..cols-2.
    for i in range(rows):
        for j in range(cols - 1):
            edges.append((nid(i, j), nid(i, j + 1)))
    # LEFT block.
    for i in range(rows):
        for j in range(cols - 1):
            edges.append((nid(i, j + 1), nid(i, j)))
    # DOWN block: row-major over (i, j) with i in 0..rows-2.
    for i in range(rows - 1):
        for j in range(cols):
            edges.append((nid(i, j), nid(i + 1, j)))
    # UP block.
    for i in range(rows - 1):
        for j in range(cols):
            edges.append((nid(i + 1, j), nid(i, j)))
    return edges


def linear_edges(n: int) -> list[tuple[int, int]]:
    """``LinearArray(n)``'s edges in id order: rightward, then leftward."""
    edges = [(j, j + 1) for j in range(n - 1)]
    edges += [(j + 1, j) for j in range(n - 1)]
    return edges


class ReferenceMeshRouter:
    """Greedy mesh routing from per-direction edge-id grids.

    Row-first (or, with ``column_first``, column-first) greedy walks on an
    :class:`~repro.topology.array_mesh.ArrayMesh`: each leg reads its
    edges hop by hop from a ``rows x cols`` grid of the edge leaving every
    node in that direction.
    """

    def __init__(self, mesh, *, column_first: bool = False) -> None:
        self.topology = self.mesh = mesh
        self.column_first = column_first
        rows, cols = mesh.rows, mesh.cols
        # Per-direction edge-id grids; -1 marks a missing edge at a border.
        right = np.full((rows, cols), -1, dtype=np.int64)
        left = np.full((rows, cols), -1, dtype=np.int64)
        down = np.full((rows, cols), -1, dtype=np.int64)
        up = np.full((rows, cols), -1, dtype=np.int64)
        for i in range(rows):
            for j in range(cols):
                if j < cols - 1:
                    right[i, j] = mesh.directed_edge_id(i, j, RIGHT)
                if j > 0:
                    left[i, j] = mesh.directed_edge_id(i, j, LEFT)
                if i < rows - 1:
                    down[i, j] = mesh.directed_edge_id(i, j, DOWN)
                if i > 0:
                    up[i, j] = mesh.directed_edge_id(i, j, UP)
        self._right_rows: list[list[int]] = right.tolist()
        self._left_rows: list[list[int]] = left.tolist()
        self._down_rows: list[list[int]] = down.tolist()
        self._up_rows: list[list[int]] = up.tolist()

    def _row_leg(self, i: int, j: int, j2: int) -> list[int]:
        """Edges walking along row ``i`` from column ``j`` to ``j2``."""
        if j2 > j:
            row = self._right_rows[i]
            return row[j:j2]
        row = self._left_rows[i]
        return [row[c] for c in range(j, j2, -1)]

    def _col_leg(self, i: int, i2: int, j: int) -> list[int]:
        """Edges walking along column ``j`` from row ``i`` to ``i2``."""
        if i2 > i:
            grid = self._down_rows
            return [grid[r][j] for r in range(i, i2)]
        grid = self._up_rows
        return [grid[r][j] for r in range(i, i2, -1)]

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        """Greedy path from ``src`` to ``dst``; empty when they coincide."""
        if src == dst:
            return ()
        i1, j1 = self.mesh.node_coords(src)
        i2, j2 = self.mesh.node_coords(dst)
        if self.column_first:
            first = self._col_leg(i1, i2, j1) if i1 != i2 else []
            second = self._row_leg(i2, j1, j2) if j1 != j2 else []
        else:
            first = self._row_leg(i1, j1, j2) if j1 != j2 else []
            second = self._col_leg(i1, i2, j2) if i1 != i2 else []
        return tuple(first + second)


def reference_kd_path(array, order: Sequence[int], src: int, dst: int) -> tuple[int, ...]:
    """Dimension-order greedy path on ``array``, one ``edge_id`` lookup
    per hop: each axis of ``order`` corrected fully, in turn."""
    if src == dst:
        return ()
    coord = list(array.node_coords(src))
    target = array.node_coords(dst)
    at = src
    out: list[int] = []
    for axis in order:
        step = array.strides[axis]
        while coord[axis] < target[axis]:
            nxt = at + step
            out.append(array.edge_id(at, nxt))
            at = nxt
            coord[axis] += 1
        while coord[axis] > target[axis]:
            nxt = at - step
            out.append(array.edge_id(at, nxt))
            at = nxt
            coord[axis] -= 1
    return tuple(out)


class MemoRouter:
    """``router``'s canonical paths, each computed once and then looked up."""

    def __init__(self, router: Router) -> None:
        self.topology = router.topology
        self._route = router.path
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}

    def path(self, src: int, dst: int) -> tuple[int, ...]:
        key = (src, dst)
        found = self._paths.get(key)
        if found is None:
            found = self._paths[key] = self._route(src, dst)
        return found


def edge_rates_from_routing(
    router: Router,
    destinations: DestinationDistribution,
    node_rates: float | Sequence[float],
    *,
    source_nodes: Sequence[int] | None = None,
) -> np.ndarray:
    """Exact per-edge arrival rates for any routing system.

    Sums ``rate(src) * P(dst | src)`` over the canonical route of every
    (src, dst) pair — an O(nodes^2 * path) exact computation, fine for the
    network sizes of the paper's tables and used as ground truth in tests.

    Parameters
    ----------
    router:
        The routing scheme (its canonical :meth:`path` is used; for
        randomized routers pass each pure variant and mix externally).
    destinations:
        The destination law.
    node_rates:
        Per-source generation rate; a scalar broadcasts over sources.
    source_nodes:
        Which nodes generate packets (default: all). The butterfly, for
        instance, only generates at level-0 nodes.
    """
    topo = router.topology
    n = topo.num_nodes
    sources = list(range(n)) if source_nodes is None else list(source_nodes)
    if np.isscalar(node_rates):
        rate_of = {s: float(node_rates) for s in sources}
    else:
        seq = list(node_rates)  # type: ignore[arg-type]
        if len(seq) != len(sources):
            raise ValueError(
                f"node_rates has {len(seq)} entries for {len(sources)} sources"
            )
        rate_of = {s: float(r) for s, r in zip(sources, seq)}
    rates = np.zeros(topo.num_edges)
    for src in sources:
        lam_src = rate_of[src]
        if lam_src == 0.0:
            continue
        pmf = destinations.pmf(src)
        for dst in range(n):
            w = lam_src * pmf[dst]
            if w == 0.0 or dst == src:
                continue
            for e in router.path(src, dst):
                rates[e] += w
    return rates


def mean_route_length(
    router: Router,
    destinations: DestinationDistribution,
    *,
    source_nodes: Sequence[int] | None = None,
    source_weights: Sequence[float] | None = None,
) -> float:
    """Exact mean canonical-route length under any routing system.

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
    total = 0.0
    for src, w in zip(sources, weights):
        pmf = destinations.pmf(src)
        for dst in range(topo.num_nodes):
            p = pmf[dst]
            if p == 0.0 or dst == src:
                continue
            total += w * p * len(router.path(src, dst))
    return float(total)


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
    dests = list(range(topo.num_nodes)) if dest_nodes is None else list(dest_nodes)
    best = 0
    for src in sources:
        for dst in dests:
            if dst == src:
                continue
            best = max(best, len(router.path(src, dst)))
    return best


def expected_remaining_distances(
    router: Router,
    destinations: DestinationDistribution,
    *,
    source_nodes: Sequence[int] | None = None,
    source_weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Exact ``d_e`` for every edge (NaN for edges no route crosses).

    ``d_e`` is the mean, over the (src, dst) traffic mix whose canonical
    route crosses ``e``, of the number of services from ``e`` onward:
    ``len(path) - position(e)``.
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
    numer = np.zeros(topo.num_edges)
    denom = np.zeros(topo.num_edges)
    for src, w_src in zip(sources, weights):
        if w_src == 0.0:
            continue
        pmf = destinations.pmf(src)
        for dst in range(topo.num_nodes):
            w = w_src * pmf[dst]
            if w == 0.0 or dst == src:
                continue
            path = router.path(src, dst)
            length = len(path)
            for pos, e in enumerate(path):
                numer[e] += w * (length - pos)
                denom[e] += w
    out = np.full(topo.num_edges, np.nan)
    crossed = denom > 0
    out[crossed] = numer[crossed] / denom[crossed]
    return out


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
    dests = list(range(topo.num_nodes)) if dest_nodes is None else list(dest_nodes)
    best = 0
    for src in sources:
        for dst in dests:
            if dst == src:
                continue
            count = sum(1 for e in router.path(src, dst) if mask[e])
            best = max(best, count)
    return best


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
    numer = np.zeros(topo.num_edges)
    denom = np.zeros(topo.num_edges)
    for src, w_src in zip(sources, weights):
        if w_src == 0.0:
            continue
        pmf = destinations.pmf(src)
        for dst in range(topo.num_nodes):
            w = w_src * pmf[dst]
            if w == 0.0 or dst == src:
                continue
            path = router.path(src, dst)
            sat_positions = [pos for pos, e in enumerate(path) if mask[e]]
            total_sat = len(sat_positions)
            for rank, pos in enumerate(sat_positions):
                e = path[pos]
                numer[e] += w * (total_sat - rank)  # remaining incl. this one
                denom[e] += w
    out = np.full(topo.num_edges, np.nan)
    crossed = (denom > 0) & np.asarray(mask, dtype=bool)
    out[crossed] = numer[crossed] / denom[crossed]
    return out


def reference_bounds(
    router: Router,
    destinations: DestinationDistribution,
    node_rate: float | Sequence[float],
    *,
    source_nodes: Sequence[int] | None = None,
    service_rates: float | np.ndarray = 1.0,
    layered: bool = True,
    markovian: bool = True,
) -> GenericBounds:
    """``generic_bounds`` assembled from the reference loops."""
    routed = MemoRouter(router)
    topo = router.topology
    sources = (
        list(range(topo.num_nodes)) if source_nodes is None else list(source_nodes)
    )
    if np.isscalar(node_rate):
        check_positive(node_rate, "node_rate")
        weights = [float(node_rate)] * len(sources)
    else:
        weights = [float(r) for r in node_rate]
    total_rate = float(sum(weights))
    rates = edge_rates_from_routing(
        routed, destinations, weights, source_nodes=sources
    )
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
    nbar = mean_route_length(
        routed, destinations, source_nodes=sources, source_weights=weights
    )
    upper = delay_upper_bound_generic(rates, total_rate, phi) if layered else None
    md1_total = md1_network_number(loads, variant="pk")
    d_max = max_route_length(routed, source_nodes=sources, dest_nodes=dest_nodes)
    lower_copy = md1_total / (d_max * total_rate)
    d_bar = None
    lower_markov = None
    if markovian:
        d_e = expected_remaining_distances(
            routed, destinations, source_nodes=sources, source_weights=weights
        )
        d_bar = float(np.nanmax(d_e))
        lower_markov = md1_total / (d_bar * total_rate)
    mask = saturated_edge_mask(rates, phi)
    sat_total = md1_network_number(loads[mask], variant="pk")
    s_max = max_saturated_on_route(
        routed, mask, source_nodes=sources, dest_nodes=dest_nodes
    )
    s_bar_val = None
    if markovian:
        s_e = saturated_remaining_expectations(
            routed, destinations, mask, source_nodes=sources, source_weights=weights
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
