"""Expected remaining distance (Definition 11) — the Theorem 12 constant.

For each queue ``e`` of a Markovian network, ``d_e`` is the expected number
of distinct services a packet queued at ``e`` still needs, *including* the
service at ``e`` itself; ``d-bar = max_e d_e``. Theorem 12 divides the
independent-M/D/1 packet count by ``d-bar`` to lower-bound the true count.

Closed forms implemented:

* array: ``d-bar = n - 1/2``, attained by a packet at node (1,1) queued on
  the rightward edge (paper Section 4.3);
* hypercube with p-biased destinations: ``d-bar = 1 + p(d - 1)``, attained
  by a packet queued to cross the first dimension (Section 4.5).

:func:`expected_remaining_distances` computes ``d_e`` exactly for *any*
router/destination law by conditional expectation over the traffic mix
crossing each edge (two weighted counts over a
:class:`~repro.core.routetable.RouteTable`), which is how the tests
validate both closed forms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.routetable import RouteTable, pmf_matrix
from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.util.validation import check_probability, check_side


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
    pmf = pmf_matrix(destinations, sources, topo.num_nodes)
    w = np.array(weights)[:, None] * pmf
    table = RouteTable.build(router, sources, w != 0)
    return table.remaining_distances(table.gather(w))


def max_expected_remaining_distance(
    router: Router,
    destinations: DestinationDistribution,
    **kwargs,
) -> float:
    """``d-bar = max_e d_e`` by exact enumeration."""
    d_e = expected_remaining_distances(router, destinations, **kwargs)
    finite = d_e[np.isfinite(d_e)]
    if finite.size == 0:
        raise ValueError("no edge carries any traffic")
    return float(finite.max())


def array_max_expected_remaining_distance(n: int) -> float:
    """Closed form for the n-by-n array under greedy/uniform: ``n - 1/2``.

    A packet at the corner queued on the rightward edge has destination
    column uniform over the remaining ``n - 1`` columns (mean ``n/2`` row
    services) plus a uniform destination row (mean ``(n-1)/2`` column
    services).
    """
    check_side(n, "n")
    return n - 0.5


def hypercube_max_expected_remaining_distance(d: int, p: float = 0.5) -> float:
    """Closed form for the p-biased hypercube: ``1 + p(d - 1)``.

    A packet queued to cross the first dimension has that one service plus
    an independent ``Binomial(d-1, p)`` of later crossings (Section 4.5).
    """
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"dimension d must be an int >= 1, got {d!r}")
    check_probability(p, "p")
    return 1.0 + p * (d - 1)


def butterfly_remaining_distance(d: int) -> float:
    """On the butterfly every route has length d; a packet queued at level
    ``l`` has ``d - l`` services left, so ``d-bar = d`` (attained at level
    0). Theorem 12 therefore gives no improvement over Theorem 10 there."""
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"levels d must be an int >= 1, got {d!r}")
    return float(d)
