"""Shared constructor policy and arrival-id draw for the simulation engines.

Before this module, :class:`~repro.sim.fifo_network.NetworkSimulation`,
:class:`~repro.sim.slotted.SlottedNetworkSimulation`,
:class:`~repro.sim.rushed_network.RushedNetworkSimulation` and
:class:`~repro.sim.ps_network.PSNetworkSimulation` each carried a
near-verbatim copy of the same constructor block: resolve the source-node
list, validate the per-node rates (:func:`~repro.util.validation.check_node_rates`),
build the pinned source CDF used by the ``side='right'`` boundary-safe
draw, decide whether the uniform fast-id block draw applies, and resolve
the shared path cache (:func:`~repro.routing.pathcache.resolve_path_cache`).
:class:`EngineCommon` is that block, written once.

Every engine draws fast ids as node ids directly
(``rng.integers(0, num_nodes)``), so any ordering of a full source set
qualifies: the source list need only equal ``range(num_nodes)`` once
sorted.

:func:`draw_ids` is the one definition of the arrival stream's
``(src, dst)`` ids. Every kernel, interpreted or vectorized, draws its
ids through it in blocks: the interpreted event loops take 8192 pairs
per call (as builtin-int lists, :func:`draw_id_lists`) and read them
inline, the rushed engine 8192 per call as arrays, the python slot
kernel one slot's batch, the numpy kernels the whole run.
:func:`loop_arrivals` replays the event loops' whole arrival stream as
arrays, for the level paths that solve those loops' layered runs.

The remaining shared validation — per-edge service rates and the
saturated-edge mask — lives here too (:func:`resolve_service_rates`,
:func:`resolve_saturated_mask`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution, UniformDestinations
from repro.routing.pathcache import resolve_path_cache
from repro.util.validation import check_node_rates, check_positive, pinned_cdf


class EngineCommon:
    """The source-rate / fast-id / path-cache policy all engines share.

    Parameters
    ----------
    router:
        Routing scheme (carries the topology).
    destinations:
        Destination law (its type decides the uniform-destination flag).
    node_rate:
        Per-source Poisson rate; a scalar broadcasts over every source,
        a sequence must align with ``source_nodes``.
    source_nodes:
        Generating nodes (default: all nodes).
    path_cache:
        Passed to :func:`~repro.routing.pathcache.resolve_path_cache`.

    Attributes
    ----------
    source_nodes, node_rates, total_rate:
        The validated source set and its rates.
    uniform_sources:
        Every listed source generates at (numerically) the same rate.
    source_array:
        ``source_nodes`` as an int64 array, for the blocked source draw.
    source_cdf:
        Pinned CDF over ``node_rates`` for the ``side='right'`` draw — a
        draw landing exactly on a CDF boundary (e.g. ``u = 0.0`` with a
        leading zero-rate source) can never select a zero-rate source.
        Always built (it is RNG-free and cheap), even on paths that only
        consult it for non-uniform rates.
    fast_ids:
        The engine may draw ``(src, dst)`` id pairs from a single uniform
        integer block (requires uniform sources over *all* nodes in any
        order, and uniform destinations).
    path_cache:
        The resolved shared path cache.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        source_nodes: Sequence[int] | None = None,
        path_cache=None,
    ) -> None:
        self.router = router
        self.topology = router.topology
        self.destinations = destinations
        self.source_nodes = (
            list(range(self.topology.num_nodes))
            if source_nodes is None
            else [int(s) for s in source_nodes]
        )
        if not self.source_nodes:
            raise ValueError("at least one source node is required")
        if np.isscalar(node_rate):
            check_positive(node_rate, "node_rate")
            self.node_rates = np.full(len(self.source_nodes), float(node_rate))
        else:
            self.node_rates = check_node_rates(
                node_rate, len(self.source_nodes), "node_rate"
            )
        self.source_array = np.asarray(self.source_nodes, dtype=np.int64)
        self.total_rate = float(self.node_rates.sum())
        self.uniform_sources = bool(
            np.allclose(self.node_rates, self.node_rates[0])
        )
        self.source_cdf = pinned_cdf(self.node_rates)
        all_nodes = list(range(self.topology.num_nodes))
        self.fast_ids = (
            self.uniform_sources
            and isinstance(destinations, UniformDestinations)
            and sorted(self.source_nodes) == all_nodes
        )
        self.path_cache = resolve_path_cache(router, path_cache=path_cache)

    def install(self, sim) -> None:
        """Install the shared attribute surface on an engine instance.

        Engines keep the exact pre-extraction attribute names
        (``_uniform_sources``, ``_source_cdf``, ``_fast_ids``, ...) so
        their hot loops — and any test reaching into them — are untouched.
        """
        sim.router = self.router
        sim.topology = self.topology
        sim.destinations = self.destinations
        sim.source_nodes = self.source_nodes
        sim.node_rates = self.node_rates
        sim.total_rate = self.total_rate
        sim._uniform_sources = self.uniform_sources
        sim._source_array = self.source_array
        sim._source_cdf = self.source_cdf
        sim._fast_ids = self.fast_ids
        sim.path_cache = self.path_cache


def draw_ids(
    sim, m: int, rng: np.random.Generator, *, fast_ids: bool | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Draw ``m`` arrivals' ``(src, dst)`` ids as two int64 arrays.

    ``sim`` is an engine carrying :meth:`EngineCommon.install`'s
    attributes. With fast ids (default: ``sim._fast_ids``) the pairs are
    one uniform block of ``2 * m`` node ids read interleaved, source
    first. Otherwise a source block comes first, uniform over the source
    list or bisected from the pinned CDF with ``side="right"`` (a draw
    landing exactly on a boundary never selects a zero-rate source),
    then the destinations: one ``sample_batch`` call, or, for a law that
    implements only ``sample``, one scalar call per packet in source
    order. ``fast_ids=False`` forces that second order where the fast
    draw would apply.
    """
    if sim._fast_ids if fast_ids is None else fast_ids:
        ids = rng.integers(0, sim.topology.num_nodes, size=2 * m)
        return ids[0::2], ids[1::2]
    source_arr = sim._source_array
    if sim._uniform_sources:
        srcs = source_arr[rng.integers(0, source_arr.size, size=m)]
    else:
        srcs = source_arr[
            np.searchsorted(sim._source_cdf, rng.random(m), side="right")
        ]
    law = sim.destinations
    sample_batch = getattr(law, "sample_batch", None)
    if sample_batch is not None:
        dsts = np.asarray(sample_batch(srcs, rng), dtype=np.int64)
    else:
        sample = law.sample
        dsts = np.asarray(
            [sample(s, rng) for s in srcs.tolist()], dtype=np.int64
        )
    return srcs, dsts


def loop_arrivals(
    sim, t_end: float, rng: np.random.Generator, block: int
) -> list[np.ndarray]:
    """An event loop's arrivals before ``t_end``, from its own draws.

    The python fifo merge loop and the PS heap loop draw their arrivals
    the same way, ``block`` values at a time: an exponential block, an
    id block (:func:`draw_ids`), and then another exponential block
    whenever every arrival of the last one came before ``t_end``,
    followed by an id block when its first arrival did too. Arrival
    times are the loops' sequential sums of the scaled gaps. Returns
    ``[times, srcs, dsts]``, for the level paths that solve those loops'
    runs without an event loop.
    """
    scale = 1.0 / sim.total_rate
    times: list[np.ndarray] = []
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    offset = 0.0
    while True:
        t = rng.exponential(size=block)
        t *= scale
        t[0] += offset
        np.cumsum(t, out=t)
        k = int(np.searchsorted(t, t_end))  # arrivals with t < t_end
        if k or not times:
            s, d = draw_ids(sim, block, rng)
            srcs.append(s[:k])
            dsts.append(d[:k])
        times.append(t[:k])
        if k < block:
            break
        offset = float(t[-1])
    return [np.concatenate(times), np.concatenate(srcs), np.concatenate(dsts)]


def draw_id_lists(
    sim, m: int, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """:func:`draw_ids` as lists of builtin ints, for the interpreted loops."""
    srcs, dsts = draw_ids(sim, m, rng)
    return srcs.tolist(), dsts.tolist()


def resolve_service_rates(
    service_rates: float | Sequence[float], num_edges: int
) -> np.ndarray:
    """Validate per-edge service rates ``phi_e`` (a scalar broadcasts)."""
    if np.isscalar(service_rates):
        phi = np.full(num_edges, float(service_rates))
    else:
        phi = np.asarray(service_rates, dtype=float)
        if phi.shape != (num_edges,):
            raise ValueError(
                f"service_rates must have {num_edges} entries, got {phi.shape}"
            )
    if np.any(phi <= 0):
        raise ValueError("service rates must be positive")
    return phi


def resolve_saturated_mask(
    saturated_mask: Sequence[bool] | None, num_edges: int
) -> list[bool] | None:
    """Validate the optional boolean per-edge saturation mask."""
    if saturated_mask is None:
        return None
    mask = np.asarray(saturated_mask, dtype=bool)
    if mask.shape != (num_edges,):
        raise ValueError(
            f"saturated_mask must have {num_edges} entries, got {mask.shape}"
        )
    return mask.tolist()
