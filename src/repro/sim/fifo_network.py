"""The main event-driven simulator: FIFO servers, deterministic or
exponential service.

This is the paper's standard model when ``service="deterministic"`` with
unit rates, and the Jackson model when ``service="exponential"``. The hot
loop is written for CPython speed (repro band 4/5 flags "slow for
large-mesh statistics" as the risk):

* paths come from a shared :mod:`repro.routing.pathcache` arena — one
  dict probe per packet instead of a hop-by-hop rebuild — and the packet
  record stores the ``(arena_offset, length)`` view, not an edge tuple;
* when every edge has the same deterministic service time (the standard
  model), departure events are generated in nondecreasing time order, so
  the binary heap degenerates into a *monotone merge* of two streams (a
  FIFO departure deque plus the single pending arrival) with the exact
  same ``(time, seq)`` pop order — O(1) per event instead of O(log n);
* the general case (exponential or per-edge service times) runs on a
  plain ``heapq`` binary heap popping in ``(time, seq)`` order, with the
  arrival sentinel merged in;
* external arrivals use a *merged* Poisson stream — one exponential gap at
  rate ``sum of node rates`` with the source drawn per packet — which is
  distributionally identical to independent per-node streams and avoids
  scheduling ``n^2`` separate processes;
* random numbers are drawn in blocks of 8192 and consumed by index; the
  uniform-source/uniform-destination fast path draws id pairs from a
  ``2 * 8192`` block, refilled exactly when all ids are consumed;
* per-edge state is plain Python (lists, ``deque``, ``bytearray``) — no
  attribute lookups or NumPy scalar indexing inside the loop.

The loops themselves live in the kernels layer
(:mod:`repro.sim.kernels`): this class owns configuration and validation
and dispatches ``run`` to the kernel selected by the ``backend`` knob.
The default ``backend="python"`` kernel is the extracted reference loop,
bound by the *same-seed contract* (see :mod:`repro.sim` docs): the RNG
draw order, the event pop order and the floating-point accumulation
order are all observable through the golden-result tests. Layered plain
runs take its level path, which makes the loop's draws and solves them
in closed form: the same arrivals, paths and integer fields, floats
equal to rounding. ``backend="numpy"`` trades that contract for
vectorization and is pinned by distribution-level parity tests instead.

Statistics are exact time integrals (see :mod:`repro.sim` docs). After the
horizon the run *drains* (no further arrivals, events keep processing) so
per-packet delays are never censored.
"""

from __future__ import annotations

from typing import Sequence

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.enginecommon import (
    EngineCommon,
    resolve_saturated_mask,
    resolve_service_rates,
)
from repro.sim.kernels import (
    FIFO_KERNEL,
    NUMPY_BACKEND,
    PYTHON_BACKEND,
    check_backend,
    get_kernel,
)
from repro.sim.result import SimResult
from repro.util.validation import check_window

DETERMINISTIC, EXPONENTIAL = "deterministic", "exponential"


class NetworkSimulation:
    """Event-driven FIFO network simulation.

    Parameters
    ----------
    router:
        Routing scheme (carries the topology). Paths are served from a
        shared path cache; randomized routers draw their per-packet coin
        through the cache's ``sample_offlen`` with unchanged RNG order.
    destinations:
        Destination law.
    node_rate:
        Per-source Poisson generation rate; a scalar applies to every
        source, or pass a sequence aligned with ``source_nodes``.
    service:
        ``"deterministic"`` (the standard model — service time is exactly
        ``1/phi_e``) or ``"exponential"`` (the Jackson model — mean
        ``1/phi_e``).
    service_rates:
        Per-edge ``phi_e`` (scalar broadcasts); the paper's standard model
        is ``1.0``, and the Section 5.1 experiments pass Theorem 15's
        optimal allocation.
    source_nodes:
        Generating nodes (default: all nodes). The butterfly generates
        only at level-0 nodes.
    saturated_mask:
        Optional boolean per-edge mask; when given, the run tracks
        R_s(t) — remaining saturated services — for Table III.
    seed:
        Seed for the run's private :class:`numpy.random.Generator`.
    path_cache:
        An externally built cache (see
        :func:`repro.routing.pathcache.path_cache_for`) to share across
        runs — e.g. one cache for all replications of a cell. Must have
        been built for this very ``router`` instance (an equal-sized
        topology under a different scheme would silently route wrong).
        Pass a :class:`~repro.routing.pathcache.SampledPathInterner` to
        rebuild every packet's path uncached (the pre-cache baseline;
        outputs are bit-identical either way).
    backend:
        Kernel backend for the hot loop (see :mod:`repro.sim.kernels`):
        ``"python"`` (the default) runs the extracted reference loops
        (or, for layered plain runs, their level path) under the
        same-seed contract; ``"numpy"`` runs the
        vectorized max-plus kernel — distribution-identical, not
        draw-order-identical, for deterministic service (uniform or
        per-edge rates, with utilization and tail-drop caps) on
        feedforward routes.
    """

    #: Per-edge waiting-room caps for tail-drop admission, or ``None``
    #: for infinite buffers (set by the finite-buffer engine).
    _edge_caps: list[int] | None = None

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        service: str = DETERMINISTIC,
        service_rates: float | Sequence[float] = 1.0,
        source_nodes: Sequence[int] | None = None,
        saturated_mask: Sequence[bool] | None = None,
        seed: int = 0,
        path_cache=None,
        backend: str = PYTHON_BACKEND,
    ) -> None:
        if service not in (DETERMINISTIC, EXPONENTIAL):
            raise ValueError(
                f"service must be '{DETERMINISTIC}' or '{EXPONENTIAL}', got {service!r}"
            )
        self.service = service
        self.seed = int(seed)

        num_edges = router.topology.num_edges
        phi = resolve_service_rates(service_rates, num_edges)
        self._service_times: list[float] = (1.0 / phi).tolist()
        # Uniform deterministic service enables the monotone-merge event
        # loop (departure times are nondecreasing in push order).
        self._uniform_service = (
            service == DETERMINISTIC
            and self._service_times.count(self._service_times[0])
            == len(self._service_times)
        )
        self.backend = check_backend(backend)
        if self.backend == NUMPY_BACKEND and service != DETERMINISTIC:
            raise ValueError(
                "backend='numpy' vectorizes only deterministic service "
                "(uniform-deterministic or per-edge rates); exponential "
                "service needs backend='python'"
            )

        # Shared constructor policy (sources, rates, pinned source CDF,
        # fast-id predicate, path cache). The batched id draw samples over
        # *all* nodes, so it is only valid when every node generates (at
        # equal rate) in any order, and destinations are uniform over all
        # nodes.
        EngineCommon(
            router,
            destinations,
            node_rate,
            source_nodes=source_nodes,
            path_cache=path_cache,
        ).install(self)

        self._sat = resolve_saturated_mask(saturated_mask, num_edges)

    # ------------------------------------------------------------------
    def run(
        self,
        warmup: float,
        horizon: float,
        *,
        track_utilization: bool = False,
        collect_delays: bool = False,
        track_number_distribution: bool = False,
        track_maxima: bool = False,
    ) -> SimResult:
        """Simulate ``warmup + horizon`` time units and drain.

        Parameters
        ----------
        warmup:
            Initial transient discarded from every statistic.
        horizon:
            Measurement window length.
        track_utilization:
            Also accumulate per-edge busy time (adds a little overhead).
        collect_delays:
            Return the raw delay of every measured packet (memory: one
            float per packet — only for modest runs, e.g. dominance tests).
        track_number_distribution:
            Also accumulate the time-weighted distribution of N (used by
            the Theorem 5 stochastic-dominance experiment).
        track_maxima:
            Also record the worst per-packet delay and the longest queue
            observed in the measurement window — the quantities Leighton's
            combinatorial analyses bound (the paper's Section 1.2 contrast
            with this paper's average-case results).
        """
        check_window(warmup, horizon)
        return get_kernel(FIFO_KERNEL, self.backend)(
            self,
            warmup,
            horizon,
            track_utilization=track_utilization,
            collect_delays=collect_delays,
            track_number_distribution=track_number_distribution,
            track_maxima=track_maxima,
        )
