"""The "rushed" copy system Q1 of Theorem 10.

"The trick is to send a copy of a packet to all the queues it will visit
immediately, and have each duplicate exit the system after it has been
served by the single queue." Each queue, seen in isolation, is then an
M/D/1 queue with the original edge's arrival rate — the queues are
*dependent* (copies of one packet arrive simultaneously) but linearity of
expectation makes the expected total equal the independent-M/D/1 sum,
which is the pivot of the Theorem 10 proof.

This simulator exists to verify those two analytic claims empirically:

* ``E[N1]`` (time-averaged copies in system) equals
  ``sum_e MD1(lam_e).mean_number()``;
* every copy's queue, marginally, behaves like an M/D/1 queue (per-edge
  occupancy matches the M/D/1 closed form).

It also reports the "makespan" delay — the time until *all* copies of a
packet are served — which lower-bounds the original packet's delay on
matched sample paths (the rushed system is the faster one).

Every copy joins its queue at its packet's birth, so each edge is an
isolated FIFO queue fed at birth times: its ``k``-th copy in birth order
leaves at the Lindley recursion ``d_k = max(x_k, d_{k-1}) + c_e``, and
no event interleaving is needed. The engine walks the arrivals in
blocks of 8192. For block ``k`` it

* draws exponential gap block ``k`` (arrival times are the sequential
  sums ``t + gap``) and id block ``k``
  (:func:`~repro.sim.enginecommon.draw_ids`), then routes the packets
  with hops born before the horizon directly, with no memo
  (:func:`~repro.routing.pathcache.route_packets`: for the randomized
  scheme one coin block, the values of per-packet scalar coins). A
  block straddling the end of a tracked warmup is routed in two parts,
  which draws the same stream;
* solves each edge's copies in closed form,
  ``d_k = (k+1) c_e + max(last_e, cummax_{j<=k} (x_j - j c_e))``, with
  ``k`` counted within the block and ``last_e`` the edge's latest
  departure, carried from block to block;
* reduces the block on the spot: window overlaps of the copies'
  sojourns ``[x, d)`` give N1, the per-edge occupancy and R_s; each
  packet's latest copy departure gives its makespan; with
  ``track_maxima``, a copy arriving at ``x`` behind a departure at
  ``d_prev`` finds ``ceil((d_prev - x) / c_e)`` copies waiting, since
  departures within a busy period are ``c_e`` apart.

``path_cache=`` is validated against the router, as for every engine,
but not consulted. Same-seed runs draw every arrival, id and path the
former event loop drew (``tests/_rushed_oracle.py`` keeps it); the
closed form rounds differently from its recursion, so floats agree to
about 1e-13 relative. The rushed golden cells pin this engine's outputs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.routing.pathcache import route_packets
from repro.sim.enginecommon import (
    EngineCommon,
    draw_ids,
    resolve_saturated_mask,
    resolve_service_rates,
)
from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult
from repro.sim.rng import make_rng
from repro.util.validation import check_window

_BLOCK = 8192


class RushedNetworkSimulation:
    """Simulate Q1: immediate copies at every queue on the route.

    Parameters mirror :class:`repro.sim.NetworkSimulation` (FIFO servers,
    deterministic service ``1/phi_e``; ``saturated_mask`` controls the
    optional R_s(t) tracking exactly as there, and ``path_cache`` is
    validated as there).

    Notes
    -----
    In the returned :class:`SimResult`, ``mean_number`` is the time-averaged
    number of *copies* in the system (the paper's ``N1``); ``mean_delay``
    is the per-packet makespan (all copies served); ``mean_remaining``
    equals ``mean_number`` by construction (each copy needs exactly one
    service), so with a ``saturated_mask`` the tracked
    ``mean_remaining_saturated`` is simply the time-averaged number of
    copies sitting at saturated edges. ``utilization`` reports per-edge
    mean copy occupancy (not busy fraction) so tests can compare
    queue-by-queue against M/D/1. ``run(track_maxima=True)`` records the
    worst per-packet makespan and the longest copy queue inside the
    measurement window, mirroring the FIFO engine's option.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        service_rates: float | Sequence[float] = 1.0,
        source_nodes: Sequence[int] | None = None,
        saturated_mask: Sequence[bool] | None = None,
        seed: int = 0,
        path_cache=None,
    ) -> None:
        self.seed = int(seed)
        num_edges = router.topology.num_edges
        self._sat = resolve_saturated_mask(saturated_mask, num_edges)
        self._service_times = 1.0 / resolve_service_rates(service_rates, num_edges)
        # The constructor policy every engine shares.
        EngineCommon(
            router,
            destinations,
            node_rate,
            source_nodes=source_nodes,
            path_cache=path_cache,
        ).install(self)

    def run(
        self, warmup: float, horizon: float, *, track_maxima: bool = False
    ) -> SimResult:
        """Simulate ``warmup + horizon`` time units and drain.

        ``track_maxima`` also records the worst per-packet makespan and
        the longest copy queue in the measurement window (the FIFO
        engine's option, for the same Leighton-contrast purpose)."""
        check_window(warmup, horizon)
        rng = make_rng(self.seed, engine="rushed")
        t_end = warmup + horizon
        tally = _Tally(self, warmup, t_end, track_maxima)
        gap_scale = 1.0 / self.total_rate
        t = 0.0
        while t < t_end:
            births = rng.exponential(size=_BLOCK) * gap_scale
            births[0] += t
            np.cumsum(births, out=births)
            t = float(births[-1])
            srcs, dsts = draw_ids(self, _BLOCK, rng)
            cut = int(np.count_nonzero(births < t_end))
            tally.add(births[:cut], srcs[:cut], dsts[:cut], rng)
        # Queues standing when the warmup ends are part of the measurement
        # window (as in the FIFO engine): an edge whose copies born before
        # it leave by d holds floor((d - warmup) / c_e) waiting copies then.
        standing = np.floor((tally.pre_last - warmup) / tally.c).max()
        max_queue = max(tally.max_queue, int(standing))
        mean_copies = float(tally.occupancy.sum()) / horizon
        summary = tally.delays.summary()
        return SimResult(
            warmup=warmup,
            horizon=horizon,
            seed=self.seed,
            generated=tally.generated,
            # Every measured packet completes once the queues drain.
            completed=tally.generated,
            zero_hop=tally.zero_hop,
            in_flight_at_end=tally.in_flight,
            mean_number=mean_copies,
            mean_remaining=mean_copies,
            mean_remaining_saturated=(
                tally.int_rs / horizon if self._sat is not None else float("nan")
            ),
            mean_delay=summary.mean,
            delay_half_width=summary.half_width,
            mean_delay_littles=mean_copies / self.total_rate,
            total_rate=self.total_rate,
            utilization=tally.occupancy / horizon,
            max_delay=tally.max_delay if track_maxima else float("nan"),
            max_queue_length=max_queue if track_maxima else -1,
        )


class _Tally:
    """One run's carried per-edge state and running totals, fed the
    arrivals a block at a time (see the module docstring)."""

    def __init__(self, sim, warmup: float, t_end: float, track_maxima: bool):
        self.router = sim.router
        self.c = sim._service_times
        self.sat = None if sim._sat is None else np.asarray(sim._sat)
        self.warmup, self.t_end, self.track_maxima = warmup, t_end, track_maxima
        self.last = np.zeros(self.c.size)  # each edge's latest departure
        self.pre_last = np.zeros(self.c.size)  # ... of copies born pre-warmup
        self.occupancy = np.zeros(self.c.size)  # copy-time in the window
        self.int_rs = self.max_delay = 0.0
        self.generated = self.zero_hop = self.in_flight = self.max_queue = 0
        self.delays = TimeBatchAccumulator(warmup, t_end)

    def add(self, x: np.ndarray, srcs, dsts, rng: np.random.Generator) -> None:
        """Admit arrivals born at ``x`` (ascending, before the horizon)."""
        w, t_end = self.warmup, self.t_end
        zero = srcs == dsts
        measured = x >= w
        self.generated += int(np.count_nonzero(measured))
        zero_births = x[zero & measured]
        self.zero_hop += zero_births.size
        self.delays.add_batch(zero_births, np.zeros(zero_births.size))
        born = x[~zero]
        if not born.size:
            return
        visits, lens = route_packets(self.router, srcs[~zero], dsts[~zero], rng)
        # Copies by edge, each edge's in birth order, as (edge, packet).
        order = np.argsort(visits, kind="stable")
        e = visits[order]
        pk = np.repeat(np.arange(born.size, dtype=np.int32), lens)[order]
        del visits, order
        m0 = int(np.count_nonzero(born < w))  # packets born before the warmup
        starts = np.flatnonzero(np.diff(e, prepend=-1))
        ends = np.append(starts[1:], e.size)
        prev = self.last[e[starts]]
        # d_k = (k+1) c + max(prev, cummax(x_j - j c)), k the rank at the edge.
        kc = np.arange(e.size, dtype=float)
        kc -= np.repeat(starts, ends - starts)
        kc *= self.c[e]
        d = born[pk]
        d -= kc
        d[starts] = np.maximum(d[starts], prev)
        for s0, s1 in zip(starts.tolist(), ends.tolist()):
            run = d[s0:s1]
            np.maximum.accumulate(run, out=run)
        kc += self.c[e]
        d += kc
        del kc
        if self.track_maxima and m0:
            pre = np.add.reduceat(pk < m0, starts)
            hit = pre > 0
            self.pre_last[e[starts[hit]]] = d[starts[hit] + pre[hit] - 1]
        self.last[e[starts]] = d[ends - 1]
        self.in_flight += int(np.count_nonzero(d >= t_end))

        span = np.zeros(born.size)
        np.maximum.at(span, pk, d)
        span -= born
        self.delays.add_batch(born[m0:], span[m0:])
        if self.track_maxima and m0 < born.size:
            self.max_delay = max(self.max_delay, float(span[m0:].max()))
            # A copy arriving at x behind a departure at d_prev finds
            # ceil((d_prev - x) / c) copies waiting.
            ahead = np.roll(d, 1)
            ahead[starts] = prev
            ahead -= born[pk]
            ahead /= self.c[e]
            self.max_queue = max(self.max_queue, math.ceil(ahead[pk >= m0].max()))

        # d becomes each copy's overlap with the window.
        np.minimum(d, t_end, out=d)
        x = born[pk]
        d -= np.maximum(x, w, out=x)
        np.maximum(d, 0.0, out=d)
        self.occupancy += np.bincount(e, d, self.c.size)
        if self.sat is not None:
            self.int_rs += float(d[self.sat[e]].sum())
