"""The reference (interpreted) kernels, extracted from the engines.

Each ``run_*`` function is the body of the corresponding engine's
``run`` loop with ``self`` renamed to ``sim``. :func:`run_fifo` also
serves the finite-buffer engine: given per-edge caps, its general loops
drop a packet that finds its next edge busy and the waiting room full.
The admission test consumes no randomness and drops never schedule
events, so the RNG draw order, the event pop order and the
floating-point accumulation order are exactly those of the pre-kernels
engines, and the golden fixtures (``tests/golden/``) pass unchanged:
this module *is* the same-seed bit-identity reference that the numpy
backend's distribution-parity tests compare against.

The engines keep argument validation; kernels receive validated state
and own only the hot loop plus the result assembly.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any

import numpy as np

from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult
from repro.sim.rng import make_rng

_BLOCK = 8192

EXPONENTIAL = "exponential"


def run_fifo(
    sim: Any,
    warmup: float,
    horizon: float,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    track_maxima: bool = False,
    delay_batches: int = 32,
) -> SimResult:
    """The FIFO event-driven loops (monotone merge + binary heap).

    With per-edge waiting-room caps (``sim._edge_caps``, set by the
    finite-buffer engine) the general loops apply tail-drop admission at
    every enqueue onto a busy edge and count the drops. An uncapped run
    pays one local truth test per enqueue onto a busy edge for that.
    """
    cap = sim._edge_caps
    capped = cap is not None
    rng = make_rng(
        sim.seed, engine="finite" if capped else "fifo", backend="python"
    )
    t_end = warmup + horizon

    destinations = sim.destinations
    exponential = sim.service == EXPONENTIAL
    st = sim._service_times
    sat = sim._sat
    # Edge -> tail node, for per-node drop attribution.
    tail: list[int] = sim._edge_tail if capped else []
    num_nodes = sim.topology.num_nodes
    num_edges = sim.topology.num_edges
    queues: list[deque] = [deque() for _ in range(num_edges)]
    busy = bytearray(num_edges)

    # Path cache bindings. Deterministic caches get the dict probe
    # inlined in the loop; RNG-consuming caches (randomized greedy, the
    # uncached interner) go through sample_offlen, preserving the
    # per-packet draw order of the pre-cache engine.
    cache = sim.path_cache
    arena = cache.arena.edges  # extended in place; safe to bind once
    if cache.consumes_rng:
        det_get = None
        det_build = None
        sample_offlen = cache.sample_offlen
    else:
        det_get = cache.table.get
        det_build = cache.ensure
        sample_offlen = None

    seq = 0

    # Block RNG: exponential(1) variates and uniform source/dest ids.
    exp_block = rng.exponential(size=_BLOCK)
    exp_i = 0
    sources = sim.source_nodes
    nsrc = len(sources)
    uniform_fast = sim._fast_ids
    uniform_sources = sim._uniform_sources
    source_cdf = None if uniform_sources else sim._source_cdf
    if uniform_fast:
        id_block = rng.integers(0, num_nodes, size=2 * _BLOCK).tolist()
        id_i = 0
    else:
        id_block = None
        id_i = 0
    gap_scale = 1.0 / sim.total_rate

    # Statistics.
    in_system = 0
    remaining = 0
    remaining_sat = 0
    int_n = 0.0
    int_r = 0.0
    int_rs = 0.0
    last_t = 0.0
    generated = completed = zero_hop = 0
    dropped = 0
    node_drops = [0] * num_nodes
    delay_acc = TimeBatchAccumulator(warmup, t_end, delay_batches)
    delays: list[float] | None = [] if collect_delays else None
    util = np.zeros(num_edges) if track_utilization else None
    ndist: dict[int, float] | None = {} if track_number_distribution else None
    max_delay = 0.0
    max_queue = 0
    searchsorted = np.searchsorted
    dest_sample = destinations.sample

    def service_sample(e: int) -> float:
        nonlocal exp_i, exp_block
        if not exponential:
            return st[e]
        if exp_i >= _BLOCK:
            exp_block = rng.exponential(size=_BLOCK)
            exp_i = 0
        v = exp_block[exp_i] * st[e]
        exp_i += 1
        return v

    def start_service_heap(e: int, t: float, pkt: list) -> None:
        nonlocal seq
        s = service_sample(e)
        heappush(heap, (t + s, seq, e, pkt))
        seq += 1
        if util is not None:
            lo = t if t > warmup else warmup
            hi = t + s if t + s < t_end else t_end
            if hi > lo:
                util[e] += hi - lo

    # First arrival (the merged-Poisson sentinel).
    first_gap = exp_block[exp_i] * gap_scale
    exp_i += 1

    draining = False
    in_flight_at_horizon = 0
    # Queues standing when the warmup ends are part of the measurement
    # window: seed max_queue with them at the crossing, so the gate on
    # later updates only excludes growth that ended before the window.
    maxima_seeded = not track_maxima or warmup == 0.0
    BLK = _BLOCK
    TWO_BLOCK = 2 * _BLOCK
    # The common standard-model configuration (infinite buffers, no
    # saturation mask, no N-distribution, no maxima, no utilization) gets
    # a lean loop with every untracked branch removed; the arithmetic
    # that remains is identical, so results are bit-identical across
    # loop variants.
    plain_stats = (
        not capped
        and sat is None
        and ndist is None
        and not track_maxima
        and util is None
    )

    if sim._uniform_service and plain_stats:
        # -------- monotone-merge event loop, plain statistics --------
        service_c = st[0]
        dep_q: deque = deque()
        dep_pop = dep_q.popleft
        dep_append = dep_q.append
        arr_t = first_gap
        arr_seq = seq
        seq += 1
        have_arrival = True
        while True:
            if dep_q:
                head = dep_q[0]
                if have_arrival:
                    ht = head[0]
                    if arr_t < ht or (arr_t == ht and arr_seq < head[1]):
                        is_arrival = True
                        t = arr_t
                    else:
                        is_arrival = False
                        t, _s, e, pkt = dep_pop()
                else:
                    is_arrival = False
                    t, _s, e, pkt = dep_pop()
            elif have_arrival:
                is_arrival = True
                t = arr_t
            else:
                break
            if t >= t_end and not draining:
                draining = True
                in_flight_at_horizon = in_system
                # Close the integrals exactly at the horizon boundary.
                lo = last_t if last_t > warmup else warmup
                if t_end > lo:
                    dt = t_end - lo
                    int_n += in_system * dt
                    int_r += remaining * dt
                last_t = t_end
            if not draining and t > warmup:
                lo = last_t if last_t > warmup else warmup
                dt = t - lo
                if dt > 0.0:
                    int_n += in_system * dt
                    int_r += remaining * dt
                last_t = t
            elif not draining:
                last_t = t

            if is_arrival:
                # ----- external arrival -----
                if draining:
                    have_arrival = False  # no arrivals past the horizon
                    continue
                if uniform_fast:
                    if id_i >= TWO_BLOCK:
                        id_block = rng.integers(
                            0, num_nodes, size=TWO_BLOCK
                        ).tolist()
                        id_i = 0
                    src = id_block[id_i]
                    dst = id_block[id_i + 1]
                    id_i += 2
                else:
                    if uniform_sources:
                        src = sources[int(rng.integers(nsrc))]
                    else:
                        src = sources[
                            int(
                                searchsorted(
                                    source_cdf, rng.random(), side="right"
                                )
                            )
                        ]
                    dst = dest_sample(src, rng)
                measured = t >= warmup
                if measured:
                    generated += 1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        delay_acc.add(t, 0.0)
                        if delays is not None:
                            delays.append(0.0)
                else:
                    if det_get is not None:
                        ol = det_get(src * num_nodes + dst)
                        if ol is None:
                            ol = det_build(src, dst)
                        off, ln = ol
                    else:
                        off, ln = sample_offlen(src, dst, rng)
                    in_system += 1
                    remaining += ln
                    # Fresh per-packet record: the queues mutate it in
                    # place, so it cannot be pooled.
                    new_pkt = [t, off, ln, 0, measured]  # replint: disable=hot-loop-alloc
                    f = arena[off]
                    if busy[f]:
                        queues[f].append(new_pkt)
                    else:
                        busy[f] = 1
                        dep_append((t + service_c, seq, f, new_pkt))
                        seq += 1
                # Next arrival.
                if exp_i >= BLK:
                    exp_block = rng.exponential(size=BLK)
                    exp_i = 0
                arr_t = t + exp_block[exp_i] * gap_scale
                exp_i += 1
                arr_seq = seq
                seq += 1
            else:
                # ----- departure: pkt finished service at edge e -----
                remaining -= 1
                hop = pkt[3] + 1
                if hop == pkt[2]:
                    in_system -= 1
                    if pkt[4]:
                        completed += 1
                        d = t - pkt[0]
                        delay_acc.add(pkt[0], d)
                        if delays is not None:
                            delays.append(d)
                else:
                    pkt[3] = hop
                    f = arena[pkt[1] + hop]
                    if busy[f]:
                        queues[f].append(pkt)
                    else:
                        busy[f] = 1
                        dep_append((t + service_c, seq, f, pkt))
                        seq += 1
                q = queues[e]
                if q:
                    dep_append((t + service_c, seq, e, q.popleft()))
                    seq += 1
                else:
                    busy[e] = 0
    elif sim._uniform_service:
        # ---------------- monotone-merge event loop ----------------
        # All service times equal => departures are pushed with
        # nondecreasing times, so a FIFO deque plus the single pending
        # arrival replays the heap's (time, seq) pop order exactly.
        # Drops never schedule events, so this holds with caps too.
        service_c = st[0]
        dep_q: deque = deque()
        dep_pop = dep_q.popleft
        dep_append = dep_q.append
        arr_t = first_gap
        arr_seq = seq
        seq += 1
        have_arrival = True
        while True:
            if dep_q:
                head = dep_q[0]
                if have_arrival:
                    ht = head[0]
                    if arr_t < ht or (arr_t == ht and arr_seq < head[1]):
                        is_arrival = True
                        t = arr_t
                    else:
                        is_arrival = False
                        t, _s, e, pkt = dep_pop()
                else:
                    is_arrival = False
                    t, _s, e, pkt = dep_pop()
            elif have_arrival:
                is_arrival = True
                t = arr_t
            else:
                break
            if not maxima_seeded and t >= warmup:
                maxima_seeded = True
                for q in queues:
                    if len(q) > max_queue:
                        max_queue = len(q)
            if t >= t_end and not draining:
                draining = True
                in_flight_at_horizon = in_system
                # Close the integrals exactly at the horizon boundary.
                lo = last_t if last_t > warmup else warmup
                if t_end > lo:
                    dt = t_end - lo
                    int_n += in_system * dt
                    int_r += remaining * dt
                    int_rs += remaining_sat * dt
                    if ndist is not None:
                        ndist[in_system] = ndist.get(in_system, 0.0) + dt
                last_t = t_end
            if not draining and t > warmup:
                lo = last_t if last_t > warmup else warmup
                dt = t - lo
                if dt > 0.0:
                    int_n += in_system * dt
                    int_r += remaining * dt
                    int_rs += remaining_sat * dt
                    if ndist is not None:
                        ndist[in_system] = ndist.get(in_system, 0.0) + dt
                last_t = t
            elif not draining:
                last_t = t

            if is_arrival:
                # ----- external arrival -----
                if draining:
                    have_arrival = False  # no arrivals past the horizon
                    continue
                if uniform_fast:
                    if id_i >= TWO_BLOCK:
                        id_block = rng.integers(
                            0, num_nodes, size=TWO_BLOCK
                        ).tolist()
                        id_i = 0
                    src = id_block[id_i]
                    dst = id_block[id_i + 1]
                    id_i += 2
                else:
                    if uniform_sources:
                        src = sources[int(rng.integers(nsrc))]
                    else:
                        # side="right" so a draw that lands exactly on
                        # a CDF boundary (e.g. u = 0.0 with a leading
                        # zero-rate source) never selects a zero-rate
                        # source.
                        src = sources[
                            int(
                                searchsorted(
                                    source_cdf, rng.random(), side="right"
                                )
                            )
                        ]
                    dst = dest_sample(src, rng)
                measured = t >= warmup
                if measured:
                    generated += 1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        delay_acc.add(t, 0.0)
                        if delays is not None:
                            delays.append(0.0)
                else:
                    if det_get is not None:
                        ol = det_get(src * num_nodes + dst)
                        if ol is None:
                            ol = det_build(src, dst)
                        off, ln = ol
                    else:
                        off, ln = sample_offlen(src, dst, rng)
                    f = arena[off]
                    if busy[f] and capped and len(queues[f]) >= cap[f]:
                        # Entry buffer full: the packet never enters.
                        if measured:
                            dropped += 1
                            node_drops[tail[f]] += 1
                    else:
                        in_system += 1
                        remaining += ln
                        if sat is not None:
                            nsat = 0
                            for k in range(off, off + ln):
                                if sat[arena[k]]:
                                    nsat += 1
                            remaining_sat += nsat
                        # Fresh per-packet record: the queues mutate it
                        # in place, so it cannot be pooled.
                        new_pkt = [t, off, ln, 0, measured]  # replint: disable=hot-loop-alloc
                        if busy[f]:
                            q = queues[f]
                            q.append(new_pkt)
                            if (
                                track_maxima
                                and measured
                                and not draining
                                and len(q) > max_queue
                            ):
                                max_queue = len(q)
                        else:
                            busy[f] = 1
                            dep_append((t + service_c, seq, f, new_pkt))
                            seq += 1
                            if util is not None:
                                lo = t if t > warmup else warmup
                                hi = t + service_c
                                if hi > t_end:
                                    hi = t_end
                                if hi > lo:
                                    util[f] += hi - lo
                # Next arrival.
                if exp_i >= BLK:
                    exp_block = rng.exponential(size=BLK)
                    exp_i = 0
                arr_t = t + exp_block[exp_i] * gap_scale
                exp_i += 1
                arr_seq = seq
                seq += 1
            else:
                # ----- departure: pkt finished service at edge e -----
                remaining -= 1
                if sat is not None and sat[e]:
                    remaining_sat -= 1
                hop = pkt[3] + 1
                if hop == pkt[2]:
                    in_system -= 1
                    if pkt[4]:
                        completed += 1
                        d = t - pkt[0]
                        delay_acc.add(pkt[0], d)
                        if track_maxima and d > max_delay:
                            max_delay = d
                        if delays is not None:
                            delays.append(d)
                else:
                    f = arena[pkt[1] + hop]
                    if busy[f] and capped and len(queues[f]) >= cap[f]:
                        # Mid-route drop: the packet leaves with its
                        # unserved hops still on the books.
                        in_system -= 1
                        remaining -= pkt[2] - hop
                        if sat is not None:
                            nsat = 0
                            for k in range(pkt[1] + hop, pkt[1] + pkt[2]):
                                if sat[arena[k]]:
                                    nsat += 1
                            remaining_sat -= nsat
                        if pkt[4]:
                            dropped += 1
                            node_drops[tail[f]] += 1
                    else:
                        pkt[3] = hop
                        if busy[f]:
                            qf = queues[f]
                            qf.append(pkt)
                            if (
                                track_maxima
                                and not draining
                                and t >= warmup
                                and len(qf) > max_queue
                            ):
                                max_queue = len(qf)
                        else:
                            busy[f] = 1
                            dep_append((t + service_c, seq, f, pkt))
                            seq += 1
                            if util is not None:
                                lo = t if t > warmup else warmup
                                hi = t + service_c
                                if hi > t_end:
                                    hi = t_end
                                if hi > lo:
                                    util[f] += hi - lo
                q = queues[e]
                if q:
                    nxt = q.popleft()
                    dep_append((t + service_c, seq, e, nxt))
                    seq += 1
                    if util is not None:
                        lo = t if t > warmup else warmup
                        hi = t + service_c
                        if hi > t_end:
                            hi = t_end
                        if hi > lo:
                            util[e] += hi - lo
                else:
                    busy[e] = 0
    else:
        # ------------------ event-queue loop ------------------
        # Exponential or per-edge deterministic service: departure
        # times are not monotone, so a binary heap orders them (by
        # the unique (time, seq) prefix), with the arrival sentinel
        # merged in.
        heap: list[tuple] = []
        heappush(heap, (first_gap, seq, -1, None))
        seq += 1
        fast_service = not exponential and util is None
        while heap:
            t, _s, e, pkt = heappop(heap)
            if not maxima_seeded and t >= warmup:
                maxima_seeded = True
                for q in queues:
                    if len(q) > max_queue:
                        max_queue = len(q)
            if t >= t_end and not draining:
                draining = True
                in_flight_at_horizon = in_system
                # Close the integrals exactly at the horizon boundary.
                lo = last_t if last_t > warmup else warmup
                if t_end > lo:
                    dt = t_end - lo
                    int_n += in_system * dt
                    int_r += remaining * dt
                    int_rs += remaining_sat * dt
                    if ndist is not None:
                        ndist[in_system] = ndist.get(in_system, 0.0) + dt
                last_t = t_end
            if not draining and t > warmup:
                lo = last_t if last_t > warmup else warmup
                dt = t - lo
                if dt > 0.0:
                    int_n += in_system * dt
                    int_r += remaining * dt
                    int_rs += remaining_sat * dt
                    if ndist is not None:
                        ndist[in_system] = ndist.get(in_system, 0.0) + dt
                last_t = t
            elif not draining:
                last_t = t

            if e < 0:
                # ----- external arrival -----
                if draining:
                    continue  # no arrivals past the horizon
                if uniform_fast:
                    if id_i >= TWO_BLOCK:
                        id_block = rng.integers(
                            0, num_nodes, size=TWO_BLOCK
                        ).tolist()
                        id_i = 0
                    src = id_block[id_i]
                    dst = id_block[id_i + 1]
                    id_i += 2
                else:
                    if uniform_sources:
                        src = sources[int(rng.integers(nsrc))]
                    else:
                        src = sources[
                            int(
                                searchsorted(
                                    source_cdf, rng.random(), side="right"
                                )
                            )
                        ]
                    dst = dest_sample(src, rng)
                measured = t >= warmup
                if measured:
                    generated += 1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        delay_acc.add(t, 0.0)
                        if delays is not None:
                            delays.append(0.0)
                else:
                    if det_get is not None:
                        ol = det_get(src * num_nodes + dst)
                        if ol is None:
                            ol = det_build(src, dst)
                        off, ln = ol
                    else:
                        off, ln = sample_offlen(src, dst, rng)
                    f = arena[off]
                    if busy[f] and capped and len(queues[f]) >= cap[f]:
                        # Entry buffer full (see the merge loop).
                        if measured:
                            dropped += 1
                            node_drops[tail[f]] += 1
                    else:
                        in_system += 1
                        remaining += ln
                        if sat is not None:
                            nsat = 0
                            for k in range(off, off + ln):
                                if sat[arena[k]]:
                                    nsat += 1
                            remaining_sat += nsat
                        # Fresh per-packet record (see the merge loop).
                        new_pkt = [t, off, ln, 0, measured]  # replint: disable=hot-loop-alloc
                        if busy[f]:
                            q = queues[f]
                            q.append(new_pkt)
                            if (
                                track_maxima
                                and measured
                                and not draining
                                and len(q) > max_queue
                            ):
                                max_queue = len(q)
                        else:
                            busy[f] = 1
                            if fast_service:
                                heappush(heap, (t + st[f], seq, f, new_pkt))
                                seq += 1
                            else:
                                start_service_heap(f, t, new_pkt)
                # Next arrival.
                if exp_i >= BLK:
                    exp_block = rng.exponential(size=BLK)
                    exp_i = 0
                heappush(heap, (t + exp_block[exp_i] * gap_scale, seq, -1, None))
                exp_i += 1
                seq += 1
            else:
                # ----- departure: pkt finished service at edge e -----
                remaining -= 1
                if sat is not None and sat[e]:
                    remaining_sat -= 1
                hop = pkt[3] + 1
                if hop == pkt[2]:
                    in_system -= 1
                    if pkt[4]:
                        completed += 1
                        d = t - pkt[0]
                        delay_acc.add(pkt[0], d)
                        if track_maxima and d > max_delay:
                            max_delay = d
                        if delays is not None:
                            delays.append(d)
                else:
                    f = arena[pkt[1] + hop]
                    if busy[f] and capped and len(queues[f]) >= cap[f]:
                        # Mid-route drop (see the merge loop).
                        in_system -= 1
                        remaining -= pkt[2] - hop
                        if sat is not None:
                            nsat = 0
                            for k in range(pkt[1] + hop, pkt[1] + pkt[2]):
                                if sat[arena[k]]:
                                    nsat += 1
                            remaining_sat -= nsat
                        if pkt[4]:
                            dropped += 1
                            node_drops[tail[f]] += 1
                    else:
                        pkt[3] = hop
                        if busy[f]:
                            qf = queues[f]
                            qf.append(pkt)
                            if (
                                track_maxima
                                and not draining
                                and t >= warmup
                                and len(qf) > max_queue
                            ):
                                max_queue = len(qf)
                        else:
                            busy[f] = 1
                            if fast_service:
                                heappush(heap, (t + st[f], seq, f, pkt))
                                seq += 1
                            else:
                                start_service_heap(f, t, pkt)
                q = queues[e]
                if q:
                    nxt = q.popleft()
                    if fast_service:
                        heappush(heap, (t + st[e], seq, e, nxt))
                        seq += 1
                    else:
                        start_service_heap(e, t, nxt)
                else:
                    busy[e] = 0

    # If the run never reached the horizon (cannot happen: the arrival
    # sentinel always carries the clock forward), close integrals.
    if last_t < t_end:
        lo = last_t if last_t > warmup else warmup
        dt = t_end - lo
        int_n += in_system * dt
        int_r += remaining * dt
        int_rs += remaining_sat * dt
        if ndist is not None:
            ndist[in_system] = ndist.get(in_system, 0.0) + dt

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    if ndist is not None:
        total_dt = sum(ndist.values())
        ndist = {k: v / total_dt for k, v in sorted(ndist.items())}
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        completed=completed,
        zero_hop=zero_hop,
        in_flight_at_end=in_flight_at_horizon,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        utilization=util / horizon if util is not None else None,
        delays=np.asarray(delays) if delays is not None else None,
        number_distribution=ndist,
        max_delay=max_delay if track_maxima else float("nan"),
        max_queue_length=max_queue if track_maxima else -1,
        dropped=dropped,
        node_drops=np.asarray(node_drops, dtype=np.int64) if capped else None,
    )


def run_slotted(
    sim: Any,
    warmup_slots: int,
    horizon_slots: int,
    *,
    delay_batches: int = 32,
    track_maxima: bool = False,
    collect_delays: bool = False,
) -> SimResult:
    """The slotted slot loop (blocked Poisson counts, per-slot batches)."""
    rng = make_rng(sim.seed, engine="slotted", backend="python")
    tau = sim.tau
    warmup = warmup_slots * tau
    horizon = horizon_slots * tau
    t_end_slot = warmup_slots + horizon_slots
    batch_mean = sim.total_rate * tau
    num_nodes = sim.topology.num_nodes
    sat = sim._sat

    uniform_sources = sim._uniform_sources
    source_arr = np.asarray(sim.source_nodes, dtype=np.int64)
    nsrc = len(source_arr)
    source_cdf = sim._source_cdf
    destinations = sim.destinations
    dest_sample = destinations.sample
    dest_sample_batch = getattr(destinations, "sample_batch", None)

    cache = sim.path_cache
    arena = cache.arena.edges  # extended in place; safe to bind once
    cache_rng_free = not cache.consumes_rng
    offlen_batch = cache.offlen_batch if cache_rng_free else None
    sample_offlen_batch = cache.sample_offlen_batch
    # Uniform sources over all nodes, uniform destinations and an RNG-free
    # path cache: draw each slot's (src, dst) pairs as one flat id block.
    uniform_id_pairs = sim._fast_ids and cache_rng_free

    queues: list[deque] = [deque() for _ in range(sim.topology.num_edges)]
    active: set[int] = set()
    in_system = 0
    remaining = 0
    remaining_sat = 0
    int_n = int_r = int_rs = 0.0
    generated = completed = zero_hop = 0
    in_flight_at_horizon = 0
    delay_acc = TimeBatchAccumulator(warmup, warmup + horizon, delay_batches)
    delays: list[float] | None = [] if collect_delays else None
    max_delay = 0.0
    max_queue = 0
    maxima_seeded = not track_maxima or warmup_slots == 0
    count_block: list[int] = []
    count_i = 0
    counts_drawn = 0

    slot = 0
    while True:
        t = slot * tau
        measuring = warmup_slots <= slot < t_end_slot
        draining = slot >= t_end_slot
        if draining and in_system == 0:
            break
        if not maxima_seeded and slot >= warmup_slots:
            # Queues standing at the warmup crossing belong to the
            # measurement window (event-engine parity).
            maxima_seeded = True
            for q in queues:
                if len(q) > max_queue:
                    max_queue = len(q)
        # --- batch arrivals at slot start ---
        if not draining:
            if count_i >= len(count_block):
                size = min(_BLOCK, t_end_slot - counts_drawn)
                count_block = rng.poisson(batch_mean, size=size).tolist()
                counts_drawn += size
                count_i = 0
            k = count_block[count_i]
            count_i += 1
            if k:
                # Draw the slot's sources, destinations and paths as
                # batches; packets are enqueued in draw order.
                if uniform_id_pairs:
                    ids = rng.integers(0, num_nodes, size=2 * k)
                    srcs_a = ids[0::2]
                    dsts_a = ids[1::2]
                else:
                    if uniform_sources:
                        srcs_a = source_arr[rng.integers(0, nsrc, size=k)]
                    else:
                        # side="right": a boundary draw must not pick a
                        # zero-rate source (see the event engine).
                        srcs_a = source_arr[
                            np.searchsorted(
                                source_cdf, rng.random(k), side="right"
                            )
                        ]
                    # Batch boundary: the per-slot destination batch is
                    # drawn (and boxed) once per slot, not per packet.
                    if dest_sample_batch is not None:
                        dsts_a = np.asarray(dest_sample_batch(srcs_a, rng))  # replint: disable=hot-loop-alloc
                    else:
                        dsts_a = np.asarray(  # replint: disable=hot-loop-alloc
                            [dest_sample(int(s), rng) for s in srcs_a.tolist()]  # replint: disable=hot-loop-alloc
                        )
                nz = srcs_a != dsts_a
                if nz.any():
                    if offlen_batch is not None:
                        offs_a, lens_a = offlen_batch(srcs_a[nz], dsts_a[nz])
                    else:
                        offs_a, lens_a = sample_offlen_batch(
                            srcs_a[nz], dsts_a[nz], rng
                        )
                    offs = offs_a.tolist()
                    lens = lens_a.tolist()
                at = 0  # index into offs/lens (non-zero-hop packets)
                for src, dst in zip(srcs_a.tolist(), dsts_a.tolist()):
                    if measuring:
                        generated += 1
                    if src == dst:
                        if measuring:
                            zero_hop += 1
                            completed += 1
                            delay_acc.add(t, 0.0)
                            if delays is not None:
                                delays.append(0.0)
                        continue
                    off = offs[at]
                    ln = lens[at]
                    at += 1
                    in_system += 1
                    remaining += ln
                    if sat is not None:
                        nsat = 0
                        for e_i in range(off, off + ln):
                            if sat[arena[e_i]]:
                                nsat += 1
                        remaining_sat += nsat
                    f = arena[off]
                    q = queues[f]
                    # Fresh per-packet record (see run_fifo).
                    q.append([t, off, ln, 0, measuring])  # replint: disable=hot-loop-alloc
                    active.add(f)
                    if track_maxima and measuring and len(q) > max_queue:
                        max_queue = len(q)
        # --- per-slot occupancy integrals (state during the slot) ---
        if measuring:
            int_n += in_system * tau
            int_r += remaining * tau
            int_rs += remaining_sat * tau
        if slot + 1 == t_end_slot:
            in_flight_at_horizon = in_system
        # --- simultaneous transmission: one head per non-empty edge ---
        # Per-slot staging lists: sized by this slot's active edges, and
        # consumed before the next slot — pooling would just re-clear them.
        deliveries = []  # replint: disable=hot-loop-alloc
        emptied = []  # replint: disable=hot-loop-alloc
        for e in active:
            pkt = queues[e].popleft()
            deliveries.append(pkt)
            if not queues[e]:
                emptied.append(e)
        for e in emptied:
            active.discard(e)
        arrive_t = t + tau
        for pkt in deliveries:
            remaining -= 1
            if sat is not None and sat[arena[pkt[1] + pkt[3]]]:
                remaining_sat -= 1
            hop = pkt[3] + 1
            if hop == pkt[2]:
                in_system -= 1
                if pkt[4]:
                    completed += 1
                    d = arrive_t - pkt[0]
                    delay_acc.add(pkt[0], d)
                    if track_maxima and d > max_delay:
                        max_delay = d
                    if delays is not None:
                        delays.append(d)
            else:
                pkt[3] = hop
                f = arena[pkt[1] + hop]
                qf = queues[f]
                qf.append(pkt)
                active.add(f)
                if track_maxima and measuring and len(qf) > max_queue:
                    max_queue = len(qf)
        slot += 1

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        completed=completed,
        zero_hop=zero_hop,
        in_flight_at_end=in_flight_at_horizon,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        delays=np.asarray(delays) if delays is not None else None,
        max_delay=max_delay if track_maxima else float("nan"),
        max_queue_length=max_queue if track_maxima else -1,
    )

