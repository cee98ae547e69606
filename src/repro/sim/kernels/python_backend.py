"""The reference (interpreted) kernels, extracted from the engines.

:func:`run_slotted` and the FIFO event loops (:func:`_run_events`) are
the bodies of the corresponding engines' ``run`` loops with ``self``
renamed to ``sim``. The event loops also serve the finite-buffer engine:
given per-edge caps, the heap loop drops a packet that finds its next
edge busy and the waiting room full. The admission test consumes no
randomness and drops never schedule events, so the RNG draw order, the
event pop order and the floating-point accumulation order are exactly
those of the pre-kernels engines: this module is the same-seed
reference that the golden fixtures (``tests/golden/``) pin and that the
numpy backend's distribution-parity tests compare against.

The level path
--------------
Greedy routing on the array is layered (Lemma 2), so a deterministic
FIFO run needs no event loop: :func:`run_fifo` solves it one edge level
at a time with the closed-form Lindley recurrence
(:mod:`repro.sim.kernels.levels`, the sweep the numpy kernel uses) on
the merge loop's own draws. A run takes this path when

1. the merge loop would serve it (uniform deterministic service, no
   caps, nothing tracked) and it does not ``collect_delays``;
2. its path cache draws no randomness (no randomized router, no
   per-packet ``SampledPathInterner``);
3. its expected visits, total rate x (warmup + horizon) x
   (``num_nodes - 1``), fit
   :data:`~repro.sim.kernels.NUMPY_VISIT_BUDGET`;
4. its own routes are layered: the edge-precedence pairs they use have
   no cycle. Otherwise (torus wraparound) the event loops run it from a
   fresh generator of the same seed.

:func:`takes_level_path` is conditions 1-3; condition 4 is checked on
the run's routes, so a result never depends on the runs made before it.
The draws are the merge loop's, in its order
(:func:`_loop_arrivals`): an exponential block, an id block, and then
one more of each as the loop would consume them, the arrival times
being the loop's sequential sums of the scaled gaps. So the arrivals,
their ids and their paths are the loop's, and so is every integer
field of the result; the floats agree to rounding (the closed form and
the window-overlap statistics sum in another order), as the parity
tests in ``tests/test_sim_level_path.py`` pin.

Arrival ids come from :func:`repro.sim.enginecommon.draw_ids`, the one
definition of the arrival stream's ids. The two FIFO loops take
8192 pairs per call (:func:`~repro.sim.enginecommon.draw_id_lists`),
the slot kernel one slot's batch. Fast-id networks draw uniform
interleaved pairs; every other network draws a source block and then
one ``sample_batch`` call, so no loop draws an id per packet.

Two more choices keep the loops fast without moving a bit. The RNG
blocks are drawn as numpy arrays and converted with ``.tolist()``, the
exponential block like the id block: the draws and their order are
unchanged, and the clocks, heap keys and integrals become builtin
floats, whose IEEE double arithmetic gives the same results as
``np.float64``'s. And each measured completion appends its ``(birth,
delay)`` pair to the accumulator's two pending ``array('d')`` buffers
instead of calling
:meth:`~repro.sim.measurement.TimeBatchAccumulator.add`; the buffers
fold into the batches every ``measurement.FOLD_PAIRS`` pairs and once
after the loop, and ``collect_delays`` reads the folded delays back in
the same order. ``np.add.at`` scatters in order, so the batch sums
equal one ``add`` per completion, and the buffers' memory stays bounded
however long the horizon.

The engines keep argument validation; kernels receive validated state
and own only the hot loop plus the result assembly.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any

import numpy as np

from repro.routing.pathcache import gather_paths, route_pairs
from repro.sim import measurement
from repro.sim.enginecommon import draw_id_lists, draw_ids
from repro.sim.kernels import NUMPY_VISIT_BUDGET
from repro.sim.kernels.levels import CyclicRoutes, _precedence_levels, solve_fifo
from repro.sim.result import SimResult
from repro.sim.rng import make_rng

_BLOCK = 8192

EXPONENTIAL = "exponential"


def _plain_stats(
    sim: Any,
    track_utilization: bool,
    track_number_distribution: bool,
    track_maxima: bool,
) -> bool:
    """Uniform deterministic service with no caps and nothing tracked
    (saturated hops, utilization, the N distribution, maxima): the runs
    the merge loop serves."""
    return bool(
        sim._uniform_service
        and sim._edge_caps is None
        and sim._sat is None
        and not (track_utilization or track_number_distribution or track_maxima)
    )


def takes_level_path(
    sim: Any,
    warmup: float,
    horizon: float,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    track_maxima: bool = False,
) -> bool:
    """Whether :func:`run_fifo` tries the level path for this run: a
    merge-loop run without ``collect_delays``, on a path cache that
    draws nothing, whose expected visits fit :data:`NUMPY_VISIT_BUDGET`
    (``num_nodes - 1`` bounds every path's hop count). It then takes the
    path unless its own routes have a precedence cycle. Every condition
    depends on the run alone, never on runs made before it."""
    return (
        _plain_stats(sim, track_utilization, track_number_distribution, track_maxima)
        and not collect_delays
        and not sim.path_cache.consumes_rng
        and sim.total_rate * (warmup + horizon) * (sim.topology.num_nodes - 1)
        <= NUMPY_VISIT_BUDGET
    )


def run_fifo(
    sim: Any,
    warmup: float,
    horizon: float,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    track_maxima: bool = False,
) -> SimResult:
    """The FIFO kernel: the level path (:func:`_run_levels`) where
    :func:`takes_level_path` holds and the run's routes are layered, the
    event loops (:func:`_run_events`) everywhere else."""
    flags = dict(
        track_utilization=track_utilization,
        collect_delays=collect_delays,
        track_number_distribution=track_number_distribution,
        track_maxima=track_maxima,
    )
    if takes_level_path(sim, warmup, horizon, **flags):
        res = _run_levels(sim, warmup, horizon)
        if res is not None:
            return res
    return _run_events(sim, warmup, horizon, **flags)


def _loop_arrivals(
    sim: Any, t_end: float, rng: np.random.Generator
) -> list[np.ndarray]:
    """The merge loop's arrivals before ``t_end``, from its own draws.

    Blocks are drawn in the loop's order: an exponential block, an id
    block (:func:`~repro.sim.enginecommon.draw_ids`), and then another
    exponential block whenever every arrival of the last one came before
    ``t_end``, followed by an id block when its first arrival did too.
    Arrival times are the loop's sequential sums of the scaled gaps.
    Returns ``[times, srcs, dsts]``.
    """
    scale = 1.0 / sim.total_rate
    times: list[np.ndarray] = []
    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []
    offset = 0.0
    while True:
        t = rng.exponential(size=_BLOCK)
        t *= scale
        t[0] += offset
        np.cumsum(t, out=t)
        k = int(np.searchsorted(t, t_end))  # arrivals with t < t_end
        if k or not times:
            s, d = draw_ids(sim, _BLOCK, rng)
            srcs.append(s[:k])
            dsts.append(d[:k])
        times.append(t[:k])
        if k < _BLOCK:
            break
        offset = float(t[-1])
    return [np.concatenate(times), np.concatenate(srcs), np.concatenate(dsts)]


def _run_levels(sim: Any, warmup: float, horizon: float) -> SimResult | None:
    """The level path: the merge loop's draws (:func:`_loop_arrivals`),
    routed once per distinct pair and solved by the level sweep
    (:func:`~repro.sim.kernels.levels.solve_fifo`) on levels computed
    from this run's own routes. ``None`` when those routes have a
    precedence cycle."""
    rng = make_rng(sim.seed, engine="fifo", backend="python")
    arrivals = _loop_arrivals(sim, warmup + horizon, rng)
    num_edges = sim.topology.num_edges

    def route(
        srcs: np.ndarray, dsts: np.ndarray
    ) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        edges, pair_lens, inverse = route_pairs(sim.router, srcs, dsts)
        ends = np.cumsum(pair_lens)
        edge_lvl = _precedence_levels(num_edges, edges, ends[:-1] - 1)
        lens = pair_lens[inverse]
        visits = gather_paths(edges, (ends - pair_lens)[inverse], lens)
        return [visits], lens, edge_lvl

    try:
        return solve_fifo(sim, warmup, horizon, arrivals, route)
    except CyclicRoutes:
        return None


def _run_events(
    sim: Any,
    warmup: float,
    horizon: float,
    *,
    track_utilization: bool = False,
    collect_delays: bool = False,
    track_number_distribution: bool = False,
    track_maxima: bool = False,
) -> SimResult:
    """The FIFO event-driven loops (monotone merge + binary heap).

    Uniform deterministic service with no tracking and no caps runs the
    plain-stats monotone-merge loop; every other run takes the heap
    loop, which replays the same ``(time, seq)`` pop order. With
    per-edge waiting-room caps (``sim._edge_caps``, set by the
    finite-buffer engine) the heap loop applies tail-drop admission at
    every enqueue onto a busy edge and counts the drops. An uncapped run
    pays one local truth test per enqueue onto a busy edge for that.
    """
    cap = sim._edge_caps
    capped = cap is not None
    rng = make_rng(
        sim.seed, engine="finite" if capped else "fifo", backend="python"
    )
    t_end = warmup + horizon

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

    # Block RNG: exponential(1) variates, then the (src, dst) id blocks
    # of draw_id_lists, all as lists of builtin numbers (see the module
    # docstring).
    exp_block = rng.exponential(size=_BLOCK).tolist()
    exp_i = 0
    src_block, dst_block = draw_id_lists(sim, _BLOCK, rng)
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
    delay_acc = measurement.TimeBatchAccumulator(
        warmup, t_end, keep_values=collect_delays
    )
    # Measured (birth, delay) pairs in completion order, folded into the
    # batches every fold_max pairs and once after the loop.
    fold_births = delay_acc.pending_times
    add_birth = fold_births.append
    add_delay = delay_acc.pending_values.append
    fold_max = measurement.FOLD_PAIRS
    util: list[float] | None = [0.0] * num_edges if track_utilization else None
    ndist: dict[int, float] | None = {} if track_number_distribution else None
    max_delay = 0.0
    max_queue = 0

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
    # The common standard-model configuration (uniform deterministic
    # service, infinite buffers, no saturation mask, no N-distribution,
    # no maxima, no utilization) gets a lean loop with every untracked
    # branch removed; everything else takes the heap loop.
    plain_stats = _plain_stats(
        sim, track_utilization, track_number_distribution, track_maxima
    )

    if plain_stats:
        # -------- monotone-merge event loop, plain statistics --------
        # All service times equal => departures are pushed with
        # nondecreasing times, so a FIFO deque plus the single pending
        # arrival replays the heap's (time, seq) pop order exactly, with
        # the same arithmetic: results are bit-identical to the heap
        # loop's. Measured against it on the same runs (median of 7
        # alternating passes): the quick report's 8 runs took 2.06 s
        # against 3.27 s, the quick validation tier's 22 runs 0.82 s
        # against 1.19 s. A tracked or capped merge loop saved far less
        # (about 1% of the report's wall time, 3% of a sweep's CPU).
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
                if id_i >= BLK:
                    src_block, dst_block = draw_id_lists(sim, BLK, rng)
                    id_i = 0
                src = src_block[id_i]
                dst = dst_block[id_i]
                id_i += 1
                measured = t >= warmup
                if measured:
                    generated += 1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        add_birth(t)
                        add_delay(0.0)
                        if len(fold_births) >= fold_max:
                            delay_acc.fold()
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
                    exp_block = rng.exponential(size=BLK).tolist()
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
                        add_birth(pkt[0])
                        add_delay(d)
                        if len(fold_births) >= fold_max:
                            delay_acc.fold()
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
    else:
        # ------------------ event-queue loop ------------------
        # A binary heap orders departures by the unique (time, seq)
        # prefix, with the arrival sentinel merged in: exponential or
        # per-edge service (departure times are not monotone), and
        # every tracked or capped run. Each of the three service starts
        # draws its time inline (exponential service), from the same
        # block as the arrival gaps, and clips it into util there.
        # Drops never schedule events.
        heap: list[tuple] = []
        heappush(heap, (first_gap, seq, -1, None))
        seq += 1
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
                if id_i >= BLK:
                    src_block, dst_block = draw_id_lists(sim, BLK, rng)
                    id_i = 0
                src = src_block[id_i]
                dst = dst_block[id_i]
                id_i += 1
                measured = t >= warmup
                if measured:
                    generated += 1
                if src == dst:
                    if measured:
                        zero_hop += 1
                        completed += 1
                        add_birth(t)
                        add_delay(0.0)
                        if len(fold_births) >= fold_max:
                            delay_acc.fold()
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
                            if exponential:
                                if exp_i >= BLK:
                                    exp_block = rng.exponential(size=BLK).tolist()
                                    exp_i = 0
                                s = exp_block[exp_i] * st[f]
                                exp_i += 1
                            else:
                                s = st[f]
                            heappush(heap, (t + s, seq, f, new_pkt))
                            seq += 1
                            if util is not None:
                                lo = t if t > warmup else warmup
                                hi = t + s
                                if hi > t_end:
                                    hi = t_end
                                if hi > lo:
                                    util[f] += hi - lo
                # Next arrival.
                if exp_i >= BLK:
                    exp_block = rng.exponential(size=BLK).tolist()
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
                        add_birth(pkt[0])
                        add_delay(d)
                        if len(fold_births) >= fold_max:
                            delay_acc.fold()
                        if track_maxima and d > max_delay:
                            max_delay = d
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
                            if exponential:
                                if exp_i >= BLK:
                                    exp_block = rng.exponential(size=BLK).tolist()
                                    exp_i = 0
                                s = exp_block[exp_i] * st[f]
                                exp_i += 1
                            else:
                                s = st[f]
                            heappush(heap, (t + s, seq, f, pkt))
                            seq += 1
                            if util is not None:
                                lo = t if t > warmup else warmup
                                hi = t + s
                                if hi > t_end:
                                    hi = t_end
                                if hi > lo:
                                    util[f] += hi - lo
                q = queues[e]
                if q:
                    nxt = q.popleft()
                    if exponential:
                        if exp_i >= BLK:
                            exp_block = rng.exponential(size=BLK).tolist()
                            exp_i = 0
                        s = exp_block[exp_i] * st[e]
                        exp_i += 1
                    else:
                        s = st[e]
                    heappush(heap, (t + s, seq, e, nxt))
                    seq += 1
                    if util is not None:
                        lo = t if t > warmup else warmup
                        hi = t + s
                        if hi > t_end:
                            hi = t_end
                        if hi > lo:
                            util[e] += hi - lo
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

    delay_acc.fold()
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
        utilization=np.asarray(util) / horizon if util is not None else None,
        delays=np.array(delay_acc.kept) if collect_delays else None,
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

    # Path cache bindings. RNG-free caches get run_fifo's inlined dict
    # probe per packet; RNG-consuming caches draw each slot's coins in
    # one sample_offlen_batch call.
    cache = sim.path_cache
    arena = cache.arena.edges  # extended in place; safe to bind once
    cache_rng_free = not cache.consumes_rng
    if cache_rng_free:
        det_get = cache.table.get
        det_build = cache.ensure
        sample_offlen_batch = None
    else:
        det_get = None
        det_build = None
        sample_offlen_batch = cache.sample_offlen_batch
    # Each slot's (src, dst) pairs come from one draw_ids call: one
    # interleaved id block where the fast-id predicate holds over an
    # RNG-free path cache, else a source block and then a destination
    # block (the order slotted_randomized pins).
    uniform_id_pairs = sim._fast_ids and cache_rng_free

    queues: list[deque] = [deque() for _ in range(sim.topology.num_edges)]
    active: set[int] = set()
    in_system = 0
    remaining = 0
    remaining_sat = 0
    int_n = int_r = int_rs = 0.0
    generated = completed = zero_hop = 0
    in_flight_at_horizon = 0
    delay_acc = measurement.TimeBatchAccumulator(
        warmup, warmup + horizon, keep_values=collect_delays
    )
    # Measured (birth, delay) pairs, folded as in run_fifo.
    fold_births = delay_acc.pending_times
    fold_delays = delay_acc.pending_values
    fold_max = measurement.FOLD_PAIRS
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
                # Draw the slot's sources and destinations as batches;
                # packets are enqueued in draw order.
                srcs_a, dsts_a = draw_ids(sim, k, rng, fast_ids=uniform_id_pairs)
                if det_get is None:
                    nz = srcs_a != dsts_a
                    if nz.any():
                        offs_a, lens_a = sample_offlen_batch(
                            srcs_a[nz], dsts_a[nz], rng
                        )
                        offs = offs_a.tolist()
                        lens = lens_a.tolist()
                srcs = srcs_a.tolist()
                dsts = dsts_a.tolist()
                at = 0  # index into offs/lens (non-zero-hop packets)
                for src, dst in zip(srcs, dsts):
                    if measuring:
                        generated += 1
                    if src == dst:
                        if measuring:
                            zero_hop += 1
                            completed += 1
                            fold_births.append(t)
                            fold_delays.append(0.0)
                            if len(fold_births) >= fold_max:
                                delay_acc.fold()
                        continue
                    if det_get is not None:
                        ol = det_get(src * num_nodes + dst)
                        if ol is None:
                            ol = det_build(src, dst)
                        off, ln = ol
                    else:
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
                    fold_births.append(pkt[0])
                    fold_delays.append(d)
                    if len(fold_births) >= fold_max:
                        delay_acc.fold()
                    if track_maxima and d > max_delay:
                        max_delay = d
            else:
                pkt[3] = hop
                f = arena[pkt[1] + hop]
                qf = queues[f]
                qf.append(pkt)
                active.add(f)
                if track_maxima and measuring and len(qf) > max_queue:
                    max_queue = len(qf)
        slot += 1

    delay_acc.fold()
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
        delays=np.array(delay_acc.kept) if collect_delays else None,
        max_delay=max_delay if track_maxima else float("nan"),
        max_queue_length=max_queue if track_maxima else -1,
    )

