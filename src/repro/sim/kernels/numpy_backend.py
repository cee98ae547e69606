"""Vectorized kernels: whole-trajectory max-plus solves over the arena.

Instead of replaying the event loop, these kernels exploit the structure
of the two regimes the python backend's hot loops already isolate:

* **deterministic FIFO service** — at a single FIFO server with
  constant service time ``c_e`` the departure of the ``k``-th arrival
  (in arrival order) is the Lindley recurrence
  ``d_k = max(x_k, d_{k-1}) + c_e``, which has the closed form
  ``d_k = (k+1) c_e + cummax_j<=k (x_j - j c_e)``: one segmented
  cumulative maximum per edge, no loop over events. Uniform service
  (the standard model) keeps ``c`` a scalar; per-edge rates (Theorem
  15's allocation) scale each visit by its own edge's ``c_e``;
* **slotted unit transmissions** — the integer analogue
  ``d_k = max(g_k, d_{k-1} + 1) = k + cummax(g_j - j)`` over eligibility
  slots ``g``.

Whole-network solve: when the route set is *feedforward* — the
edge-precedence relation "``e`` is visited immediately before ``f`` on
some used path" is acyclic, true for dimension-ordered routing on
meshes, k-d arrays, hypercubes and butterflies — edges can be processed
level by level. All hop-0 eligibility times are known (packet creation),
so level-0 edges are solved with one segmented cummax, their departures
become the eligibility times of the next hops, and so on. Torus
wraparound or mixed-order randomized routes create precedence cycles;
the kernels detect that and raise a ``ValueError`` pointing back to
``backend='python'``.

Visits come straight from the router
(:func:`~repro.routing.pathcache.route_packets`, no path cache): the
concatenation of every routed packet's path. Both kernels share one
memory layout (:func:`_sweep_levels`): per visit, only its edge id and
its packet id, as ``int16``/``int32`` arrays in level order; per packet,
the eligibility value of its next hop, which each level gathers for its
visits and overwrites once they are solved.
All statistics (occupancy/remaining-work integrals, delay batch means,
in-flight counts) are exact window-overlap reductions — the same
integrals the reference loops accumulate incrementally — taken level by
level as each level is solved, so no other per-visit array is kept.

Contract
--------
Draws are seed-stable but **not** draw-order-identical to the python
backend (one blocked draw per kind for the whole run, not per event or
per slot); parity is pinned at distribution level — see the two-backend
contract in :mod:`repro.sim`. The draw order, for regression pinning:

* fifo: exponential gap blocks (cumulative arrival times) until the
  horizon is passed; then one :func:`~repro.sim.enginecommon.draw_ids`
  call for all arrivals (an id-pair block on fast-id networks, else a
  source block followed by one destination ``sample_batch``); then the
  routed pairs' path draws, if the router makes any (``route_packets``).
* slotted: per-slot Poisson counts in 8192-size blocks (the same block
  discipline as the python backend), then the same id/source/
  destination/path batches as fifo, once for all slots.

FIFO options
------------
* ``track_utilization``: a visit that leaves edge ``e`` at ``d`` kept it
  busy over ``[d - c_e, d]``; each solved level clips those intervals
  to the window and sums them per edge with one ``bincount``.
* Tail-drop caps (the finite-buffer engine): a visit arriving at ``a``
  finds ``ceil((d_last - a) / c_e)`` packets at its edge, where
  ``d_last`` is the departure of the edge's last admitted packet (the
  queue's departures are ``c_e`` apart within a busy period), so it is
  dropped iff ``d_last - a > cap_e * c_e``. Admission is therefore a
  scan over arrival rank (:func:`_tail_drop`), vectorized across the
  edges of one level and confined to the uncapped solve's busy periods
  that overflow: before a busy period's first overflow and after it
  drains the capped and uncapped queues coincide. A dropped packet's
  later visits are retired — skipped by every later solve, with the
  drop time standing in for their departures — so its remaining hop
  units end at the drop time in the N and R integrals, as in the
  reference loop. ``dropped`` and ``node_drops`` count measured packets
  only.

Unsupported options raise ``ValueError`` rather than silently diverge:
``track_number_distribution`` and ``track_maxima`` (order statistics
need the event interleaving) and exponential fifo service (rejected at
construction).
"""

from __future__ import annotations

import weakref
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.routing.pathcache import route_packets
from repro.sim.enginecommon import draw_ids
from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult
from repro.sim.rng import make_rng

_BLOCK = 8192

#: Visits per chunk of the level sort and the precedence-pair dedup
#: (bounds their temporaries).
_SORT_CHUNK = 1 << 16

_I16_MAX = np.iinfo(np.int16).max


def _reject(option: str, engine: str) -> None:
    raise ValueError(
        f"backend='numpy' does not support {option} on the {engine} "
        f"engine (it needs the event interleaving); use backend='python'"
    )


def _edge_levels(
    num_edges: int, prev: np.ndarray, nxt: np.ndarray
) -> np.ndarray:
    """Topological level of every edge under the used-path precedence.

    ``lvl[e] = 0`` for edges never preceded on any used path, else one
    more than the deepest predecessor. Computed as a vectorized fixpoint
    over the distinct consecutive-visit pairs ``prev -> nxt``; a route
    set with a precedence cycle never converges and is rejected within
    ``#distinct edges + 1`` sweeps.
    """
    lvl = np.zeros(num_edges, dtype=np.int64)
    if prev.size == 0:
        return lvl
    distinct = np.unique(np.concatenate((prev, nxt))).size
    for _ in range(distinct + 1):
        new = lvl.copy()
        np.maximum.at(new, nxt, lvl[prev] + 1)
        if np.array_equal(new, lvl):
            return lvl
        lvl = new
    raise ValueError(
        "backend='numpy' requires feedforward routing (an acyclic "
        "edge-precedence relation over the used paths); this route set "
        "has a cycle — e.g. torus wraparound or mixed-order randomized "
        "routes — use backend='python'"
    )


#: Each router's last edge-level assignment (see :func:`_levels_for`).
_LEVEL_MEMO: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _levels_for(
    router: Any, num_edges: int, visit_edge: np.ndarray, breaks: np.ndarray
) -> np.ndarray:
    """Per-visit edge levels for this run, memoized per router.

    ``breaks`` are the sorted visits ``b`` whose pair ``(b, b + 1)``
    straddles two packets. A level assignment is valid for a run iff
    ``lvl[f] > lvl[e]`` for every consecutive visit pair ``e -> f`` the
    run actually uses, so an assignment memoized by an earlier run on the
    same router (a cell's seeds share one) is revalidated with one
    vectorized pass and only recomputed, from the run's distinct pairs
    found chunk by chunk, when a new seed routes a pair it does not cover.
    """
    cached = _LEVEL_MEMO.get(router)
    if cached is not None:
        lvl_vis = cached[visit_edge]
        ok = lvl_vis[1:] > lvl_vis[:-1]
        ok[breaks] = True
        if bool(ok.all()):
            return lvl_vis
        del lvl_vis, ok
    # Distinct precedence pairs as keys e * E + f (int32 while E^2
    # fits); the pairs that straddle two packets are masked out as -1.
    dtype = np.int32 if num_edges * num_edges < 2**31 else np.int64
    found = [np.empty(0, dtype=dtype)]
    last = visit_edge.size - 1
    for lo in range(0, last, _SORT_CHUNK):
        hi = min(lo + _SORT_CHUNK, last)
        key = visit_edge[lo:hi].astype(dtype)
        key *= num_edges
        key += visit_edge[lo + 1 : hi + 1]
        b0, b1 = np.searchsorted(breaks, (lo, hi))
        key[breaks[b0:b1] - lo] = -1
        found.append(np.unique(key))
    pairs = np.unique(np.concatenate(found))
    pairs = pairs[pairs >= 0].astype(np.int64)
    lvl = _edge_levels(num_edges, pairs // num_edges, pairs % num_edges)
    if int(lvl.max()) < _I16_MAX:
        # int16 levels: the level sort's radix pass then needs no cast.
        lvl = lvl.astype(np.int16)
    _LEVEL_MEMO[router] = lvl
    return lvl[visit_edge]


def _solve_runs(
    e_sorted: np.ndarray,
    shifted: np.ndarray,
    scale: float | np.ndarray,
    lag: int,
) -> np.ndarray:
    """Max-plus solve of one level's visits, sorted by edge and then by
    queue order, with ``shifted`` holding their eligibility values: the
    ``k``-th visit of an edge's run leaves at
    ``(k + lag) * scale + cummax_j<=k (shifted_j - j * scale)``.
    ``scale`` is a scalar, or per visit (constant along each run).
    Solved in place: returns ``shifted``, overwritten. The cummax runs
    once per edge; a level holds a few hundred edges at most."""
    n = e_sorted.size
    diff = e_sorted[1:] != e_sorted[:-1]
    seg_id = np.zeros(n, dtype=np.int32)
    np.cumsum(diff, out=seg_id[1:])
    starts = np.flatnonzero(np.concatenate(([True], diff)))
    idx = np.arange(n, dtype=np.int32) - starts.astype(np.int32)[seg_id]
    shifted -= idx * scale
    ends = np.append(starts[1:], n)
    for s0, s1 in zip(starts.tolist(), ends.tolist()):
        run = shifted[s0:s1]
        np.maximum.accumulate(run, out=run)
    shifted += (idx + lag) * scale
    return shifted


def _sorted_by_edge_then(
    key: np.ndarray, e_s: np.ndarray, e_span: int, kind: Any = None
) -> np.ndarray:
    """Indices sorting by ``e_s`` with ``key``'s order inside each edge:
    one sort on ``key``, then a stable int16 radix pass on the edge ids
    when they fit (they are topology edge ids, so they do for every
    paper-scale network)."""
    o1 = np.argsort(key, kind=kind)
    e_o = e_s[o1]
    if e_span < _I16_MAX:
        e_o = e_o.astype(np.int16, copy=False)
    return o1[np.argsort(e_o, kind="stable")]


def _fifo_departures(
    e_s: np.ndarray,
    x_s: np.ndarray,
    c: float | np.ndarray,
    e_span: int,
    cap: np.ndarray | None = None,
) -> np.ndarray | None:
    """Solve one level in place: ``x_s`` holds its visits' eligibility
    times on entry and their departure times on return. FIFO order is
    arrival order (float eligibility ties have measure zero).

    ``c`` is the uniform service time or a per-edge array. With per-edge
    waiting-room caps ``cap``, tail-drop admission applies: a dropped
    visit's entry is left at its arrival (drop) time, and the visits'
    drop mask is returned when any were dropped (else ``None``)."""
    order = _sorted_by_edge_then(x_s, e_s, e_span)
    e_o = e_s[order]
    scale = c[e_o] if isinstance(c, np.ndarray) else c
    if cap is None:
        x_s[order] = _solve_runs(e_o, x_s[order], scale, 1)
        return None
    x_o = x_s[order]
    d = _solve_runs(e_o, x_o.copy(), scale, 1)
    dropped = _tail_drop(e_o, x_o, d, scale, cap[e_o] * scale)
    x_s[order] = d
    if dropped is None:
        return None
    mask = np.zeros(e_s.size, dtype=bool)
    mask[order[dropped]] = True
    return mask


def _tail_drop(
    e: np.ndarray,
    x: np.ndarray,
    d: np.ndarray,
    c: float | np.ndarray,
    room: np.ndarray,
) -> np.ndarray | None:
    """Tail-drop admission over one level's visits, sorted by edge and
    then by arrival time ``x``, given their *uncapped* departures ``d``
    (overwritten with the capped ones; a dropped visit gets its arrival
    time). ``c`` is the service time (a scalar or per visit) and
    ``room = cap * c`` the longest backlog an arrival may find, per
    visit. Returns the dropped positions, or ``None`` when nothing
    drops.

    A visit arriving at ``a`` is dropped iff the edge's last admitted
    departure ``d_last`` exceeds ``a + room``. Only busy periods of the
    uncapped solve in which some visit would be dropped need the scan:
    until their first such visit the capped queue is the uncapped one,
    and once the uncapped queue drains the capped one (never longer) has
    drained too. Each of those stretches is scanned from its first drop
    to the end of its busy period, one arrival rank per step, all of
    them at once."""
    n = e.size
    prev = np.empty(n)
    prev[0] = -np.inf
    prev[1:] = d[:-1]
    prev[np.flatnonzero(e[1:] != e[:-1]) + 1] = -np.inf
    over = np.flatnonzero(prev - x > room)
    if over.size == 0:
        return None
    idle = x >= prev  # the visit opens a busy period of the uncapped solve
    period = np.cumsum(idle) - 1
    period_end = np.append(np.flatnonzero(idle)[1:], n)
    first = np.ones(over.size, dtype=bool)
    first[1:] = period[over[1:]] != period[over[:-1]]
    start = over[first]
    length = period_end[period[start]] - start
    by_len = np.argsort(-length, kind="stable")
    start, length = start[by_len], length[by_len]
    # Stretches still running at each rank step (a prefix: longest first).
    active = np.searchsorted(-length, -np.arange(int(length[0])), side="left")
    last = prev[start]  # exact: nothing dropped before ``start``
    c_u = np.broadcast_to(c, n)[start]  # constant along each stretch
    room_u = room[start]
    drop = np.zeros(n, dtype=bool)
    for k, m in enumerate(active.tolist()):
        pos = start[:m] + k
        a = x[pos]
        d_last = last[:m]
        lost = d_last - a > room_u[:m]
        dep = np.maximum(a, d_last)
        dep += c_u[:m]
        np.copyto(d_last, dep, where=~lost)
        d[pos] = dep
        drop[pos] = lost
    dropped = np.flatnonzero(drop)
    d[dropped] = x[dropped]
    return dropped


def _slot_departures(e_s: np.ndarray, k_s: np.ndarray, e_span: int) -> None:
    """Solve one level in place: ``k_s`` holds its visits' join keys
    ``2 * eligibility slot + is_new`` on entry and their departure slots
    on return.

    Queue (join) order at an edge is exactly the key order: slot-``s``
    arrivals join before end-of-slot-``s`` movers, which join before
    slot-``s+1`` arrivals, and the movers' eligibility is ``s + 1``.
    Equal joins keep the input (visit) order — a distribution-level tie
    only; the reference engine's same-slot mover order is set-iteration
    order."""
    # The keys are small non-negative ints, so two stable int16 radix
    # passes replace the 4-pass comparison lexsort. Stability chains:
    # the second pass (by edge) preserves the first pass's
    # (slot, movers-first, visit-order) order within each edge.
    key = k_s - (int(k_s.min()) & ~1)  # an even shift keeps is_new
    if int(key.max()) < _I16_MAX:
        key = key.astype(np.int16)
    order = _sorted_by_edge_then(key, e_s, e_span, kind="stable")
    del key
    k_s[order] = _solve_runs(e_s[order], k_s[order] >> 1, 1, 0)


def _level_layout(
    router: Any, num_edges: int, visit_edge: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Static per-run structure of the level sweep, in *level layout*
    (visits stably sorted by level), so the solve loop reads it as
    contiguous slices. ``ends`` are the packets' cumulative path lengths.

    Returns ``(bounds, e_lv, pk_lv)`` — per-level slice bounds and, per
    visit in level layout, its edge id (``int16`` where edge ids fit) and
    its packet id (``int32``). The stable sort keeps visits in generation
    order inside each level (each packet appears at most once per level,
    so this is also packet order — the slotted tie-break relies on it).
    It runs as a chunked counting sort: each chunk is radix-sorted on its
    own and its visits' edge and packet ids are scattered to their
    levels' next free slots, so no full-size index array is built."""
    lvl_vis = _levels_for(router, num_edges, visit_edge, ends[:-1] - 1)
    nvis = lvl_vis.size
    n_lvl = int(lvl_vis.max()) + 1
    cuts = range(0, nvis, _SORT_CHUNK)
    counts = np.array(
        [np.bincount(lvl_vis[i : i + _SORT_CHUNK], minlength=n_lvl) for i in cuts]
    )
    bounds = np.zeros(n_lvl + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=0), out=bounds[1:])
    # Level-layout slot of each chunk's first visit on each level.
    base = bounds[:-1] + np.cumsum(counts, axis=0) - counts
    e_lv = np.empty(nvis, dtype=np.int16 if num_edges < _I16_MAX else np.int32)
    pk_lv = np.empty(nvis, dtype=np.int32)
    for k, i in enumerate(cuts):
        chunk = lvl_vis[i : i + _SORT_CHUNK]
        j = i + chunk.size
        o = np.argsort(chunk, kind="stable")
        first = np.cumsum(counts[k]) - counts[k]  # in the sorted chunk
        slot = (base[k] - first).astype(np.int32)[chunk[o]]
        slot += np.arange(o.size, dtype=np.int32)
        e_lv[slot] = visit_edge[i:j][o]
        # The chunk's packet ids: one more after each packet's last visit
        # (paths are non-empty, so packet ends are distinct).
        p0, p1 = np.searchsorted(ends, (i, j - 1), side="right")
        pk = np.zeros(chunk.size, dtype=np.int32)
        pk[ends[p0:p1] - i] = 1
        np.cumsum(pk, out=pk)
        pk += p0
        pk_lv[slot] = pk[o]
    return bounds, e_lv, pk_lv


#: Tail-drop packet state bit: the packet was dropped.
_DROPPED = 2


class _Sweep(NamedTuple):
    """What :func:`_sweep_levels` returns."""

    #: Each packet's ``forward(d)`` of its last-hop departure ``d`` (of
    #: its drop time if dropped).
    final: np.ndarray
    #: Window sums of the clipped departures over all visits and over
    #: saturated-edge visits.
    sum_all: float
    sum_sat: float
    #: Each packet's number of saturated hops (``None`` without a mask).
    sat_hops: np.ndarray | None
    #: Tail-drop runs only: which packets were not dropped, and the
    #: measured packets dropped at each edge.
    drops: tuple[np.ndarray, np.ndarray] | None = None


def _sweep_levels(
    sim: Any,
    visits: list[np.ndarray],
    lens: np.ndarray,
    seed: np.ndarray,
    solve: Callable[[np.ndarray, np.ndarray], np.ndarray | None],
    forward: Callable[[np.ndarray], np.ndarray],
    clip_lo: float,
    clip_hi: float,
    sat_arr: np.ndarray | None,
    measured: np.ndarray | None = None,
) -> _Sweep:
    """The level sweep both kernels share.

    Takes the routed packets' visits out of their one-element list (see
    :func:`_draw_paths`), lays them out by level, freeing the visit
    array, and solves level by level over one per-packet array ``cur``
    of ``seed``'s dtype: the eligibility value of each packet's next hop,
    ``seed`` before its first hop and ``forward(d)`` after a hop departed
    at ``d``. A packet visits each level at most once, and its next hop
    always sits in a later level, so each level gathers ``cur`` for its
    visits, ``solve(edges, values)`` overwrites the gathered values with
    their departures, and ``forward`` of those is written back. ``cur``
    ends up holding ``forward`` of every packet's last departure. Each
    solved level adds its visits' clipped departures
    ``max(min(d, clip_hi) - clip_lo, 0)`` to the window sums.

    Tail-drop runs pass each routed packet's ``measured`` flag, and
    ``solve`` returns the mask of the visits it dropped (or ``None``).
    A dropped packet is retired: its later visits skip every solve and
    carry the drop time forward as their "departure", which is where its
    remaining hop units end in the window sums.
    """
    num_edges = sim.topology.num_edges
    visit_edge = visits.pop()
    edge_drops = np.zeros(num_edges, dtype=np.int64)
    if lens.size == 0:
        sat_hops = None if sat_arr is None else np.zeros(0, dtype=np.int64)
        drops = None
        if measured is not None:
            drops = (np.zeros(0, dtype=bool), edge_drops)
        return _Sweep(np.empty(0, dtype=seed.dtype), 0.0, 0.0, sat_hops, drops)
    ends = np.cumsum(lens)
    sat_hops = None
    if sat_arr is not None:
        cum_sat = np.cumsum(sat_arr[visit_edge], dtype=np.int32)
        sat_hops = np.diff(cum_sat[ends - 1], prepend=0)
        del cum_sat
    bounds, e_lv, pk_lv = _level_layout(sim.router, num_edges, visit_edge, ends)
    del visit_edge, ends
    cur = seed.copy()
    state: np.ndarray | None = None
    if measured is not None:
        # Per packet: bit 0 = measured, plus the _DROPPED bit.
        state = measured.astype(np.int8)
    sum_all = sum_sat = 0.0
    for lev in range(bounds.size - 1):
        lo, hi = int(bounds[lev]), int(bounds[lev + 1])
        if lo == hi:
            continue
        e = e_lv[lo:hi]
        pk = pk_lv[lo:hi]
        d = cur[pk]
        if state is None:
            solve(e, d)
        else:
            st = state[pk]
            live = np.flatnonzero(st < _DROPPED)
            lost: np.ndarray | None = None
            if live.size:  # a level may hold only retired visits
                d_live = d[live]
                lost = solve(e[live], d_live)
                d[live] = d_live
            if lost is not None:
                hit = live[lost]
                edge_drops += np.bincount(
                    e[hit[st[hit] == 1]], minlength=num_edges
                )
                state[pk[hit]] |= _DROPPED
        cur[pk] = forward(d)
        clipped = np.minimum(d, clip_hi)
        clipped -= clip_lo
        np.maximum(clipped, 0, out=clipped)
        sum_all += clipped.sum().item()
        if sat_arr is not None:
            sum_sat += clipped[sat_arr[e]].sum().item()
    drops = None
    if state is not None:
        drops = (state < _DROPPED, edge_drops)
    return _Sweep(cur, sum_all, sum_sat, sat_hops, drops)


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
    """Vectorized deterministic FIFO kernel (max-plus solve), with
    per-edge service, utilization and tail-drop caps as options."""
    if track_number_distribution:
        _reject("track_number_distribution", "fifo")
    if track_maxima:
        _reject("track_maxima", "fifo")
    caps = sim._edge_caps
    capped = caps is not None
    rng = make_rng(
        sim.seed, engine="finite" if capped else "fifo", backend="numpy"
    )
    t_end = warmup + horizon
    gap_scale = 1.0 / sim.total_rate
    num_nodes = sim.topology.num_nodes
    num_edges = sim.topology.num_edges
    # Uniform service keeps the scalar solve; per-edge service times are
    # gathered per visit.
    c = (
        sim._service_times[0]
        if sim._uniform_service
        else np.asarray(sim._service_times)
    )
    cap = np.asarray(caps, dtype=np.float64) if capped else None
    sat = sim._sat
    sat_arr = None if sat is None else np.asarray(sat, dtype=bool)
    util = np.zeros(num_edges) if track_utilization else None

    def solve(e: np.ndarray, x: np.ndarray) -> np.ndarray | None:
        lost = _fifo_departures(e, x, c, num_edges, cap)
        if util is not None:
            if lost is not None:
                e, x = e[~lost], x[~lost]
            # Each served visit keeps its edge busy over [d - c_e, d].
            start = x - (c[e] if isinstance(c, np.ndarray) else c)
            busy = np.minimum(x, t_end)
            busy -= np.maximum(start, warmup)
            np.maximum(busy, 0.0, out=busy)
            util[:] += np.bincount(e, weights=busy, minlength=num_edges)
        return lost

    # ---- draws (see the module docstring's draw-order spec) ----
    blocks = []
    offset = 0.0
    while offset < t_end:
        blk = offset + np.cumsum(rng.exponential(size=_BLOCK)) * gap_scale
        offset = float(blk[-1])
        blocks.append(blk)
    r_t = np.concatenate(blocks)
    del blocks
    r_t = r_t[r_t < t_end]  # arrivals at/after the horizon are discarded
    srcs, dsts = draw_ids(sim, r_t.size, rng)

    measured = r_t >= warmup
    generated = int(measured.sum())
    zero = srcs == dsts
    zero_ts = r_t[measured & zero]

    nz = ~zero
    a_t = r_t[nz]  # routed packets' creation times
    mr = measured[nz]
    srcs, dsts = srcs[nz], dsts[nz]
    del r_t, measured, zero, nz
    visits, lens = _draw_paths(sim, srcs, dsts, rng)
    del srcs, dsts

    # ---- solve ----
    sweep = _sweep_levels(
        sim,
        visits,
        lens,
        a_t,
        solve,
        lambda d: d,
        warmup,
        t_end,
        sat_arr,
        mr if capped else None,
    )
    d_final, sum_r, sum_rs, sat_hops = sweep[:4]

    # ---- exact window-overlap statistics ----
    int_n = float(
        np.maximum(
            np.minimum(d_final, t_end) - np.maximum(a_t, warmup), 0.0
        ).sum()
    )
    # Hop h's remaining-work unit exists over [a, d_h]; the sweep summed
    # its overlap with [warmup, t_end] as if every packet were born
    # before the warmup, so packets born inside the window give back
    # (a - warmup) per hop. (Products summed, not a float ``@``: that
    # goes to BLAS, whose threads may take every core.)
    lag = a_t[mr] - warmup
    int_r = sum_r - float((lens[mr] * lag).sum())
    int_rs = (
        0.0 if sat_hops is None else sum_rs - float((sat_hops[mr] * lag).sum())
    )
    in_flight = int((d_final >= t_end).sum())

    dropped = 0
    node_drops = None
    done = mr  # measured routed packets that complete
    if sweep.drops is not None:
        survived, edge_drops = sweep.drops
        done = mr & survived
        node_drops = np.bincount(
            sim._edge_tail, weights=edge_drops, minlength=num_nodes
        ).astype(np.int64)
        dropped = int(edge_drops.sum())

    delay_acc = TimeBatchAccumulator(warmup, t_end)
    routed_delay = d_final - a_t
    delay_acc.add_batch(a_t[done], routed_delay[done])
    delay_acc.add_batch(zero_ts, np.zeros(zero_ts.size))

    delays = None
    if collect_delays:
        comp_t = np.concatenate((zero_ts, d_final[done]))
        vals = np.concatenate((np.zeros(zero_ts.size), routed_delay[done]))
        delays = vals[np.argsort(comp_t, kind="stable")]

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        # Every measured packet that is not dropped completes after drain.
        completed=generated - dropped,
        zero_hop=zero_ts.size,
        in_flight_at_end=in_flight,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat_arr is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        utilization=util / horizon if util is not None else None,
        delays=delays,
        dropped=dropped,
        node_drops=node_drops,
    )


def run_slotted(
    sim: Any,
    warmup_slots: int,
    horizon_slots: int,
    *,
    track_maxima: bool = False,
    collect_delays: bool = False,
) -> SimResult:
    """Vectorized slotted kernel (integer max-plus over slots)."""
    if track_maxima:
        _reject("track_maxima", "slotted")
    rng = make_rng(sim.seed, engine="slotted", backend="numpy")
    tau = sim.tau
    warmup = warmup_slots * tau
    horizon = horizon_slots * tau
    t_end_slot = warmup_slots + horizon_slots
    batch_mean = sim.total_rate * tau
    num_edges = sim.topology.num_edges
    sat = sim._sat
    sat_arr = None if sat is None else np.asarray(sat, dtype=bool)

    # ---- draws: Poisson count blocks, then one batch of everything ----
    counts = np.empty(t_end_slot, dtype=np.int64)
    drawn = 0
    while drawn < t_end_slot:
        size = min(_BLOCK, t_end_slot - drawn)
        counts[drawn : drawn + size] = rng.poisson(batch_mean, size=size)
        drawn += size
    slots = np.repeat(np.arange(t_end_slot, dtype=np.int32), counts)
    del counts
    srcs, dsts = draw_ids(sim, slots.size, rng)

    measured = slots >= warmup_slots
    generated = int(measured.sum())
    zero = srcs == dsts
    zero_ts = slots[measured & zero] * tau

    nz = ~zero
    a_s = slots[nz]  # routed packets' generation slots
    mr = measured[nz]
    srcs, dsts = srcs[nz], dsts[nz]
    del slots, measured, zero, nz
    visits, lens = _draw_paths(sim, srcs, dsts, rng)
    del srcs, dsts

    # ---- solve ----
    # The sweep carries join keys 2 * slot + is_new: a packet joins its
    # first edge in its generation slot as a new arrival; a hop
    # delivered at the end of slot d makes the next one a mover
    # eligible in slot d + 1, key 2 * d + 2.
    last = t_end_slot - 1
    keys, sum_r, sum_rs, sat_hops = _sweep_levels(
        sim,
        visits,
        lens,
        2 * a_s + 1,
        lambda e, k: _slot_departures(e, k, num_edges),
        lambda d: 2 * d + 2,
        warmup_slots - 1,
        last,
        sat_arr,
    )[:4]
    d_final = (keys >> 1) - 1  # the last hop's key is 2 * d_final + 2

    # ---- inclusive-slot window statistics ----
    # A packet occupies the system during slots [a, d_final] (it leaves
    # at the end of slot d_final); hop h's remaining-work unit exists
    # during slots [a, d_h]. The reference loop integrates state over
    # measuring slots [W, L], tau per slot; the sweep counted each hop's
    # slots in [W, L] as if every packet were born before W, so packets
    # born inside the window give back (a - W) slots per hop.
    int_n = tau * float(
        np.maximum(
            np.minimum(d_final, last) - np.maximum(a_s, warmup_slots) + 1, 0
        ).sum()
    )
    lag = a_s[mr] - warmup_slots
    int_r = tau * (sum_r - int(lens[mr] @ lag))
    int_rs = (
        0.0 if sat_hops is None else tau * (sum_rs - int(sat_hops[mr] @ lag))
    )
    in_flight = int((d_final >= last).sum())

    delay_acc = TimeBatchAccumulator(warmup, warmup + horizon)
    birth_t = a_s * tau
    routed_delay = (d_final + 1 - a_s) * tau  # arrival is end of slot d
    delay_acc.add_batch(birth_t[mr], routed_delay[mr])
    delay_acc.add_batch(zero_ts, np.zeros(zero_ts.size))

    delays = None
    if collect_delays:
        comp_t = np.concatenate((zero_ts, (d_final[mr] + 1) * tau))
        vals = np.concatenate((np.zeros(zero_ts.size), routed_delay[mr]))
        delays = vals[np.argsort(comp_t, kind="stable")]

    mean_number = int_n / horizon
    summary = delay_acc.summary()
    return SimResult(
        warmup=warmup,
        horizon=horizon,
        seed=sim.seed,
        generated=generated,
        completed=generated,  # every measured packet completes after drain
        zero_hop=zero_ts.size,
        in_flight_at_end=in_flight,
        mean_number=mean_number,
        mean_remaining=int_r / horizon,
        mean_remaining_saturated=(
            int_rs / horizon if sat_arr is not None else float("nan")
        ),
        mean_delay=summary.mean,
        delay_half_width=summary.half_width,
        mean_delay_littles=mean_number / sim.total_rate,
        total_rate=sim.total_rate,
        delays=delays,
    )


def _draw_paths(
    sim: Any,
    srcs: np.ndarray,
    dsts: np.ndarray,
    rng: np.random.Generator,
) -> tuple[list[np.ndarray], np.ndarray]:
    """The packets' visit array, in a one-element list that hands its only
    reference to :func:`_sweep_levels`, and their path lengths."""
    visit_edge, lens = route_packets(sim.router, srcs, dsts, rng)
    return [visit_edge], lens
