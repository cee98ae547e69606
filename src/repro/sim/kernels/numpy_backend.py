"""Vectorized kernels: whole-trajectory max-plus solves over the arena.

Instead of replaying the event loop, these kernels exploit the structure
of the two regimes the python backend's hot loops already isolate:

* **deterministic FIFO service** — the per-edge Lindley recurrence in
  closed form, one segmented cumulative maximum per edge, solved level
  by level over the router's edge levels by the sweep in
  :mod:`repro.sim.kernels.levels`, which the python kernel's level path
  shares. Uniform service (the standard model) keeps the service time a
  scalar; per-edge rates (Theorem 15's allocation) scale each visit by
  its own edge's ``c_e``;
* **slotted unit transmissions** — the integer analogue
  ``d_k = max(g_k, d_{k-1} + 1) = k + cummax(g_j - j)`` over eligibility
  slots ``g``, on the same level sweep.

The levels are the router's closed form
(:meth:`~repro.routing.base.BaseRouter.edge_levels`); the engines reject
a router without them (torus, randomized, tabulated) at construction,
before any draw, with a ``ValueError`` pointing back to
``backend='python'`` (:func:`~repro.sim.kernels.check_numpy_router`).

Visits come straight from the router
(:func:`~repro.routing.pathcache.route_packets`, no path cache): the
concatenation of every routed packet's path. The fifo options
(utilization, tail-drop caps) are described in
:mod:`repro.sim.kernels.levels`.

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

Unsupported options raise ``ValueError`` rather than silently diverge:
``track_number_distribution`` and ``track_maxima`` (order statistics
need the event interleaving) and exponential fifo service (rejected at
construction).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.routing.pathcache import route_packets
from repro.sim.enginecommon import draw_ids
from repro.sim.kernels.levels import (
    _I16_MAX,
    _solve_runs,
    _sorted_by_edge_then,
    _sweep_levels,
    solve_fifo,
)
from repro.sim.measurement import TimeBatchAccumulator
from repro.sim.result import SimResult
from repro.sim.rng import make_rng

_BLOCK = 8192


def _reject(option: str, engine: str) -> None:
    raise ValueError(
        f"backend='numpy' does not support {option} on the {engine} "
        f"engine (it needs the event interleaving); use backend='python'"
    )


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
    rng = make_rng(
        sim.seed,
        engine="finite" if sim._edge_caps is not None else "fifo",
        backend="numpy",
    )
    t_end = warmup + horizon
    gap_scale = 1.0 / sim.total_rate

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
    arrivals = [r_t, srcs, dsts]
    del r_t, srcs, dsts
    return solve_fifo(
        sim,
        warmup,
        horizon,
        arrivals,
        lambda s, d: _draw_paths(sim, s, d, rng),
        track_utilization=track_utilization,
        collect_delays=collect_delays,
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
    visits, lens, edge_lvl = _draw_paths(sim, srcs, dsts, rng)
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
        edge_lvl,
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
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The packets' visit array, in a one-element list that hands its only
    reference to :func:`_sweep_levels`, their path lengths, and the
    router's closed-form edge levels."""
    visit_edge, lens = route_packets(sim.router, srcs, dsts, rng)
    return [visit_edge], lens, sim.router.edge_levels()
