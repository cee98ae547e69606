"""Shared-memory cell snapshots for the replication fan-out.

The replication layer fans thousands of independent ``(cell, seed)``
replications over a warm process pool (:mod:`repro.util.workerpool`).
Before this module every pool task carried its whole context in the
pickled job payload — spec, calibrated rates, saturation mask — and every
worker rebuilt the cell's network *and re-routed every path* from
scratch. This module moves the read-only cell state into
``multiprocessing.shared_memory`` so it crosses the process boundary
exactly once per batch:

* the **path arena** ``int32`` edge table plus the complete dense
  ``(offset, length)`` path tables (:meth:`PathCache.table_snapshot`),
  warmed in the parent by :func:`warm_cell` for networks up to
  :data:`PRECOMPUTE_NODE_LIMIT` nodes — workers adopt a fully routed
  cache instead of rebuilding one per process;
* the **pinned per-source rates and their CDF** (non-scalar cells) and
  the **saturated-edge mask** — the larger resolved-cell arrays;
* one pickled **registry** describing the batch (specs plus array
  locators), appended to the same block, so a job payload shrinks to a
  ``(token, cell_index, position, seed_chunk)`` tuple of scalars.

Workers attach the block zero-copy (`SharedMemory(name=...)`` maps the
same pages; the only copy in the hand-off is materialising the arena's
Python list mirror once per worker). Attachment is memoized per batch
token and cells are memoized per cell identity, so a warm worker reuses
both across every ``run_many`` call of a sweep.

Cleanup contract
----------------
The parent is the single owner: :class:`SharedCellBatch` creates the
block and must be closed via :meth:`SharedCellBatch.close` (or the
:func:`publish_cells` context manager), which closes *and unlinks* it.
Workers only ever attach and close; POSIX keeps attached mappings valid
after the unlink, and because the parent unlinks every published name no
resource-tracker "leaked shared_memory" warnings are emitted at exit.

Cache adoption never changes simulation output: cache state is
RNG-neutral by the path-cache bit-identity contract, so a worker running
on an adopted snapshot is bit-identical to the serial in-process run —
pinned by the cross-engine parity tests in
``tests/test_sim_sharedcells.py``.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any, Iterator, Sequence

import numpy as np

from repro.routing.pathcache import (
    PathCache,
    RandomizedGreedyPathCache,
    path_cache_for,
)
from repro.sim.registry import get_engine
from repro.sim.result import SimResult
from repro.util.validation import pinned_cdf

#: Largest network (node count) whose path cache the parent precomputes
#: and publishes in full. ``n*n`` dense tables plus the arena stay small
#: here (a 128-node mesh is ~16k pairs); larger networks keep the lazy
#: per-worker cache — their simulations touch a vanishing fraction of the
#: pair space, so eager routing would cost more than it saves.
PRECOMPUTE_NODE_LIMIT = 128

#: Byte alignment for arrays packed into the shared block.
_ALIGN = 64


# ----------------------------------------------------------------------
# Per-process (network, path cache) memo — used by the parent when
# publishing and by the serial path; workers keep their own copy of the
# module (fork) and therefore their own memo.

_NETWORK_MEMO: OrderedDict = OrderedDict()
_NETWORK_MEMO_MAX = 8


def cell_key(spec: Any) -> tuple:
    """The cell identity that decides (network, cache) shareability: the
    scenario, its size and its parameters. Engines and engine params
    share the entry — the network does not depend on them, and a path
    cache never influences results."""
    return (spec.scenario, spec.n, spec.params)


def cell_network(spec: Any) -> tuple:
    """The (network, path cache) for a cell, memoized per process.

    Replications of one cell are separate pool tasks; without the memo
    each task would rebuild the scenario network *and* re-route every
    path from scratch. A path cache only grows and never influences
    results, so sharing it across same-cell replications — and across
    the engines and engine params of one scenario (:func:`cell_key`) —
    is safe.
    """
    from repro.scenarios import build_network  # late: scenarios imports sim

    key = cell_key(spec)
    ent = _NETWORK_MEMO.get(key)
    if ent is None:
        net = build_network(spec.scenario, spec.n, **spec.params_dict)
        ent = (net, path_cache_for(net.router))
        _NETWORK_MEMO[key] = ent
        if len(_NETWORK_MEMO) > _NETWORK_MEMO_MAX:
            _NETWORK_MEMO.popitem(last=False)
    else:
        _NETWORK_MEMO.move_to_end(key)
    return ent


def warm_cell(spec: Any) -> tuple:
    """Parent-side warm-up: build the cell and precompute its path cache.

    Precomputation is bounded by :data:`PRECOMPUTE_NODE_LIMIT` and only
    attempted on caches that support it; topologies whose pair space is
    partial (e.g. butterfly input-to-output routing) raise out of
    ``precompute_all`` and simply stay lazy.
    """
    net, cache = cell_network(spec)
    if (
        isinstance(cache, (PathCache, RandomizedGreedyPathCache))
        and not cache.complete
        and net.router.topology.num_nodes <= PRECOMPUTE_NODE_LIMIT
    ):
        try:
            cache.precompute_all()
        except ValueError:
            pass  # partial pair space: keep the lazy per-worker cache
    return net, cache


def _cache_snapshot(cache: Any) -> dict | None:
    """The publishable array set of a *complete* path cache, else None."""
    if isinstance(cache, PathCache):
        tab = cache.table_snapshot()
        if tab is None:
            return None
        return {
            "kind": "deterministic",
            "edges": cache.arena.as_array(),
            "off": tab[0],
            "len": tab[1],
        }
    if isinstance(cache, RandomizedGreedyPathCache):
        row = cache.row_first.table_snapshot()
        col = cache.col_first.table_snapshot()
        if row is None or col is None:
            return None
        return {
            "kind": "randomized",
            "edges": cache.arena.as_array(),
            "row_off": row[0],
            "row_len": row[1],
            "col_off": col[0],
            "col_len": col[1],
        }
    return None  # SampledPathInterner etc.: per-packet sampling anyway


class _Packer:
    """Accumulates arrays for one contiguous shared block."""

    def __init__(self) -> None:
        self.arrays: list[tuple[int, np.ndarray]] = []
        self.size = 0

    def add(self, arr: np.ndarray) -> tuple[int, str, tuple[int, ...]]:
        """Reserve space for ``arr``; returns its ``(offset, dtype, shape)``
        locator (the registry's array reference vocabulary)."""
        arr = np.ascontiguousarray(arr)
        off = -self.size % _ALIGN + self.size
        self.size = off + arr.nbytes
        self.arrays.append((off, arr))
        return (off, arr.dtype.str, arr.shape)


class SharedCellBatch:
    """Parent-side publisher: one shared block for a batch of cells.

    Parameters
    ----------
    entries:
        ``(spec, node_rate, mask)`` triples — one per cell, already
        resolved by :func:`repro.scenarios.resolve_cell`.

    Attributes
    ----------
    token:
        The picklable handle workers use to attach: ``(block name,
        registry offset, registry length)``. This plus two integers is
        the *entire* per-job payload.
    """

    def __init__(self, entries: Sequence[tuple]) -> None:
        packer = _Packer()
        cells: list[dict] = []
        for spec, node_rate, mask in entries:
            _net, cache = warm_cell(spec)
            meta: dict = {"spec": spec}
            if np.isscalar(node_rate):
                meta["node_rate"] = float(node_rate)
            else:
                rates = np.asarray(node_rate, dtype=np.float64)
                meta["rates"] = packer.add(rates)
                meta["source_cdf"] = packer.add(pinned_cdf(rates))
            if mask is not None:
                meta["mask"] = packer.add(np.asarray(mask))
            snap = _cache_snapshot(cache)
            if snap is not None:
                meta["cache"] = {
                    k: (v if k == "kind" else packer.add(v))
                    for k, v in snap.items()
                }
            cells.append(meta)
        registry = pickle.dumps(
            {"cells": cells}, protocol=pickle.HIGHEST_PROTOCOL
        )
        reg_off = -packer.size % _ALIGN + packer.size
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, reg_off + len(registry))
        )
        buf = self._shm.buf
        for off, arr in packer.arrays:
            dst = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=off)
            dst[...] = arr
            del dst  # release the exported buffer before any close()
        buf[reg_off : reg_off + len(registry)] = registry
        self.num_cells = len(cells)
        self.token = (self._shm.name, reg_off, len(registry))

    def close(self) -> None:
        """Close *and unlink* the block (idempotent).

        Unlinking is what keeps the resource tracker quiet: the name is
        unregistered, workers' still-open attachments stay valid until
        they close or exit, and the pages are freed with the last close.
        """
        if self._shm is None:
            return
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink race
            pass
        self._shm = None


@contextmanager
def publish_cells(entries: Sequence[tuple]) -> Iterator[SharedCellBatch]:
    """Publish a batch of resolved cells; always unlink on the way out."""
    batch = SharedCellBatch(entries)
    try:
        yield batch
    finally:
        batch.close()


# ----------------------------------------------------------------------
# Worker side: attach, materialise, run.

_ATTACHED: OrderedDict = OrderedDict()
_ATTACHED_MAX = 4


class _AttachedBatch:
    """A worker's zero-copy view of one published batch."""

    def __init__(self, token: tuple) -> None:
        name, reg_off, reg_len = token
        self.shm = shared_memory.SharedMemory(name=name)
        self.registry = pickle.loads(
            bytes(self.shm.buf[reg_off : reg_off + reg_len])
        )
        #: ``(memo key, memo entry)`` of every cell adopted from this block.
        self.adopted: list[tuple] = []

    def array(self, aref: tuple) -> np.ndarray:
        """Materialise an array locator as a read-only shared view."""
        off, dtype, shape = aref
        arr = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=off)
        arr.setflags(write=False)
        return arr

    def release(self) -> None:
        # numpy views keep no buffer export, so closing unmaps the pages
        # under them: first forget the memoized cells that view them.
        for key, ent in self.adopted:
            if _NETWORK_MEMO.get(key) is ent:
                del _NETWORK_MEMO[key]
        self.adopted.clear()
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - cache still holds views
            # A memoized cell still references the block; the mapping is
            # reclaimed when the worker exits (the parent has unlinked
            # the name, so nothing leaks system-wide).
            pass


def _attach(token: tuple) -> _AttachedBatch:
    batch = _ATTACHED.get(token)
    if batch is None:
        batch = _ATTACHED[token] = _AttachedBatch(token)
        if len(_ATTACHED) > _ATTACHED_MAX:
            _, old = _ATTACHED.popitem(last=False)
            old.release()
    else:
        _ATTACHED.move_to_end(token)
    return batch


def _adopt_cell(spec: Any, meta: dict, batch: _AttachedBatch) -> tuple:
    """Build a cell's network and adopt its published cache snapshot."""
    from repro.scenarios import build_network  # late: scenarios imports sim

    key = cell_key(spec)
    ent = _NETWORK_MEMO.get(key)
    if ent is not None:
        _NETWORK_MEMO.move_to_end(key)
        return ent
    net = build_network(spec.scenario, spec.n, **spec.params_dict)
    cache = path_cache_for(net.router)
    snap = meta.get("cache")
    if snap is not None and len(cache.arena) == 0:
        if snap["kind"] == "deterministic":
            cache.arena.adopt_array(batch.array(snap["edges"]))
            cache.adopt_table(batch.array(snap["off"]), batch.array(snap["len"]))
        else:  # randomized: two order tables on one shared arena
            cache.arena.adopt_array(batch.array(snap["edges"]))
            cache.row_first.adopt_table(
                batch.array(snap["row_off"]), batch.array(snap["row_len"])
            )
            cache.col_first.adopt_table(
                batch.array(snap["col_off"]), batch.array(snap["col_len"])
            )
    ent = (net, cache)
    if snap is not None:
        batch.adopted.append((key, ent))
    _NETWORK_MEMO[key] = ent
    if len(_NETWORK_MEMO) > _NETWORK_MEMO_MAX:
        _NETWORK_MEMO.popitem(last=False)
    return ent


def run_seed_chunk(job: tuple) -> tuple[int, int, list[SimResult]]:
    """Run one cell's seed chunk from a published batch (pool worker).

    ``job`` is ``(token, cell_index, position, seeds)`` — scalars and a
    small tuple only; everything heavy is read from shared memory. The
    return is tagged with ``(cell_index, position)`` so the streaming
    fold can slot results back into ``spec.seeds`` order regardless of
    completion order.
    """
    token, cell_idx, pos, seeds = job
    batch = _attach(token)
    meta = batch.registry["cells"][cell_idx]
    spec = meta["spec"]
    node_rate = (
        meta["node_rate"] if "node_rate" in meta else batch.array(meta["rates"])
    )
    mask = batch.array(meta["mask"]) if "mask" in meta else None
    net, cache = _adopt_cell(spec, meta, batch)
    run_cell = get_engine(spec.engine).run_cell
    return (
        cell_idx,
        pos,
        [run_cell(spec, seed, node_rate, mask, net, cache) for seed in seeds],
    )
