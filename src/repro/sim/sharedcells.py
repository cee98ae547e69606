"""Shared-memory cell registries for the replication fan-out.

The replication layer fans thousands of independent ``(cell, seed)``
replications over a warm process pool (:mod:`repro.util.workerpool`).
Per batch, the parent pickles the resolved cells — one ``(spec,
node_rate, mask)`` tuple per cell, exactly what the serial path runs —
into one ``multiprocessing.shared_memory`` block, so a job payload is a
``(token, cell_index, position, seed_chunk)`` tuple of scalars however
many cells, seeds or per-source rates the batch carries.

Workers warm their own path caches. A worker maps the block only while
it unpickles the registry, closes it at once and keeps the few most
recent registries by token. It then builds each cell's ``(network, path
cache)`` through its per-process memo with :func:`warm_cell`, which
routes every pair in bulk for networks up to
:data:`PRECOMPUTE_NODE_LIMIT` nodes whose runs read the cache — a few
milliseconds per cell, paid once per worker and cell, so no routed cache
crosses the process boundary. Larger networks share no cache (see
:func:`cell_network`).

Cleanup contract
----------------
The parent is the single owner: :class:`SharedCellBatch` creates the
block and must be closed via :meth:`SharedCellBatch.close` (or the
:func:`publish_cells` context manager), which closes *and unlinks* it.
Workers only ever attach, copy the registry out and close; no worker
object holds a view into the block. The parent unlinks every published
name, and the workers register their attaches with the parent's
resource tracker (:class:`~repro.util.workerpool.WorkerPool` starts it
before it forks them), so the unlink reaches the one tracker that saw
the name and no "leaked shared_memory" warning is emitted at exit.

Path-cache state never changes simulation output (the path-cache
bit-identity contract), so a worker running on the cache it warmed
itself is bit-identical to the serial in-process run — pinned by the
cross-engine parity tests in ``tests/test_sim_sharedcells.py``.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from contextlib import contextmanager
from multiprocessing import shared_memory
from typing import Any, Iterator, Sequence

from repro.routing.pathcache import (
    PathCache,
    RandomizedGreedyPathCache,
    path_cache_for,
)
from repro.sim.registry import get_engine
from repro.sim.result import SimResult

#: Largest network (node count) whose cell shares a path cache, which
#: :func:`warm_cell` precomputes in full. ``n*n`` dense tables plus the
#: arena stay small here (a 128-node mesh is ~16k pairs); larger networks
#: share none — their runs touch a vanishing fraction of the pair space,
#: so a shared memo mostly holds pairs no later run looks up.
PRECOMPUTE_NODE_LIMIT = 128


# ----------------------------------------------------------------------
# Per-process (network, path cache) memo — used by the serial path and
# by every pool worker; workers keep their own copy of the module (fork)
# and therefore their own memo.

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
    is safe. Past :data:`PRECOMPUTE_NODE_LIMIT` nodes the cache is
    ``None``: each run's engine resolves a private one, freed with the
    run, and only the network is shared.
    """
    from repro.scenarios import build_network  # late: scenarios imports sim

    key = cell_key(spec)
    ent = _NETWORK_MEMO.get(key)
    if ent is None:
        net = build_network(spec.scenario, spec.n, **spec.params_dict)
        small = net.router.topology.num_nodes <= PRECOMPUTE_NODE_LIMIT
        ent = (net, path_cache_for(net.router) if small else None)
        _NETWORK_MEMO[key] = ent
        if len(_NETWORK_MEMO) > _NETWORK_MEMO_MAX:
            _NETWORK_MEMO.popitem(last=False)
    else:
        _NETWORK_MEMO.move_to_end(key)
    return ent


def warm_cell(spec: Any, node_rate: Any, mask: Any) -> tuple:
    """Build the cell and precompute its path cache (pool workers).

    Precomputation is bounded by :data:`PRECOMPUTE_NODE_LIMIT` (larger
    cells share no cache), only attempted on caches that support it, and
    skipped for cells whose runs never read the cache (the engine's
    ``reads_path_cache``: rushed cells, numpy cells, and python fifo and
    PS cells their level paths solve). Which path a run takes depends on
    its cell alone, so no run reads a cache this skipped. Topologies
    whose pair space is partial (e.g. butterfly input-to-output routing)
    raise out of ``precompute_all`` and simply stay lazy.
    """
    net, cache = cell_network(spec)
    if (
        isinstance(cache, (PathCache, RandomizedGreedyPathCache))
        and not cache.complete
        and get_engine(spec.engine).reads_path_cache(spec, node_rate, mask, net, cache)
    ):
        try:
            cache.precompute_all()
        except ValueError:
            pass  # partial pair space: keep the lazy cache
    return net, cache


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
        registry offset, registry length)``. The block holds only the
        pickled registry, so the offset is 0. This plus two integers is
        the *entire* per-job payload.
    """

    def __init__(self, entries: Sequence[tuple]) -> None:
        registry = pickle.dumps(list(entries), protocol=pickle.HIGHEST_PROTOCOL)
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(registry))
        )
        self._shm.buf[: len(registry)] = registry
        self.token = (self._shm.name, 0, len(registry))

    def close(self) -> None:
        """Close *and unlink* the block (idempotent).

        Unlinking is what keeps the resource tracker quiet: the name is
        unregistered, and the pages are freed with the last close.
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
# Worker side: read the registry, warm the cell, run.

_REGISTRIES: OrderedDict = OrderedDict()
_REGISTRIES_MAX = 4


def _registry(token: tuple) -> list[tuple]:
    """A batch's ``(spec, node_rate, mask)`` cells, unpickled once per
    process and token; the block is mapped only while it is read."""
    cells = _REGISTRIES.get(token)
    if cells is None:
        name, reg_off, reg_len = token
        shm = shared_memory.SharedMemory(name=name)
        try:
            cells = pickle.loads(bytes(shm.buf[reg_off : reg_off + reg_len]))
        finally:
            shm.close()
        _REGISTRIES[token] = cells
        if len(_REGISTRIES) > _REGISTRIES_MAX:
            _REGISTRIES.popitem(last=False)
    else:
        _REGISTRIES.move_to_end(token)
    return cells


def run_seed_chunk(job: tuple) -> tuple[int, int, list[SimResult]]:
    """Run one cell's seed chunk from a published batch (pool worker).

    ``job`` is ``(token, cell_index, position, seeds)`` — scalars and a
    small tuple only; the cell itself comes from the shared registry. The
    return is tagged with ``(cell_index, position)`` so the streaming
    fold can slot results back into ``spec.seeds`` order regardless of
    completion order.
    """
    token, cell_idx, pos, seeds = job
    spec, node_rate, mask = _registry(token)[cell_idx]
    net, cache = warm_cell(spec, node_rate, mask)
    run_cell = get_engine(spec.engine).run_cell
    return (
        cell_idx,
        pos,
        [run_cell(spec, seed, node_rate, mask, net, cache) for seed in seeds],
    )
