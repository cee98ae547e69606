"""Persistent warm worker pools for the replication fan-out.

A fresh ``multiprocessing.Pool`` per call would make every
``ReplicationEngine.run`` pay pool start-up, and a sweep of hundreds of
cells pay it hundreds of times, cold workers every time. This module
keeps pools *warm*:

* :class:`WorkerPool` — a lazily created, reusable process pool. The
  underlying ``multiprocessing.Pool`` is built on first parallel use and
  then reused for every subsequent ``map`` / ``imap_unordered`` call, so
  worker-local state (the replication layer's per-cell network and
  path-cache memo, the batch registries read by
  :mod:`repro.sim.sharedcells`) survives across calls. Context-managed;
  also usable as a long-lived module-level pool.
* :func:`get_pool` — the shared warm-pool registry, keyed by worker
  count. ``ReplicationEngine`` draws from here, so one warm
  pool serves a whole sweep. All registered pools are shut down at
  interpreter exit (and on demand via :func:`shutdown_pools`).
* :func:`resolve_processes` — the one place the worker count is decided:
  an explicit argument wins, else the ``REPRO_PROCESSES`` environment
  variable, else ``os.cpu_count()``. Inside a daemonic pool worker the
  answer is always 1 (nested pools are forbidden by multiprocessing, so
  nested fan-outs degrade to serial instead of crashing).

Environment
-----------
``REPRO_PROCESSES``
    Default worker count for every pool and fan-out that does not
    pass ``processes`` explicitly. Useful to pin CI to a known
    parallelism (``REPRO_PROCESSES=2``) or to force the serial path on
    single-core machines (``REPRO_PROCESSES=1``). Must be a positive
    integer; invalid values are ignored with the cpu-count fallback.

Serial calls (one worker, or at most one work item) never touch a pool:
they run in-process, bit-identical to the parallel path and debuggable.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
# Submodule import so the `mp.pool.Pool` annotations below resolve for
# the type checker; `mp` is the name the code uses.
import multiprocessing.pool  # replint: disable=dead-import
import os
from multiprocessing import resource_tracker
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

#: Start method: fork on POSIX (workers inherit the warm parent state —
#: imported modules, registries — for free), spawn where fork is absent.
_START_METHOD = "spawn" if os.name == "nt" else "fork"


def default_processes() -> int:
    """Number of worker processes to use by default (``cpu_count``, >=1)."""
    try:
        return max(1, os.cpu_count() or 1)
    except Exception:  # pragma: no cover - platform oddity
        return 1


def resolve_processes(processes: int | None = None) -> int:
    """Resolve a worker count: argument > ``REPRO_PROCESSES`` > cpu count.

    Returns 1 inside a daemonic pool worker regardless of the inputs:
    multiprocessing forbids daemonic processes from having children, so a
    nested fan-out must degrade to the (equivalent) serial path.
    """
    if mp.current_process().daemon:
        return 1
    if processes is not None:
        return max(1, int(processes))
    env = os.environ.get("REPRO_PROCESSES")
    if env:
        try:
            value = int(env)
        except ValueError:
            value = 0
        if value >= 1:
            return value
    return default_processes()


class WorkerPool:
    """A lazily created, reusable process pool.

    Parameters
    ----------
    processes:
        Worker count (resolved via :func:`resolve_processes`, so ``None``
        honours ``REPRO_PROCESSES``). A one-worker pool never creates OS
        processes — every call runs serially in-process.

    The pool is created on the first parallel call and reused afterwards;
    worker processes stay alive (warm imports, warm per-cell memos and
    batch registries) until :meth:`shutdown` or interpreter exit. Safe
    to use as a context manager for scoped lifetimes.
    """

    def __init__(self, processes: int | None = None) -> None:
        self.processes = resolve_processes(processes)
        self._pool: mp.pool.Pool | None = None

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> mp.pool.Pool:
        if self._pool is None:
            # Forked workers share the parent's resource tracker only if
            # it runs before they fork; otherwise each shared-memory
            # attach starts a tracker of its own, which the parent's
            # unlink never reaches, and it warns of a "leak" at exit.
            if _START_METHOD == "fork":
                resource_tracker.ensure_running()
            ctx = mp.get_context(_START_METHOD)
            self._pool = ctx.Pool(processes=self.processes)
        return self._pool

    @property
    def started(self) -> bool:
        """Whether the underlying OS pool has been created yet."""
        return self._pool is not None

    def shutdown(self) -> None:
        """Terminate the workers (idempotent). The pool may be used again
        afterwards — the next parallel call starts fresh workers."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    # -- mapping -------------------------------------------------------
    def map(
        self,
        func: Callable[[T], R],
        items: Iterable[T],
        *,
        chunksize: int = 1,
    ) -> list[R]:
        """Ordered map (results in input order), serial for trivial input."""
        work: Sequence[T] = list(items)
        if self.processes == 1 or len(work) <= 1:
            return [func(item) for item in work]
        return self._ensure_pool().map(func, work, chunksize=chunksize)

    def imap_unordered(
        self, func: Callable[[T], R], items: Iterable[T]
    ) -> Iterator[R]:
        """Stream results as workers finish them (arbitrary order).

        Callers that need input order tag their work items. The serial
        path yields in input order — a valid (and bit-identical)
        completion order.
        """
        work: Sequence[T] = list(items)
        if self.processes == 1 or len(work) <= 1:
            return (func(item) for item in work)
        return self._ensure_pool().imap_unordered(func, work)


#: Shared warm pools, keyed by worker count. One pool per distinct count
#: is enough: the replication fan-out and the experiment grids all ask
#: for "the machine's parallelism" and land on the same key.
_POOLS: dict[int, WorkerPool] = {}


def get_pool(processes: int | None = None) -> WorkerPool:
    """The shared warm pool for a worker count (created lazily, reused).

    Note the fork caveat: workers snapshot the parent at pool creation.
    Global mutations made *after* the pool first runs (e.g. registering a
    new scenario or engine) are invisible to the warm workers — call
    :func:`shutdown_pools` to force fresh workers after such mutations.
    """
    nproc = resolve_processes(processes)
    pool = _POOLS.get(nproc)
    if pool is None:
        pool = _POOLS[nproc] = WorkerPool(nproc)
    return pool


def shutdown_pools() -> None:
    """Shut down every shared warm pool (they restart lazily on demand)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)
