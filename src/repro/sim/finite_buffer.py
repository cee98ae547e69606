"""Finite-buffer FIFO loss engine: the standard model with bounded queues.

The paper's bounds all assume infinite buffers; real routers do not.
This engine reproduces :class:`repro.sim.fifo_network.NetworkSimulation`
— same service laws, same hot-path architecture — but gives every node a
finite amount of waiting room and *drops* any packet that arrives to a
full buffer, so loss rates and blocking can be measured against the
infinite-buffer baseline (the loss-vs-buffer-size experiment,
:mod:`repro.experiments.finite_buffer`, sweeps exactly that).

Semantics
---------
``buffer_size`` is the waiting room per outgoing edge, *excluding* the
packet in service: a scalar applies to every node, a per-node sequence
gives node ``v``'s value to every edge leaving ``v``, and ``None`` means
infinite buffers. ``buffer_size=0`` is the pure-loss system — a packet
that finds its next edge busy is dropped on the spot. A drop removes the
packet immediately (mid-route drops do not retry, re-route or occupy the
buffer), mirroring tail-drop routers. Drop accounting follows the same
measurement convention as every other statistic: only *measured* packets
(born inside the window) count, so a buffer that is full at the
warmup boundary contributes no phantom drops, and after the drain
``completed + dropped == generated`` exactly. ``mean_delay`` averages
over surviving (completed) packets — with tiny buffers it can *drop*
as K shrinks, because the packets that would have waited longest are
exactly the ones lost.

Hot path and bit-identity
-------------------------
This class adds no loop of its own. It sets ``_edge_caps`` and
inherits :meth:`NetworkSimulation.run`, so every run executes the FIFO
kernel of the selected backend. On ``backend="python"``
(:func:`repro.sim.kernels.python_backend.run_fifo`) every capped run
takes the kernel's heap loop, which applies tail-drop admission at each
enqueue onto a busy edge and counts the drops. With
``buffer_size=None`` there are no caps, so the run *is* a FIFO run,
bit-identical to ``engine="fifo"`` and pinned by the ``finite_none_*``
golden cells. With buffers too large to ever fill, the capped heap loop
performs the exact same draws, event ordering and float accumulation
as an uncapped run on either event loop (the admission test consumes no
randomness), which the regression tests pin as well; an uncapped plain
run solved on the kernel's level path makes the same draws and agrees
with it to rounding. A capped run
records ``engine="finite"`` in its rngsan trace.

On ``backend="numpy"`` (deterministic service, feedforward routes)
the max-plus kernel (:func:`repro.sim.kernels.numpy_backend.run_fifo`)
decides admission per edge from the last admitted departure: an
arrival at ``a`` finds ``ceil((d_last - a) / c_e)`` packets, so it is
dropped iff that is at least ``K + 1``. The scan over arrival rank runs
vectorized across the edges of one level, and a dropped packet's later
hops are retired. Seed-stable and distribution-equivalent to the
python loops (loss, delay and E[N] parity tests, and the
``md1k-loss`` validation check), not draw-order-identical; with
buffers too large to fill it equals the uncapped numpy run exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.routing.base import Router
from repro.routing.destinations import DestinationDistribution
from repro.sim.fifo_network import NetworkSimulation


def resolve_buffer_size(
    buffer_size: int | Sequence[int] | None, num_nodes: int
) -> list[int] | None:
    """Validate ``buffer_size`` into a per-node waiting-room list.

    ``None`` means infinite buffers; a scalar int broadcasts over every
    node; a sequence must carry one non-negative int per node.
    """
    if buffer_size is None:
        return None
    if isinstance(buffer_size, bool):
        raise ValueError(f"buffer_size must be an int, got {buffer_size!r}")
    if np.isscalar(buffer_size):
        k = buffer_size
        if not float(k).is_integer() or int(k) < 0:
            raise ValueError(
                f"buffer_size must be a non-negative int, got {buffer_size!r}"
            )
        return [int(k)] * num_nodes
    sizes = list(buffer_size)
    if len(sizes) != num_nodes:
        raise ValueError(
            f"per-node buffer_size must have {num_nodes} entries, "
            f"got {len(sizes)}"
        )
    out: list[int] = []
    for v in sizes:
        if isinstance(v, bool) or not float(v).is_integer() or int(v) < 0:
            raise ValueError(
                f"per-node buffer_size entries must be non-negative ints, "
                f"got {v!r}"
            )
        out.append(int(v))
    return out


class FiniteBufferNetworkSimulation(NetworkSimulation):
    """FIFO network with per-node finite buffers and tail-drop loss.

    Parameters mirror :class:`repro.sim.NetworkSimulation`, plus:

    buffer_size:
        Waiting room per outgoing edge, excluding the packet in service.
        A scalar int broadcasts over all nodes; a per-node sequence gives
        node ``v``'s room to each of its outgoing edges; ``None``
        (the default) reproduces the infinite-buffer FIFO engine
        bit-for-bit. Results of capped runs carry ``dropped`` and
        ``node_drops``; uncapped runs have ``node_drops=None``.
    """

    def __init__(
        self,
        router: Router,
        destinations: DestinationDistribution,
        node_rate: float | Sequence[float],
        *,
        buffer_size: int | Sequence[int] | None = None,
        **kwargs,
    ) -> None:
        super().__init__(router, destinations, node_rate, **kwargs)
        topology = router.topology
        per_node = resolve_buffer_size(buffer_size, topology.num_nodes)
        self.buffer_size = buffer_size
        self._edge_tail: list[int] = topology.edge_source.tolist()
        if per_node is None:
            return
        # Per-edge waiting-room cap: node caps fanned onto out-edges.
        self._edge_caps = [per_node[u] for u in self._edge_tail]
