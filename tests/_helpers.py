"""Shared helpers for the engine regression tests."""

from __future__ import annotations

import numpy as np


class AlwaysNodeZero:
    """Destination law sending every packet to node 0 (src 0 is zero-hop)."""

    num_nodes = 2

    def sample(self, src, rng):
        return 0

    def pmf(self, src):
        v = np.zeros(2)
        v[0] = 1.0
        return v


class BoundaryRNG:
    """Wrap a Generator so its first ``random`` draw lands on 0.0.

    A bare ``random()`` returns 0.0; a batched ``random(k)`` returns its
    block with 0.0 in the first element. A draw landing exactly on a CDF
    boundary is measure-zero, so the regressions for the ``side='left'``
    source-selection bug force it, in scalar and batched source draws.
    """

    def __init__(self, inner):
        self._inner = inner
        self._first = True

    def random(self, *args, **kwargs):
        if not self._first:
            return self._inner.random(*args, **kwargs)
        self._first = False
        if not args and not kwargs:
            return 0.0
        out = self._inner.random(*args, **kwargs)
        out[0] = 0.0
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)
