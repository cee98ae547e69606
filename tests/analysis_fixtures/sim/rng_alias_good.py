"""Good fixture for the rng-discipline alias check (never imported, only
parsed): draw methods are called in place, and aliasing anything that is
not a Generator draw method stays allowed."""

import numpy as np


def in_place_draws(rng, cdf, heap):
    push = heap.append  # plain list method: fine to bind
    searchsorted = np.ndarray.searchsorted  # not an rng receiver
    spawn = rng.spawn  # a Generator method that is not a draw
    gaps = rng.exponential(1.0, size=64)
    push(gaps[0])
    src = int(searchsorted(cdf, rng.random(), side="right"))
    return src, spawn
