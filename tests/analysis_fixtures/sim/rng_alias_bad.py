"""Bad fixture for the rng-discipline alias check (never imported, only
parsed): every uncalled reference to a Generator draw method is flagged,
since the scalar draws made through the alias would go unseen."""

import numpy as np


def aliased_draws(rng, cdf, means):
    draw = rng.exponential  # bound to a local
    probe: object = rng.random  # annotated binding
    gaps = [draw(m) for m in means]  # scalar draws the call check misses
    src = int(np.searchsorted(cdf, probe(), side="right"))
    if (poisson := rng.poisson) is not None:  # walrus binding
        gaps.append(poisson(2.0))
    normal, std = rng.normal, rng.standard_exponential  # tuple binding
    return gaps, src, normal, std, list(map(rng.exponential, means))
