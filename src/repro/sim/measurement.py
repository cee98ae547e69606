"""Measurement helpers: batch means and time-batched accumulators.

Simulation outputs are autocorrelated, so naive standard errors are badly
optimistic. The classic remedy — and the one used here — is the method of
batch means: split the measurement window into a moderate number of equal
time batches, average within each batch, and treat the batch averages as
approximately independent samples. With 32-64 batches the residual
correlation is small for the horizons our experiments use, and the
half-width is honest enough for shape comparisons against the paper.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

#: Most pending pairs an interpreted kernel lets a
#: :class:`TimeBatchAccumulator` hold before it calls
#: :meth:`~TimeBatchAccumulator.fold`. Bounds the buffers' memory however
#: long the horizon; the fold order, not this size, fixes the sums.
FOLD_PAIRS = 8192


@dataclass(frozen=True)
class BatchMeans:
    """Summary of a batch-means estimate.

    Attributes
    ----------
    mean:
        Overall (weight-pooled) mean.
    half_width:
        ~95% confidence half-width from the batch spread (1.96 standard
        errors of the batch means); ``nan`` with fewer than 2 non-empty
        batches.
    batches:
        Number of non-empty batches used.
    """

    mean: float
    half_width: float
    batches: int


def batch_means(sums: np.ndarray, weights: np.ndarray) -> BatchMeans:
    """Pool per-batch sums and weights into a batch-means estimate.

    Parameters
    ----------
    sums:
        Per-batch totals (e.g. summed delays, or integrated N over time).
    weights:
        Per-batch denominators (packet counts, or batch durations).
    """
    sums = np.asarray(sums, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if sums.shape != weights.shape:
        raise ValueError("sums and weights must have the same shape")
    mask = weights > 0
    k = int(mask.sum())
    total_w = float(weights[mask].sum())
    if k == 0 or total_w == 0.0:
        return BatchMeans(mean=float("nan"), half_width=float("nan"), batches=0)
    mean = float(sums[mask].sum() / total_w)
    if k < 2:
        return BatchMeans(mean=mean, half_width=float("nan"), batches=k)
    per_batch = sums[mask] / weights[mask]
    se = float(per_batch.std(ddof=1) / np.sqrt(k))
    return BatchMeans(mean=mean, half_width=1.96 * se, batches=k)


#: Time batches of every engine's within-run delay confidence interval.
DELAY_BATCHES = 32


class TimeBatchAccumulator:
    """Accumulate a per-event quantity into fixed time batches.

    Events that land before ``start`` or after ``end`` are ignored; the
    window ``[start, end)`` is split into ``num_batches`` equal slots.
    Used for per-packet delays (sum of delays / packet counts per batch)
    and equally applicable to any event-indexed series.

    The interpreted kernels append each ``(time, value)`` pair to
    ``pending_times`` / ``pending_values`` and :meth:`fold` them in
    bulk; with ``keep_values`` the folded values also collect, in
    order, in ``kept`` (the engines' ``collect_delays``).
    """

    def __init__(
        self,
        start: float,
        end: float,
        num_batches: int = DELAY_BATCHES,
        *,
        keep_values: bool = False,
    ) -> None:
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        if num_batches < 1:
            raise ValueError("num_batches must be at least 1")
        self.start = float(start)
        self.end = float(end)
        self.num_batches = int(num_batches)
        self._width = (self.end - self.start) / self.num_batches
        self.sums = np.zeros(self.num_batches)
        self.weights = np.zeros(self.num_batches)
        self.pending_times = array("d")
        self.pending_values = array("d")
        self.kept: array | None = array("d") if keep_values else None

    def add(self, t: float, value: float, weight: float = 1.0) -> None:
        """Record ``value`` (with ``weight``) at time ``t``."""
        if not self.start <= t < self.end:
            return
        idx = int((t - self.start) / self._width)
        if idx >= self.num_batches:  # guard against floating-point edge
            idx = self.num_batches - 1
        self.sums[idx] += value
        self.weights[idx] += weight

    def add_batch(
        self, ts: np.ndarray, values: np.ndarray, weight: float = 1.0
    ) -> None:
        """Vectorized :meth:`add`: record ``values[i]`` at ``ts[i]``.

        Same semantics per element — out-of-window times are ignored and
        every kept element carries ``weight`` — in two scatter-adds
        (the numpy kernels' bulk path). ``np.add.at`` scatters in
        element order, so the float sums equal one :meth:`add` per
        element in the same order. The three interpreted engines (fifo,
        slotted and PS) rely on that: they buffer their completions and
        fold them here in completion order (:meth:`fold`), bit-identical
        to an ``add`` per completion. The rushed engine adds each
        arrival block's makespans in one call, in birth order.
        """
        ts = np.asarray(ts, dtype=float)
        values = np.asarray(values, dtype=float)
        inside = (ts >= self.start) & (ts < self.end)
        if not inside.any():
            return
        idx = ((ts[inside] - self.start) / self._width).astype(np.int64)
        np.clip(idx, 0, self.num_batches - 1, out=idx)
        np.add.at(self.sums, idx, values[inside])
        np.add.at(self.weights, idx, weight)

    def fold(self) -> None:
        """:meth:`add_batch` the pending pairs in order, then clear them."""
        ts, values = self.pending_times, self.pending_values
        if self.kept is not None:
            self.kept.extend(values)
        self.add_batch(np.frombuffer(ts), np.frombuffer(values))
        del ts[:]
        del values[:]

    def summary(self) -> BatchMeans:
        """Batch-means estimate over the accumulated batches."""
        return batch_means(self.sums, self.weights)
