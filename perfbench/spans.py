"""Span arithmetic for the traced run: self time, pool idle share, error rate.

A span is one timed call at a layer boundary. Spans nest through their
``parent`` id; a span's *self time* is its duration minus the part of
its interval that its direct children cover, so a layer is not charged
for the layers it calls.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Span:
    """One timed call: ``[start, end)`` seconds on the monotonic clock."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Self time of every span, keyed by span id."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered(children[s.id], s.start, s.end) for s in spans
    }


def total_self(spans: Sequence[Span], name: str) -> float:
    """Summed self time of every span called ``name``."""
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name == name)


def idle_frac(busy_s: float, workers: int, window_s: float) -> float:
    """Share of the pool's worker-seconds spent outside tasks.

    ``window_s`` is the wall time the pool was dispatching; ``busy_s`` the
    summed time workers spent inside tasks. 0 when nothing was dispatched.
    """
    capacity = workers * window_s
    if capacity <= 0:
        return 0.0
    return min(1.0, max(0.0, 1.0 - busy_s / capacity))


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must be in [0, {attempted}], got {failed}")
    return failed / attempted
