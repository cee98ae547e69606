"""The M/D/1/K loss queue — the deterministic-service finite buffer.

The finite-buffer engine (:mod:`repro.sim.finite_buffer`) under the
paper's unit deterministic service turns an isolated edge into an
M/D/1 queue whose system holds at most ``capacity`` customers; an
arrival that finds it full is dropped. Embedded at departure epochs,
the number left behind is the M/D/1 chain truncated at
``capacity - 1`` (a departure never leaves a full system behind). Its
first ``capacity - 1`` balance equations are the infinite M/D/1 ones,
so the forward recursion of :func:`repro.queueing.md1.departure_chain`
gives ``pi_0..pi_{K-1}`` up to normalisation. The time-stationary law
follows by the standard M/G/1/K argument:

.. math::

    p_n = \\frac{\\pi_n}{\\pi_0 + \\rho}, \\quad n < K, \\qquad
    P_{\\text{block}} = p_K = 1 - \\frac{1}{\\pi_0 + \\rho},

and by PASTA the blocking probability is the loss probability. At
``capacity = 1`` (``buffer_size = 0``) this reduces to the Erlang loss
value ``rho / (1 + rho)``. Like M/M/1/K, no stability condition is
needed.

Capacity convention: as in :mod:`repro.queueing.mm1k`, ``capacity``
counts every customer including the one in service, so a single edge
with ``buffer_size=K`` is ``MD1KQueue(..., capacity=K + 1)`` —
:meth:`MD1KQueue.from_buffer` encodes that translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.queueing.md1 import departure_chain
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MD1KQueue:
    """An M/D/1/K queue: Poisson arrivals ``lam``, constant service time
    ``service``, at most ``capacity`` customers in the system.

    Attributes
    ----------
    lam:
        Poisson arrival rate of *offered* traffic.
    service:
        The constant service time (the paper's unit edges have 1).
    capacity:
        Total system capacity K >= 1, including the customer in service.
    """

    lam: float
    service: float = 1.0
    capacity: int = 1

    def __post_init__(self) -> None:
        check_positive(self.lam, "lam")
        check_positive(self.service, "service")
        if int(self.capacity) != self.capacity or self.capacity < 1:
            raise ValueError(
                f"capacity must be a positive integer, got {self.capacity!r}"
            )

    @classmethod
    def from_buffer(
        cls, lam: float, buffer_size: int, service: float = 1.0
    ) -> "MD1KQueue":
        """The queue matching the finite engine's ``buffer_size`` knob
        (waiting room excluding the packet in service):
        ``capacity = buffer_size + 1``."""
        return cls(lam=lam, service=service, capacity=int(buffer_size) + 1)

    @property
    def load(self) -> float:
        """Offered load ``rho = lam * service`` (may exceed 1)."""
        return self.lam * self.service

    def departure_pmf(self) -> np.ndarray:
        """P(a departure leaves n behind), n = 0..capacity-1."""
        pi = departure_chain(self.load, int(self.capacity) - 1, 1.0)
        return pi / pi.sum()

    def number_pmf(self) -> np.ndarray:
        """Equilibrium P(N = n), n = 0..capacity: ``pi_n / (pi_0 + rho)``
        below capacity, the blocking probability at it."""
        pi = self.departure_pmf()
        scale = pi[0] + self.load
        return np.append(pi / scale, 1.0 - 1.0 / scale)

    def blocking_probability(self) -> float:
        """P(an arrival is dropped) = ``1 - 1 / (pi_0 + rho)`` (PASTA)."""
        return float(self.number_pmf()[-1])

    def mean_number(self) -> float:
        """Time-averaged number in system ``sum_n n p_n``."""
        pmf = self.number_pmf()
        return float(np.arange(pmf.size) @ pmf)

    def throughput(self) -> float:
        """Accepted (= departure) rate ``lam * (1 - P_block)``."""
        return self.lam * (1.0 - self.blocking_probability())

    def mean_delay(self) -> float:
        """Mean sojourn time of accepted customers, by Little's Law
        against the accepted rate."""
        return self.mean_number() / self.throughput()

    def utilization(self) -> float:
        """Server busy fraction ``1 - p_0 = rho (1 - P_block)``."""
        return 1.0 - float(self.number_pmf()[0])
