"""The M/D/1 queue (deterministic service) — the paper's comparison queue.

The standard array model has constant unit transmission times, so the
independence approximation of Section 4.2 and the lower bounds of Section
4.3 are all phrased against M/D/1 queues. Lemma 9's factor-of-2 relation
between M/M/1 and M/D/1 mean numbers is exposed as
:meth:`MD1Queue.mm1_ratio` and property-tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.queueing.mg1 import pollaczek_khinchin_number, pollaczek_khinchin_wait
from repro.util.validation import check_positive


@dataclass(frozen=True)
class MD1Queue:
    """An M/D/1 queue with arrival rate ``lam`` and deterministic service.

    Attributes
    ----------
    lam:
        Poisson arrival rate.
    service:
        The constant service time (the paper's unit edges have 1).
    """

    lam: float
    service: float = 1.0

    def __post_init__(self) -> None:
        check_positive(self.lam, "lam", strict=False)
        check_positive(self.service, "service")

    @property
    def load(self) -> float:
        """Utilisation ``rho = lam * service``."""
        return self.lam * self.service

    @property
    def stable(self) -> bool:
        """True iff ``rho < 1``."""
        return self.load < 1.0

    def mean_number(self) -> float:
        """Mean number in system: ``rho + rho^2 / (2(1-rho))`` (P-K with
        ``E[S^2] = service^2``)."""
        return pollaczek_khinchin_number(self.lam, self.service, self.service**2)

    def mean_wait(self) -> float:
        """Mean wait in queue (excluding service)."""
        return pollaczek_khinchin_wait(self.lam, self.service, self.service**2)

    def mean_delay(self) -> float:
        """Mean time in system."""
        return self.mean_wait() + self.service

    def mean_queue_length(self) -> float:
        """Mean number waiting (excluding in service)."""
        return self.lam * self.mean_wait()

    def number_pmf(self, kmax: int) -> np.ndarray:
        """Equilibrium P(N = k), k = 0..kmax, via the embedded M/G/1 chain.

        For an M/G/1 queue the distribution seen at departure epochs equals
        the time-stationary one (level crossing + PASTA). With ``a_j`` the
        probability of ``j`` Poisson arrivals during one deterministic
        service (``a_j = e^{-rho} rho^j / j!``), the stationary equations
        invert to the classical stable forward recursion

            pi_{k+1} = [ pi_k - pi_0 a_k - sum_{j=1}^{k} pi_j a_{k-j+1} ] / a_0,

        seeded by ``pi_0 = 1 - rho``. Each term is a difference of
        same-sign quantities of comparable size, so the recursion is
        numerically stable for the loads we use (unlike the alternating
        closed form). The tail mass ``1 - sum`` is reported implicitly via
        the truncation.
        """
        if not self.stable:
            raise ValueError(f"unstable M/D/1 queue: rho = {self.load} >= 1")
        return departure_chain(self.load, kmax, 1.0 - self.load)

    def mm1_ratio(self) -> float:
        """Ratio of the matched M/M/1 mean number to this queue's.

        Lemma 9's engine: with the same arrival rate and mean service, the
        exponential-service queue holds between 1x and 2x as many packets;
        the ratio tends to 1 as ``rho -> 0`` and to 2 as ``rho -> 1``.
        """
        if not self.stable:
            raise ValueError(f"unstable M/D/1 queue: rho = {self.load} >= 1")
        mm1 = pollaczek_khinchin_number(
            self.lam, self.service, 2.0 * self.service**2
        )
        md1 = self.mean_number()
        return mm1 / md1 if md1 > 0 else 1.0


def departure_chain(rho: float, kmax: int, pi0: float) -> np.ndarray:
    """``pi_0..pi_kmax`` of the M/D/1 departure-epoch chain, scaled so
    that ``pi_0 = pi0``: the forward recursion of
    :meth:`MD1Queue.number_pmf`, which needs no stability condition.
    Its first ``k`` balance equations are those of the chain truncated
    at ``k`` as well, which is how :mod:`repro.queueing.md1k` uses it.
    """
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    # Arrivals during one service: Poisson(rho) pmf built by the
    # multiplicative recurrence (factorials overflow for large kmax).
    a = np.empty(kmax + 2)
    a[0] = math.exp(-rho)
    for j in range(1, kmax + 2):
        a[j] = a[j - 1] * rho / j
    pi = np.zeros(kmax + 1)
    pi[0] = pi0
    for k in range(kmax):
        acc = pi[k] - pi[0] * a[k]
        for j in range(1, k + 1):
            acc -= pi[j] * a[k - j + 1]
        pi[k + 1] = acc / a[0]
    return pi
