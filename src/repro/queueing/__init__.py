"""Classical single-queue and product-form network theory.

This subpackage is the analytic substrate of the paper: M/M/1 and M/D/1
queues (Section 2.1), the M/M/1/K and M/D/1/K loss queues behind the
finite-buffer engine, the Pollaczek-Khinchin mean-value formula
(Section 4.2), Little's Law (Section 2.2), product-form / Jackson
network equilibria (Sections 2.2 and 3.3), and empirical
stochastic-dominance tests for the comparison arguments of Sections 3
and 4. The validation harness
(:mod:`repro.validation`) cross-checks every simulation engine against
these closed forms in CI.
"""

from repro.queueing.mm1 import MM1Queue
from repro.queueing.mm1k import MM1KQueue
from repro.queueing.md1 import MD1Queue
from repro.queueing.md1k import MD1KQueue
from repro.queueing.mg1 import MG1Queue, pollaczek_khinchin_number, pollaczek_khinchin_wait
from repro.queueing.littleslaw import littles_law_number, littles_law_time, littles_law_residual
from repro.queueing.productform import ProductFormNetwork
from repro.queueing.dominance import (
    dominance_violation,
    dominance_violation_vs_tail,
    empirical_dominates,
)

__all__ = [
    "MM1Queue",
    "MM1KQueue",
    "MD1Queue",
    "MD1KQueue",
    "MG1Queue",
    "pollaczek_khinchin_number",
    "pollaczek_khinchin_wait",
    "littles_law_number",
    "littles_law_time",
    "littles_law_residual",
    "ProductFormNetwork",
    "empirical_dominates",
    "dominance_violation",
    "dominance_violation_vs_tail",
]
