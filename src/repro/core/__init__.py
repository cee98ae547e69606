"""The paper's primary contribution: bounds on greedy routing delay.

Modules map to the paper's sections:

=========================  =====================================================
module                     paper content
=========================  =====================================================
``rates``                  Theorem 6 edge arrival rates; generic traffic solver
``distances``              n-bar, n-bar-2, route-length statistics (Section 2.1)
``upper_bound``            Theorems 5 and 7 (PS/Jackson upper bound)
``md1_approx``             Section 4.2 M/D/1 independence approximation, Lemma 9
``lower_bounds``           Theorems 8, 10, 12, 14 and the gap-ratio claims
``remaining_distance``     d_e / d-bar (Definition 11) for array and hypercube
``saturation``             saturated edges, s and s-bar (Definition 13, Fig. 2)
``layering``               Lemma 2 labelling, generic validator, torus obstruction
``optimization``           Theorem 15 optimal rates; 4/n vs 6/(n+1) stability
``hypercube_bounds``       Section 4.5 hypercube/butterfly gap analysis
``kd_bounds``              Section 5.2 higher-dimensional arrays
``generic_bounds``         topology-generic bound assembly (torus etc.)
``routetable``             all pairs' canonical routes, flat: the exact route
                           ingredients of the generic bounds as numpy reductions
``rectangular``            rectangular meshes (Section 2.1's remark)
``stability``              capacity predicates per topology and parity
=========================  =====================================================
"""

from repro.core.rates import (
    array_edge_rate,
    array_edge_rates,
    edge_rates_from_routing,
    lambda_for_load,
    load_for_lambda,
    max_edge_rate,
)
from repro.core.distances import (
    mean_distance,
    mean_distance_excluding_self,
    mean_route_length,
)
from repro.core.upper_bound import (
    delay_upper_bound,
    delay_upper_bound_generic,
    number_upper_bound,
)
from repro.core.md1_approx import (
    delay_md1_estimate,
    md1_network_number,
    lemma9_ratio,
)
from repro.core.lower_bounds import (
    st_lower_bound,
    trivial_lower_bound,
    copy_lower_bound,
    markov_lower_bound,
    saturated_lower_bound,
    best_lower_bound,
    asymptotic_gap,
    BoundSummary,
    bound_summary,
)
from repro.core.remaining_distance import (
    array_max_expected_remaining_distance,
    expected_remaining_distances,
    hypercube_max_expected_remaining_distance,
)
from repro.core.saturation import (
    saturated_edge_mask,
    max_saturated_on_route,
    saturated_remaining_expectations,
    s_bar,
)
from repro.core.layering import (
    array_layering_labels,
    verify_layering,
    find_layering_obstruction,
)
from repro.core.optimization import (
    optimal_service_rates,
    optimal_mean_number,
    optimal_delay,
    budget_surplus,
    standard_capacity,
    optimal_capacity,
    discrete_service_rates,
)
from repro.core.hypercube_bounds import (
    hypercube_edge_rate,
    hypercube_delay_upper_bound,
    hypercube_gap_markov,
    hypercube_gap_copy,
    butterfly_gap,
    st_limit_bracket,
)
from repro.core.kd_bounds import (
    kd_asymptotic_gap_even,
    kd_capacity,
    kd_delay_upper_bound,
    kd_edge_rates,
    kd_lambda_for_load,
    kd_max_expected_remaining_distance,
    kd_mean_distance,
    kd_s_bar_even,
)
from repro.core.generic_bounds import GenericBounds, generic_bounds
from repro.core.rectangular import (
    rect_capacity,
    rect_delay_upper_bound,
    rect_lambda_for_load,
    rect_md1_estimate,
    rect_mean_distance,
    squarest_shape,
)
from repro.core.stability import is_stable, capacity

__all__ = [
    "array_edge_rate",
    "array_edge_rates",
    "edge_rates_from_routing",
    "lambda_for_load",
    "load_for_lambda",
    "max_edge_rate",
    "mean_distance",
    "mean_distance_excluding_self",
    "mean_route_length",
    "delay_upper_bound",
    "delay_upper_bound_generic",
    "number_upper_bound",
    "delay_md1_estimate",
    "md1_network_number",
    "lemma9_ratio",
    "st_lower_bound",
    "trivial_lower_bound",
    "copy_lower_bound",
    "markov_lower_bound",
    "saturated_lower_bound",
    "best_lower_bound",
    "asymptotic_gap",
    "BoundSummary",
    "bound_summary",
    "array_max_expected_remaining_distance",
    "expected_remaining_distances",
    "hypercube_max_expected_remaining_distance",
    "saturated_edge_mask",
    "max_saturated_on_route",
    "saturated_remaining_expectations",
    "s_bar",
    "array_layering_labels",
    "verify_layering",
    "find_layering_obstruction",
    "optimal_service_rates",
    "optimal_mean_number",
    "optimal_delay",
    "budget_surplus",
    "standard_capacity",
    "optimal_capacity",
    "discrete_service_rates",
    "hypercube_edge_rate",
    "hypercube_delay_upper_bound",
    "hypercube_gap_markov",
    "hypercube_gap_copy",
    "butterfly_gap",
    "st_limit_bracket",
    "is_stable",
    "capacity",
    "kd_edge_rates",
    "kd_capacity",
    "kd_lambda_for_load",
    "kd_mean_distance",
    "kd_delay_upper_bound",
    "kd_max_expected_remaining_distance",
    "kd_s_bar_even",
    "kd_asymptotic_gap_even",
    "GenericBounds",
    "generic_bounds",
    "rect_capacity",
    "rect_delay_upper_bound",
    "rect_lambda_for_load",
    "rect_md1_estimate",
    "rect_mean_distance",
    "squarest_shape",
]
