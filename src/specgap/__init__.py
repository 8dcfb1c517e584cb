"""specgap: spectral-expansion certificates from exact geodesic-cycle counts.

Decides whether a connected regular graph's normalized nontrivial
spectral radius is at most 2 + eps using only exact integer arithmetic
on cycle counts, with eigenvalue- and edge-matrix-based oracles for
cross-validation.
"""

__version__ = "0.1.0"

from .exact import MultCounter, Quadratic
from .graphs import (
    GraphGenerationError,
    GraphValidationError,
    RegularGraph,
    named_graph,
    parse_edge_list,
    random_regular,
    validate,
    write_edge_list,
)
from .ladder import (
    SlackValue,
    expansion_slack,
    expansion_slack_pair,
    geodesic_count,
    ladder_indices,
    ladder_mult_count,
)
from .oracle import (
    EigensolverError,
    Spectrum,
    SpectralSummary,
    adjacency_spectrum,
    chebyshev_even_from_square,
    chebyshev_scalar,
    directed_edge_matrix,
    expansion_slack_spectral,
    geodesic_count_trace,
    spectral_summary,
)
from .estimator import (
    EstimateReport,
    ScanReport,
    convergent_estimates,
    estimate_expansion,
    estimate_expansions,
    geodesic_bounds_hold,
    parse_epsilon,
    ramanujan_scan,
    required_even_index,
    slack_ratio_estimate,
)

__all__ = [
    "MultCounter",
    "Quadratic",
    "GraphGenerationError",
    "GraphValidationError",
    "RegularGraph",
    "named_graph",
    "parse_edge_list",
    "random_regular",
    "validate",
    "write_edge_list",
    "SlackValue",
    "expansion_slack",
    "expansion_slack_pair",
    "geodesic_count",
    "ladder_indices",
    "ladder_mult_count",
    "EigensolverError",
    "Spectrum",
    "SpectralSummary",
    "adjacency_spectrum",
    "chebyshev_even_from_square",
    "chebyshev_scalar",
    "directed_edge_matrix",
    "expansion_slack_spectral",
    "geodesic_bounds_hold",
    "geodesic_count_trace",
    "spectral_summary",
    "EstimateReport",
    "ScanReport",
    "convergent_estimates",
    "estimate_expansion",
    "estimate_expansions",
    "parse_epsilon",
    "ramanujan_scan",
    "required_even_index",
    "slack_ratio_estimate",
]
