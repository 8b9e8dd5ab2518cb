"""MoCHy counting algorithms: exact, sampling-based, parallel, and analyses."""

from repro.counting.exact import (
    MotifInstance,
    count_exact,
    count_instances_containing,
    enumerate_instances,
)
from repro.counting.edge_sampling import (
    EdgeSamplingResult,
    count_approx_edge_sampling,
    run_edge_sampling,
)
from repro.counting.wedge_sampling import (
    WedgeSamplingResult,
    count_approx_wedge_sampling,
    run_wedge_sampling,
)
from repro.counting.variance import (
    OverlapStatistics,
    compute_overlap_statistics,
    edge_sampling_variance,
    variance_comparison,
    wedge_sampling_variance,
)
from repro.counting.runner import (
    ALGORITHM_EDGE_SAMPLING,
    ALGORITHM_EXACT,
    ALGORITHM_WEDGE_SAMPLING,
    ALGORITHMS,
    CountingRun,
    count_motifs,
    resolve_algorithm,
    run_counting,
)

__all__ = [
    "MotifInstance",
    "count_exact",
    "count_instances_containing",
    "enumerate_instances",
    "EdgeSamplingResult",
    "count_approx_edge_sampling",
    "run_edge_sampling",
    "WedgeSamplingResult",
    "count_approx_wedge_sampling",
    "run_wedge_sampling",
    "OverlapStatistics",
    "compute_overlap_statistics",
    "edge_sampling_variance",
    "wedge_sampling_variance",
    "variance_comparison",
    "ALGORITHMS",
    "ALGORITHM_EXACT",
    "ALGORITHM_EDGE_SAMPLING",
    "ALGORITHM_WEDGE_SAMPLING",
    "CountingRun",
    "count_motifs",
    "resolve_algorithm",
    "run_counting",
]
