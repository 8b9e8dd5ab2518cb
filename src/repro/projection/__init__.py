"""Hypergraph projection: the projected graph, its builders and lazy variants."""

from repro.projection.projected_graph import ProjectedGraph
from repro.projection.builder import neighborhood_of, project
from repro.projection.lazy import (
    LazyProjection,
    POLICY_DEGREE,
    POLICY_LRU,
    POLICY_RANDOM,
)

__all__ = [
    "ProjectedGraph",
    "project",
    "neighborhood_of",
    "LazyProjection",
    "POLICY_DEGREE",
    "POLICY_LRU",
    "POLICY_RANDOM",
]
