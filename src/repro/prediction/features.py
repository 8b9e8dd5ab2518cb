"""Hyperedge feature sets for the prediction task (paper Section 4.4, Table 4).

Three feature sets are compared:

``HM26``
    For a candidate hyperedge ``e``, the number of instances of each h-motif
    that contain ``e`` when ``e`` is added to the context hypergraph
    (26 features).
``HM7``
    The seven HM26 features with the largest variance on the training set.
``HC``
    Hand-crafted baseline: mean / max / min node degree, mean / max / min node
    neighbourhood size (both measured in the context hypergraph) and the
    hyperedge's size (7 features).

The HM26 computation never materializes the augmented hypergraph: the
candidate's overlaps with context hyperedges are computed from node
memberships, and the rest of each instance lives entirely in the context, so
the context's projected graph (built once) suffices.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.counting.classification import NeighborhoodProvider
from repro.exceptions import MotifError
from repro.hypergraph.hypergraph import Hypergraph, Node
from repro.motifs.classify import classify_instance
from repro.motifs.counts import MotifCounts
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection.builder import project

#: Names of the seven hand-crafted HC features, in vector order.
HC_FEATURE_NAMES = (
    "mean_degree",
    "max_degree",
    "min_degree",
    "mean_neighbors",
    "max_neighbors",
    "min_neighbors",
    "size",
)


def candidate_overlaps(
    hypergraph: Hypergraph, candidate: Iterable[Node]
) -> Dict[int, int]:
    """``{j: |candidate ∩ e_j|}`` for every context hyperedge overlapping the candidate."""
    overlaps: Dict[int, int] = {}
    for node in set(candidate):
        if hypergraph.has_node(node):
            for j in hypergraph.memberships(node):
                overlaps[j] = overlaps.get(j, 0) + 1
    return overlaps


def motif_counts_for_candidate(
    hypergraph: Hypergraph,
    candidate: Iterable[Node],
    projection: Optional[NeighborhoodProvider] = None,
) -> MotifCounts:
    """Counts of h-motif instances containing *candidate* against the context.

    Instances consist of the candidate plus two distinct context hyperedges
    such that the triple is connected — the HM26 feature vector of the
    candidate.
    """
    candidate_nodes = frozenset(candidate)
    if projection is None:
        projection = project(hypergraph)
    overlaps = candidate_overlaps(hypergraph, candidate_nodes)
    counts = MotifCounts.zeros()
    overlap_set = set(overlaps)
    for j in overlaps:
        neighbors_j = projection.neighbors(j)
        partners = overlap_set.union(neighbors_j)
        partners.discard(j)
        for k in partners:
            if k not in overlap_set or j < k:
                try:
                    motif = classify_instance(
                        candidate_nodes,
                        hypergraph.hyperedge(j),
                        hypergraph.hyperedge(k),
                        overlaps.get(j, 0),
                        projection.overlap(j, k),
                        overlaps.get(k, 0),
                    )
                except MotifError:
                    # The candidate duplicates a context hyperedge (typical for
                    # training positives, which are drawn from the context);
                    # a triple containing that duplicate is not a valid instance.
                    continue
                counts.increment(motif)
    return counts


def hm26_features(
    hypergraph: Hypergraph,
    candidates: Sequence[Iterable[Node]],
    projection: Optional[NeighborhoodProvider] = None,
) -> np.ndarray:
    """HM26 feature matrix (one row per candidate hyperedge)."""
    if projection is None:
        projection = project(hypergraph)
    rows = []
    for candidate in candidates:
        counts = motif_counts_for_candidate(hypergraph, candidate, projection)
        rows.append(counts.to_array())
    return np.array(rows, dtype=float) if rows else np.empty((0, NUM_MOTIFS))


def select_high_variance_features(
    training_features: np.ndarray, num_features: int = 7
) -> np.ndarray:
    """Indices of the *num_features* columns with the largest variance (HM7 selection)."""
    if training_features.ndim != 2:
        raise ValueError("training_features must be a 2-D array")
    variances = training_features.var(axis=0)
    order = np.argsort(-variances, kind="stable")
    return order[:num_features]


def hc_features(
    hypergraph: Hypergraph, candidates: Sequence[Iterable[Node]]
) -> np.ndarray:
    """HC baseline feature matrix (one row per candidate hyperedge)."""
    degrees = hypergraph.degrees()
    neighbor_counts: Dict[Node, int] = {}
    rows: List[List[float]] = []
    for candidate in candidates:
        members = list(set(candidate))
        member_degrees = [float(degrees.get(node, 0)) for node in members]
        member_neighbors = []
        for node in members:
            if node not in neighbor_counts:
                neighbor_counts[node] = (
                    len(hypergraph.neighbors_of_node(node)) if hypergraph.has_node(node) else 0
                )
            member_neighbors.append(float(neighbor_counts[node]))
        rows.append(
            [
                float(np.mean(member_degrees)),
                float(np.max(member_degrees)),
                float(np.min(member_degrees)),
                float(np.mean(member_neighbors)),
                float(np.max(member_neighbors)),
                float(np.min(member_neighbors)),
                float(len(members)),
            ]
        )
    return np.array(rows, dtype=float) if rows else np.empty((0, len(HC_FEATURE_NAMES)))
