"""Seed (object-graph) implementations, kept as the executable specification.

These are the pre-fastcore hot paths, verbatim in structure: Algorithm 1 as a
tuple-keyed dict of overlap increments, and the MoCHy counters as per-triple
``classify_triple`` calls. The oracle's projection enters the array layout
through :func:`projected_graph_from_mapping`, the one validated constructor of
a :class:`ProjectedGraph` from a dict. They are **not** used by the library's
fast paths; they exist so that

* the parity test-suite (``tests/test_fastcore_parity.py``) can assert that
  the batched kernels return bit-identical ``MotifCounts``; and
* ``benchmarks/bench_core_speed.py`` can measure the fast core's speedup
  against the seed implementation on the same inputs.

The oracle classifies through the same 128-entry pattern table as the kernels
(:func:`repro.motifs.classify.motif_lookup_table`); ``tests/test_motif_classify.py``
checks that table on all 128 pattern codes against answers worked out from sets.

Keep this module dependency-light and boring: its value is that it changes
only when the *semantics* of the counters change.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.counting.classification import NeighborhoodProvider, classify_triple
from repro.exceptions import ProjectionError
from repro.fastcore.projection import WEIGHT_DTYPE, pairs_to_symmetric_csr
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.projection.projected_graph import ProjectedGraph


def projected_graph_from_mapping(
    num_hyperedges: int, adjacency: Mapping[int, Mapping[int, int]]
) -> ProjectedGraph:
    """The :class:`ProjectedGraph` of a symmetric ``i -> {j: ω(∧_ij)}`` mapping.

    Checks what the CSR constructor trusts: vertices in range, no self-loops,
    positive weights that fit the int32 layout, and symmetry.
    """
    if num_hyperedges < 0:
        raise ProjectionError("num_hyperedges must be non-negative")
    num_hyperedges = int(num_hyperedges)
    normalized: Dict[int, Dict[int, int]] = {}
    for i, neighbors in adjacency.items():
        if not 0 <= i < num_hyperedges:
            raise ProjectionError(f"vertex {i} out of range")
        normalized[int(i)] = {int(j): int(w) for j, w in neighbors.items()}
    limit = np.iinfo(WEIGHT_DTYPE).max
    keys: List[int] = []
    weights: List[int] = []
    for i, neighbors in normalized.items():
        for j, weight in neighbors.items():
            if not 0 <= j < num_hyperedges:
                raise ProjectionError(f"neighbor {j} of vertex {i} out of range")
            if i == j:
                raise ProjectionError(f"self-loop on vertex {i}")
            if weight <= 0:
                raise ProjectionError(
                    f"hyperwedge ({i}, {j}) has non-positive weight {weight}"
                )
            if weight > limit:
                # A silent int32 cast would wrap a huge weight negative.
                raise ProjectionError(
                    f"hyperwedge ({i}, {j}) weight {weight} exceeds the "
                    f"supported maximum {limit}"
                )
            if normalized.get(j, {}).get(i) != weight:
                raise ProjectionError(
                    f"adjacency is not symmetric for pair ({i}, {j})"
                )
            if i < j:
                # Upper-triangle (key, weight) pairs; the fast-core assembler
                # mirrors them and builds the CSR pointers.
                keys.append(i * max(num_hyperedges, 1) + j)
                weights.append(weight)
    return ProjectedGraph(
        num_hyperedges,
        *pairs_to_symmetric_csr(
            np.array(keys, dtype=np.int64),
            np.array(weights, dtype=np.int64),
            num_hyperedges,
        ),
    )


def project_reference(hypergraph: Hypergraph) -> ProjectedGraph:
    """Algorithm 1 with a tuple-keyed weight dict (the seed layout)."""
    weights: Dict[Tuple[int, int], int] = {}
    for i in range(hypergraph.num_hyperedges):
        edge = hypergraph.hyperedge(i)
        for node in edge:
            for j in hypergraph.memberships(node):
                if j > i:
                    key = (i, j)
                    weights[key] = weights.get(key, 0) + 1
    adjacency: Dict[int, Dict[int, int]] = {}
    for (i, j), weight in weights.items():
        adjacency.setdefault(i, {})[j] = weight
        adjacency.setdefault(j, {})[i] = weight
    return projected_graph_from_mapping(hypergraph.num_hyperedges, adjacency)


def count_exact_reference(
    hypergraph: Hypergraph,
    projection: Optional[NeighborhoodProvider] = None,
    hyperedge_indices: Optional[Iterable[int]] = None,
) -> MotifCounts:
    """MoCHy-E with one ``classify_triple`` call per candidate triple."""
    if projection is None:
        projection = project_reference(hypergraph)
    if hyperedge_indices is None:
        hyperedge_indices = range(hypergraph.num_hyperedges)
    counts = MotifCounts.zeros()
    for i in hyperedge_indices:
        neighbors = sorted(projection.neighbors(i))
        for position, j in enumerate(neighbors):
            for k in neighbors[position + 1 :]:
                overlap_jk = projection.overlap(j, k)
                if overlap_jk == 0 or i < min(j, k):
                    counts.increment(classify_triple(hypergraph, projection, i, j, k))
    return counts


def count_containing_reference(
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    anchors: Sequence[int],
) -> MotifCounts:
    """Raw MoCHy-A increments: instances containing each anchor, per triple."""
    counts = MotifCounts.zeros()
    for i in anchors:
        i = int(i)
        neighbors_i = projection.neighbors(i)
        neighbor_set = set(neighbors_i)
        for j in neighbors_i:
            neighbors_j = projection.neighbors(j)
            candidates = neighbor_set.union(neighbors_j)
            candidates.discard(i)
            candidates.discard(j)
            for k in candidates:
                if k not in neighbor_set or j < k:
                    counts.increment(classify_triple(hypergraph, projection, i, j, k))
    return counts


def count_wedges_reference(
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    wedges: Sequence[Tuple[int, int]],
) -> MotifCounts:
    """Raw MoCHy-A+ increments: instances containing each wedge, per triple."""
    counts = MotifCounts.zeros()
    for i, j in wedges:
        i = int(i)
        j = int(j)
        candidates = set(projection.neighbors(i))
        candidates.update(projection.neighbors(j))
        candidates.discard(i)
        candidates.discard(j)
        for k in candidates:
            counts.increment(classify_triple(hypergraph, projection, i, j, k))
    return counts
