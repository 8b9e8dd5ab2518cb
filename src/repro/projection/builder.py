"""Hypergraph projection (paper Algorithm 1), array-native.

``project`` builds the full projected graph ``G¯ = (E, ∧, ω)`` from the
hypergraph's CSR view: every node's sorted membership row ``E_v`` contributes
all of its hyperedge pairs, and the multiplicity of a pair across rows *is*
its overlap weight ``ω(∧_ij)``. The pair stream is aggregated with NumPy
sorts instead of a tuple-keyed Python dict (see
:mod:`repro.fastcore.projection`); complexity stays
``O(Σ_{∧_ij ∈ ∧} |e_i ∩ e_j|)`` pairs (Lemma 1), now at array speed.
"""

from __future__ import annotations

from typing import Dict

from repro.fastcore.projection import build_projection_arrays, neighborhood_counts
from repro.hypergraph.hypergraph import Hypergraph
from repro.projection.projected_graph import ProjectedGraph


def project(hypergraph: Hypergraph) -> ProjectedGraph:
    """Build the projected graph of *hypergraph* (Algorithm 1)."""
    csr = hypergraph.csr()
    ptr, idx, weight = build_projection_arrays(
        csr.node_ptr, csr.node_edges, csr.num_edges
    )
    return ProjectedGraph.from_csr(csr.num_edges, ptr, idx, weight)


def neighborhood_of(hypergraph: Hypergraph, i: int) -> Dict[int, int]:
    """Compute ``{j: ω(∧_ij)}`` for a single hyperedge *i* without full projection.

    This is the unit of work that the lazy / memoized projection of Section 3.4
    computes on demand; it histograms the membership rows of ``e_i``'s nodes
    instead of incrementing a Python dict per co-occurrence.
    """
    hypergraph._check_edge_index(i)
    csr = hypergraph.csr()
    return neighborhood_counts(csr.node_ptr, csr.node_edges, csr.edge_row(i), i)
