"""CSR (compressed sparse row) layout of a hypergraph.

The friendly :class:`repro.hypergraph.Hypergraph` API speaks frozensets of
arbitrary hashable nodes; the hot paths speak :class:`HypergraphCSR` —
two int32 CSR structures over *dense* integer ids:

* the hyperedge side: ``edge_ptr`` / ``edge_nodes``, where
  ``edge_nodes[edge_ptr[i]:edge_ptr[i+1]]`` are the dense node ids of
  hyperedge ``e_i``, **sorted ascending** (so pairwise/triple intersections
  reduce to sorted-array merges and ``searchsorted`` lookups);
* the transposed node side: ``node_ptr`` / ``node_edges``, where
  ``node_edges[node_ptr[v]:node_ptr[v+1]]`` are the hyperedge indices
  containing node ``v`` (the paper's ``E_v``), sorted ascending.

Dense node ids are assigned by the owning ``Hypergraph`` (position in its
deterministic node ordering), so the CSR view and the frozenset view always
agree on which node is which. The structure is immutable, built once and
cached on the hypergraph, and picklable (plain arrays), which lets the
counters' fan-out ship it to worker processes without serializing frozenset
graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Mapping, Sequence

import numpy as np

INDEX_DTYPE = np.int32


@dataclass(frozen=True, eq=False)
class HypergraphCSR:
    """Immutable CSR view of a hypergraph over dense integer ids.

    Attributes
    ----------
    num_edges, num_nodes:
        ``|E|`` and ``|V|``.
    edge_ptr, edge_nodes:
        Hyperedge rows: sorted dense node ids of each hyperedge.
    node_ptr, node_edges:
        Transposed membership rows: sorted hyperedge indices per node.
    edge_sizes:
        ``|e_i|`` for every hyperedge, in index order.
    """

    num_edges: int
    num_nodes: int
    edge_ptr: np.ndarray
    edge_nodes: np.ndarray
    node_ptr: np.ndarray
    node_edges: np.ndarray
    edge_sizes: np.ndarray

    def edge_row(self, i: int) -> np.ndarray:
        """Sorted dense node ids of hyperedge *i*."""
        return self.edge_nodes[self.edge_ptr[i] : self.edge_ptr[i + 1]]

    def node_row(self, v: int) -> np.ndarray:
        """Sorted hyperedge indices containing dense node *v*."""
        return self.node_edges[self.node_ptr[v] : self.node_ptr[v + 1]]


def build_csr(
    hyperedges: Sequence[FrozenSet[Hashable]],
    node_index: Mapping[Hashable, int],
) -> HypergraphCSR:
    """Build the CSR layout from frozenset hyperedges and a dense node-id map.

    ``node_index`` must map every node appearing in *hyperedges* to a unique
    id in ``[0, num_nodes)``; the owning ``Hypergraph`` supplies its cached
    deterministic ordering.
    """
    num_edges = len(hyperedges)
    num_nodes = len(node_index)
    edge_sizes = np.fromiter(
        (len(edge) for edge in hyperedges), dtype=INDEX_DTYPE, count=num_edges
    )
    total = int(edge_sizes.astype(np.int64).sum())
    if total > np.iinfo(INDEX_DTYPE).max:
        # Both pointer arrays top out at `total`; int32 cumsum would wrap
        # silently, so make the layout limit loud instead.
        raise OverflowError(
            f"total incidence {total} exceeds the int32 CSR layout limit "
            f"({np.iinfo(INDEX_DTYPE).max})"
        )
    edge_ptr = np.zeros(num_edges + 1, dtype=INDEX_DTYPE)
    edge_ptr[1:] = np.cumsum(edge_sizes)

    flat = np.fromiter(
        (node_index[node] for edge in hyperedges for node in edge),
        dtype=INDEX_DTYPE,
        count=total,
    )
    owner = np.repeat(np.arange(num_edges, dtype=INDEX_DTYPE), edge_sizes)

    # Sort node ids within each hyperedge row: one global stable sort on the
    # (edge, node) key keeps rows contiguous and orders nodes inside them.
    edge_key = owner.astype(np.int64) * max(num_nodes, 1) + flat
    edge_order = np.argsort(edge_key, kind="stable")
    edge_nodes = flat[edge_order]

    # Transpose to node→edges rows the same way, keyed by (node, edge).
    node_key = flat.astype(np.int64) * max(num_edges, 1) + owner
    node_order = np.argsort(node_key, kind="stable")
    node_edges = owner[node_order]
    node_ptr = np.zeros(num_nodes + 1, dtype=INDEX_DTYPE)
    node_ptr[1:] = np.cumsum(np.bincount(flat, minlength=num_nodes))

    for array in (edge_ptr, edge_nodes, node_ptr, node_edges, edge_sizes):
        array.setflags(write=False)
    return HypergraphCSR(
        num_edges=num_edges,
        num_nodes=num_nodes,
        edge_ptr=edge_ptr,
        edge_nodes=edge_nodes,
        node_ptr=node_ptr,
        node_edges=node_edges,
        edge_sizes=edge_sizes,
    )
