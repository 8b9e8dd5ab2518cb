"""Incremental exact h-motif counting over hyperedge deltas.

Given a counted snapshot and a batch of *added* hyperedges, the delta
engine updates the projection and the exact motif counts without
recounting the whole graph. The update exploits three structural facts of
the exact kernel's per-anchor *shares* (see
:func:`repro.fastcore.count_exact_batched`):

1. **Old pair weights are immutable.** Adding hyperedges never changes
   ``|e_j ∩ e_k|`` for existing edges, so every hyperwedge weight, triple
   overlap and edge size seen from an untouched anchor is exactly what it
   was before the delta.
2. **New pairs are localized.** A projected pair involving an added edge
   can only arise from the membership rows of nodes the added edges
   contain; aggregating the co-occurrence stream over those *touched*
   nodes alone yields every new pair with its full weight (every shared
   node of such a pair is by definition touched).
3. **Shares change only at affected anchors.** An anchor's share is a
   function of its projected row, its neighbors' sizes and the overlaps
   among them (and the triple overlaps of its triangles, which fact 1
   fixes for old edges). An old anchor that gained no new neighbor keeps
   its row, so its neighbors are all old edges with unchanged sizes and
   overlaps: its share is bit-identical before and after the delta. Every
   other anchor is *affected* — an added edge, or an old edge that gained
   a new neighbor. Affected anchors are counted on the new graph, and the
   old ones among them also on the old graph, whose shares are removed.

The exact counts are therefore updated as::

    counts += count(new graph, affected anchors) - count(old graph, affected old anchors)

All three terms are integer-valued float64 vectors (bincount sums), exact
well below 2^53, so the incremental result is **bit-identical** to a
from-scratch recount — pinned by parity tests.

The engine keeps its own append-only dense node-id map: the friendly
:class:`~repro.hypergraph.Hypergraph` re-sorts node ids on every
construction, which would reshuffle rows between snapshots, while motif
counts are invariant under node relabeling (they depend only on edge
sizes and intersection cardinalities). Edge indices, by contrast, are
append-only by construction — the property the whole scheme rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Tuple

import numpy as np

from repro.exceptions import EmptyHyperedgeError
from repro.fastcore.csr import INDEX_DTYPE, HypergraphCSR
from repro.fastcore.kernels import count_exact_batched
from repro.fastcore.projection import (
    AdjacencyArrays,
    aggregate_cooccurrence,
    gather_row_positions,
    merge_partial_pairs,
    pairs_to_symmetric_csr,
)
from repro.hypergraph.hypergraph import _node_sort_key

Node = Hashable

__all__ = ["DeltaStats", "DeltaState", "initial_state", "apply_delta"]


@dataclass(frozen=True)
class DeltaStats:
    """Work accounting for one applied delta.

    ``affected_anchors`` is the number of anchors re-run through the exact
    kernel on the new graph (old invalidated anchors plus every added
    edge); ``invalidated_anchors`` counts only the old ones, whose stale
    contribution is also recomputed on the old graph and subtracted.
    """

    added_edges: int
    added_nodes: int
    invalidated_anchors: int
    affected_anchors: int
    pairs_added: int
    total_edges: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "added_edges": self.added_edges,
            "added_nodes": self.added_nodes,
            "invalidated_anchors": self.invalidated_anchors,
            "affected_anchors": self.affected_anchors,
            "pairs_added": self.pairs_added,
            "total_edges": self.total_edges,
        }


class DeltaState:
    """Mutable incremental-counting state for one growing hypergraph.

    Holds the CSR layout, the aggregated projection pairs, the symmetric
    adjacency and the running exact counts. :func:`apply_delta` advances
    the state in place and returns per-delta work stats. ``counts`` is the
    exact length-26 vector for the current graph at all times.
    """

    __slots__ = (
        "node_ids",
        "csr",
        "adjacency",
        "pair_keys",
        "pair_counts",
        "counts",
    )

    def __init__(
        self,
        node_ids: Dict[Node, int],
        csr: HypergraphCSR,
        adjacency: AdjacencyArrays,
        pair_keys: np.ndarray,
        pair_counts: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.node_ids = node_ids
        self.csr = csr
        self.adjacency = adjacency
        self.pair_keys = pair_keys
        self.pair_counts = pair_counts
        self.counts = counts

    @property
    def num_edges(self) -> int:
        return self.csr.num_edges


def _empty_csr() -> HypergraphCSR:
    zero = np.zeros(1, dtype=INDEX_DTYPE)
    empty = np.empty(0, dtype=INDEX_DTYPE)
    for array in (zero, empty):
        array.setflags(write=False)
    return HypergraphCSR(
        num_edges=0,
        num_nodes=0,
        edge_ptr=zero,
        edge_nodes=empty,
        node_ptr=zero,
        node_edges=empty,
        edge_sizes=empty,
    )


def initial_state(hyperedges: Iterable[Iterable[Node]] = ()) -> DeltaState:
    """A fresh state counted from scratch over *hyperedges*.

    The initial count runs through :func:`apply_delta` against an empty
    graph — the incremental and from-scratch paths are literally the same
    code, which is what makes the bit-identity claim easy to trust.
    """
    empty_keys = np.empty(0, dtype=np.int64)
    state = DeltaState(
        node_ids={},
        csr=_empty_csr(),
        adjacency=AdjacencyArrays(
            0,
            np.zeros(1, dtype=np.int64),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
        ),
        pair_keys=empty_keys,
        pair_counts=empty_keys.copy(),
        counts=np.zeros(26, dtype=np.float64),
    )
    edges = list(hyperedges)
    if edges:
        apply_delta(state, edges)
    return state


def _append_edge_rows(
    state: DeltaState, added: List[FrozenSet[Node]]
) -> Tuple[List[np.ndarray], int]:
    """Assign dense ids to unseen nodes and return the new sorted edge rows."""
    node_ids = state.node_ids
    added_nodes = 0
    rows: List[np.ndarray] = []
    for position, edge in enumerate(added):
        if not edge:
            raise EmptyHyperedgeError(
                f"delta hyperedge at position {position} is empty"
            )
        fresh = sorted(
            (node for node in edge if node not in node_ids), key=_node_sort_key
        )
        for node in fresh:
            node_ids[node] = len(node_ids)
        added_nodes += len(fresh)
        row = np.fromiter(
            sorted(node_ids[node] for node in edge),
            dtype=INDEX_DTYPE,
            count=len(edge),
        )
        rows.append(row)
    return rows, added_nodes


def _extend_csr(
    state: DeltaState, rows: List[np.ndarray]
) -> HypergraphCSR:
    """The CSR layout of the grown graph: old rows with *rows* appended."""
    old = state.csr
    num_edges = old.num_edges + len(rows)
    num_nodes = len(state.node_ids)
    edge_nodes = np.concatenate([old.edge_nodes, *rows])
    new_sizes = np.fromiter(
        (row.size for row in rows), dtype=INDEX_DTYPE, count=len(rows)
    )
    edge_sizes = np.concatenate([old.edge_sizes, new_sizes])
    total = int(edge_sizes.astype(np.int64).sum())
    if total > np.iinfo(INDEX_DTYPE).max:
        raise OverflowError(
            f"total incidence {total} exceeds the int32 CSR layout limit "
            f"({np.iinfo(INDEX_DTYPE).max})"
        )
    edge_ptr = np.zeros(num_edges + 1, dtype=INDEX_DTYPE)
    edge_ptr[1:] = np.cumsum(edge_sizes)

    # Transpose to node→edges rows exactly as build_csr does: one stable
    # sort on the (node, edge) key keeps per-node rows sorted by edge id.
    owner = np.repeat(np.arange(num_edges, dtype=INDEX_DTYPE), edge_sizes)
    node_key = edge_nodes.astype(np.int64) * max(num_edges, 1) + owner
    node_order = np.argsort(node_key, kind="stable")
    node_edges = owner[node_order]
    node_ptr = np.zeros(num_nodes + 1, dtype=INDEX_DTYPE)
    node_ptr[1:] = np.cumsum(np.bincount(edge_nodes, minlength=num_nodes))

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


def _new_pairs(
    csr: HypergraphCSR, touched: np.ndarray, first_new_edge: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregated ``(keys, weights)`` of projected pairs involving added edges.

    Runs the standard co-occurrence aggregation over the *new* membership
    rows of the touched nodes only, then keeps the pairs whose upper
    column is an added edge (``j >= first_new_edge``). Rows are
    upper-triangular (``i < j``) and added edges hold the largest indices,
    so that filter is exactly "involves an added edge"; the surviving
    multiplicities are complete weights because every node shared with an
    added edge is touched.
    """
    if touched.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    positions, _ = gather_row_positions(csr.node_ptr, touched)
    sub_edges = csr.node_edges[positions]
    lengths = (csr.node_ptr[touched + 1] - csr.node_ptr[touched]).astype(
        np.int64
    )
    sub_ptr = np.zeros(touched.size + 1, dtype=np.int64)
    sub_ptr[1:] = np.cumsum(lengths)
    keys, counts = aggregate_cooccurrence(sub_ptr, sub_edges, csr.num_edges)
    scale = np.int64(max(csr.num_edges, 1))
    involves_new = (keys % scale) >= first_new_edge
    return keys[involves_new], counts[involves_new]


def apply_delta(
    state: DeltaState, added_edges: Iterable[Iterable[Node]]
) -> DeltaStats:
    """Grow *state* by the added hyperedges and update its exact counts.

    The added edges are appended after the existing ones (their indices
    continue the current numbering). Counts, projection pairs, adjacency
    and CSR arrays are all advanced in place; the returned stats describe
    how much work the delta actually required.
    """
    added = [frozenset(edge) for edge in added_edges]
    if not added:
        return DeltaStats(0, 0, 0, 0, 0, state.num_edges)

    first_new_edge = state.num_edges
    rows, added_nodes = _append_edge_rows(state, added)
    new_csr = _extend_csr(state, rows)

    touched = np.unique(np.concatenate(rows)).astype(np.int64)
    new_keys, new_counts = _new_pairs(new_csr, touched, first_new_edge)

    # Re-key the surviving old pairs from the old edge scale to the new
    # one; the i·|E|+j encoding is lexicographic in (i, j) under either
    # scale, so the re-keyed array stays sorted.
    old_scale = np.int64(max(first_new_edge, 1))
    new_scale = np.int64(max(new_csr.num_edges, 1))
    rekeyed = (
        (state.pair_keys // old_scale) * new_scale
        + state.pair_keys % old_scale
    )
    pair_keys, pair_counts = merge_partial_pairs(
        ((rekeyed, state.pair_counts), (new_keys, new_counts))
    )
    adjacency = AdjacencyArrays(
        new_csr.num_edges,
        *pairs_to_symmetric_csr(pair_keys, pair_counts, new_csr.num_edges),
    )

    # Affected anchors: every added edge, plus each old edge that gained a
    # neighbor (it appears as the row of a new upper-triangle pair — the
    # column is always >= first_new_edge, hence never an old edge).
    anchor_rows = new_keys // new_scale
    invalidated = np.unique(anchor_rows[anchor_rows < first_new_edge])
    affected = np.concatenate(
        [invalidated, np.arange(first_new_edge, new_csr.num_edges, dtype=np.int64)]
    )

    gained = count_exact_batched(new_csr, adjacency, affected)
    if invalidated.size:
        stale = count_exact_batched(state.csr, state.adjacency, invalidated)
        state.counts = state.counts + gained - stale
    else:
        state.counts = state.counts + gained

    state.csr = new_csr
    state.adjacency = adjacency
    state.pair_keys = pair_keys
    state.pair_counts = pair_counts
    return DeltaStats(
        added_edges=len(added),
        added_nodes=added_nodes,
        invalidated_anchors=int(invalidated.size),
        affected_anchors=int(affected.size),
        pairs_added=int(new_keys.size),
        total_edges=new_csr.num_edges,
    )
