"""Shared instance-classification helper for the MoCHy counters.

Every counter ultimately needs ``h({e_i, e_j, e_k})`` for triples drawn from
the projected graph. This module centralizes that step so the exact and
approximate counters cannot drift apart: hyperedge sizes come from the
hypergraph, pairwise overlaps from the projection (hyperwedge weights ``ω``),
and the triple overlap is computed by scanning the smallest hyperedge
(Lemma 2).
"""

from __future__ import annotations

from typing import Protocol

from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.classify import classify_from_cardinalities, triple_overlap_size


class NeighborhoodProvider(Protocol):
    """The projection interface the counters rely on.

    Both :class:`repro.projection.ProjectedGraph` and
    :class:`repro.projection.LazyProjection` satisfy it. Providers that can
    additionally expose CSR adjacency arrays (via an ``adjacency_arrays()``
    method) are routed through the batched fast-core kernels; see
    :func:`fast_adjacency`.
    """

    def neighbors(self, i: int) -> dict:  # pragma: no cover - protocol
        ...

    def overlap(self, i: int, j: int) -> int:  # pragma: no cover - protocol
        ...


def fast_adjacency(projection: NeighborhoodProvider):
    """The provider's CSR adjacency arrays, or ``None`` if it has none.

    Any provider exposing ``adjacency_arrays()`` (today
    :class:`repro.projection.ProjectedGraph`) yields a fully materialized
    :class:`~repro.fastcore.projection.AdjacencyArrays` — the picklable form
    the parallel drivers ship to workers.
    """
    getter = getattr(projection, "adjacency_arrays", None)
    return getter() if getter is not None else None


#: Methods a provider must expose to drive the batched block kernels.
_KERNEL_SOURCE_METHODS = ("gather_rows", "row_lengths", "pair_weights")


def kernel_source(projection: NeighborhoodProvider):
    """A block-kernel source for *projection*, or ``None`` for the fallback.

    This is the single dispatch seam between the per-triple fallback loops
    and the batched fast-core kernels. Full projections resolve to their
    :class:`~repro.fastcore.projection.AdjacencyArrays`; any other provider
    implementing the gather/lookup interface (today
    :class:`repro.projection.LazyProjection`) is consumed directly, so the
    memory-budgeted projection runs the same vectorized sweeps. Providers
    with neither take the per-triple reference path.
    """
    arrays = fast_adjacency(projection)
    if arrays is not None:
        return arrays
    if all(hasattr(projection, name) for name in _KERNEL_SOURCE_METHODS):
        return projection
    return None


def classify_triple(
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    i: int,
    j: int,
    k: int,
) -> int:
    """Motif index of the instance ``{e_i, e_j, e_k}``.

    The caller is responsible for ensuring the triple is connected (which is
    guaranteed when ``j`` and ``k`` are drawn from neighborhoods as in the
    MoCHy algorithms); a disconnected or degenerate triple raises the same
    exceptions as :func:`repro.motifs.classify_instance`.
    """
    edge_i = hypergraph.hyperedge(i)
    edge_j = hypergraph.hyperedge(j)
    edge_k = hypergraph.hyperedge(k)
    # Query overlaps from the endpoints whose neighborhoods the calling
    # algorithm has already touched (i and j): with a lazy projection this
    # avoids materializing the neighborhood of every candidate e_k.
    overlap_ij = projection.overlap(i, j)
    overlap_jk = projection.overlap(j, k)
    overlap_ki = projection.overlap(i, k)
    overlap_ijk = triple_overlap_size(edge_i, edge_j, edge_k)
    return classify_from_cardinalities(
        len(edge_i),
        len(edge_j),
        len(edge_k),
        overlap_ij,
        overlap_jk,
        overlap_ki,
        overlap_ijk,
    )
