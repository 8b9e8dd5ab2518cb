"""Per-triple classification and the counters' kernel seam.

:func:`classify_triple` computes ``h({e_i, e_j, e_k})`` for one triple drawn
from the projected graph: hyperedge sizes come from the hypergraph, pairwise
overlaps from the projection (hyperwedge weights ``ω``), and the triple
overlap is computed by scanning the smallest hyperedge (Lemma 2). It serves
the instance-level walk (``enumerate_instances``) and the test oracle in
:mod:`repro.fastcore.reference`. The counters themselves run the batched
fast-core kernels, reached through :func:`kernel_source`, and have no
per-triple fallback.
"""

from __future__ import annotations

from typing import Protocol

from repro.exceptions import ProjectionError
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.classify import classify_instance


class NeighborhoodProvider(Protocol):
    """The projection interface the counters rely on.

    Both :class:`repro.projection.ProjectedGraph` and
    :class:`repro.projection.LazyProjection` satisfy it. The counters
    additionally need the block interface of :func:`kernel_source`; the
    per-triple walks of ``enumerate_instances`` and
    :mod:`repro.fastcore.reference` need only these two methods.
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
    the counters' fan-out ships to worker processes.
    """
    getter = getattr(projection, "adjacency_arrays", None)
    return getter() if getter is not None else None


#: Methods a provider must expose to drive the batched block kernels.
_KERNEL_SOURCE_METHODS = ("gather_rows", "row_lengths", "pair_weights")


def kernel_source(projection: NeighborhoodProvider):
    """The block-kernel source every counter runs on.

    Full projections resolve to their
    :class:`~repro.fastcore.projection.AdjacencyArrays`; any other provider
    implementing the gather/lookup interface (today
    :class:`repro.projection.LazyProjection`) is consumed directly, so the
    memory-budgeted projection runs the same vectorized sweeps. A provider
    with neither raises :class:`~repro.exceptions.ProjectionError` naming
    the methods it lacks.
    """
    arrays = fast_adjacency(projection)
    if arrays is not None:
        return arrays
    missing = [
        name for name in _KERNEL_SOURCE_METHODS if not hasattr(projection, name)
    ]
    if missing:
        raise ProjectionError(
            f"{type(projection).__name__} cannot drive the block kernels: it "
            f"lacks adjacency_arrays and {', '.join(missing)}"
        )
    return projection


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
    # Query overlaps from the endpoints whose neighborhoods the calling
    # algorithm has already touched (i and j): with a lazy projection this
    # avoids materializing the neighborhood of every candidate e_k.
    return classify_instance(
        hypergraph.hyperedge(i),
        hypergraph.hyperedge(j),
        hypergraph.hyperedge(k),
        projection.overlap(i, j),
        projection.overlap(j, k),
        projection.overlap(i, k),
    )
