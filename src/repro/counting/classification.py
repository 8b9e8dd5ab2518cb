"""Per-triple classification and the per-triple projection protocol.

:func:`classify_triple` computes ``h({e_i, e_j, e_k})`` for one triple drawn
from the projected graph: hyperedge sizes come from the hypergraph, pairwise
overlaps from the projection (hyperwedge weights ``ω``), and the triple
overlap is computed by scanning the smallest hyperedge (Lemma 2). It serves
the instance-level walk (``enumerate_instances``) and the test oracle in
:mod:`repro.fastcore.reference`. The counters themselves run the batched
fast-core kernels on the projection (see
:func:`repro.counting.parallel.fan_out`) and have no per-triple fallback.
"""

from __future__ import annotations

from typing import Protocol

from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.classify import classify_instance


class NeighborhoodProvider(Protocol):
    """The projection interface the counters rely on.

    Both :class:`repro.projection.ProjectedGraph` and
    :class:`repro.projection.LazyProjection` satisfy it. The counters
    additionally need the block interface that both serve through their
    base class :class:`~repro.projection.projected_graph.NeighborhoodRows`;
    the per-triple walks of ``enumerate_instances`` and
    :mod:`repro.fastcore.reference` need only these two methods.
    """

    def neighbors(self, i: int) -> dict:  # pragma: no cover - protocol
        ...

    def overlap(self, i: int, j: int) -> int:  # pragma: no cover - protocol
        ...


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
