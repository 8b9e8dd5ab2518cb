"""MoCHy-E: exact h-motif counting and enumeration (paper Algorithms 2 and 3).

For every hyperedge ``e_i`` and every unordered pair ``{e_j, e_k}`` of its
neighbors in the projected graph, the triple ``{e_i, e_j, e_k}`` is an h-motif
instance. An open instance (``e_j ∩ e_k = ∅``) is seen only from its center
``e_i``; a closed instance is seen from each of its three hyperedges, so it is
counted only when ``i < min(j, k)``. This guarantees every instance is counted
exactly once. Complexity is ``O(Σ_i |N_{e_i}|² · |e_i|)`` (Theorem 1).

``count_exact`` runs the batched fast-core kernel
(:func:`repro.fastcore.count_exact_batched`) over a projection that serves
the block gather interface — the array-backed
:class:`~repro.projection.ProjectedGraph` and the budgeted
:class:`~repro.projection.LazyProjection` both do; any other provider
raises :class:`~repro.exceptions.ProjectionError`. The kernel counts open
instances from per-row histograms and meets each closed one once, from its
minimum hyperedge. The per-triple walk remains only as the instance-level
API (``enumerate_instances``) and in :mod:`repro.fastcore.reference`; both
produce bit-identical full counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.counting.classification import NeighborhoodProvider, classify_triple
from repro.counting.parallel import fan_out
from repro.fastcore.kernels import count_exact_batched
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.projection.builder import project
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class MotifInstance:
    """One h-motif instance: the three hyperedge indices and its motif id."""

    hyperedges: Tuple[int, int, int]
    motif: int


def count_exact(
    hypergraph: Hypergraph,
    projection: Optional[NeighborhoodProvider] = None,
    hyperedge_indices: Optional[Iterable[int]] = None,
    num_workers: int = 1,
) -> MotifCounts:
    """Exact counts of every h-motif's instances (MoCHy-E).

    Parameters
    ----------
    hypergraph:
        The input hypergraph ``G``.
    projection:
        Pre-built projected graph; built with Algorithm 1 when omitted.
    hyperedge_indices:
        Restrict the outer loop to these hyperedge indices. Returns the sum
        of their *shares* (see :func:`repro.fastcore.count_exact_batched`),
        not the instances attributed to them: a share can hold negative
        entries, but shares over any partition of the hyperedges sum to the
        full count.
    num_workers:
        Split the hyperedges over this many worker processes
        (:func:`repro.counting.parallel.fan_out`); the counts are
        bit-identical to one worker.
    """
    require_positive_int(num_workers, "num_workers")
    if projection is None:
        projection = project(hypergraph)
    if hyperedge_indices is None:
        hyperedge_indices = np.arange(hypergraph.num_hyperedges)
    return fan_out(
        count_exact_batched, hypergraph, projection, hyperedge_indices, num_workers
    )


def enumerate_instances(
    hypergraph: Hypergraph,
    projection: Optional[NeighborhoodProvider] = None,
    hyperedge_indices: Optional[Iterable[int]] = None,
) -> Iterator[MotifInstance]:
    """Enumerate every h-motif instance exactly once (MoCHy-E-ENUM).

    Yields :class:`MotifInstance` objects; this is the per-triple reference
    path — use :func:`count_exact` when only the counts are needed.
    """
    if projection is None:
        projection = project(hypergraph)
    if hyperedge_indices is None:
        hyperedge_indices = range(hypergraph.num_hyperedges)
    for i in hyperedge_indices:
        neighbors = sorted(projection.neighbors(i))
        for position, j in enumerate(neighbors):
            for k in neighbors[position + 1 :]:
                overlap_jk = projection.overlap(j, k)
                if overlap_jk == 0 or i < min(j, k):
                    motif = classify_triple(hypergraph, projection, i, j, k)
                    yield MotifInstance(hyperedges=(i, j, k), motif=motif)


def count_instances_containing(
    hypergraph: Hypergraph,
    hyperedge_index: int,
    projection: Optional[NeighborhoodProvider] = None,
) -> MotifCounts:
    """Counts of instances that contain the given hyperedge.

    This is the per-hyperedge feature used by the hyperedge-prediction
    application (paper Section 4.4, feature set HM26): entry ``t`` is the
    number of h-motif ``t`` instances containing ``e_{hyperedge_index}``.
    Each instance containing the hyperedge is visited exactly once, as in
    MoCHy-A for a single sample (without rescaling).
    """
    from repro.counting.edge_sampling import accumulate_containing

    if projection is None:
        projection = project(hypergraph)
    return accumulate_containing(hypergraph, projection, (int(hyperedge_index),))
