"""Variance analysis of the MoCHy samplers (paper Theorems 2 and 4).

The variances of the unbiased estimators depend on how many pairs of h-motif
instances share hyperedges (``p_l[t]`` for MoCHy-A) or hyperwedges
(``q_n[t]`` for MoCHy-A+). This module computes those overlap statistics by
exact enumeration (feasible for the small/medium hypergraphs used in tests and
benchmarks) and evaluates the closed-form variance expressions, enabling the
MoCHy-A vs. MoCHy-A+ comparison of Section 3.3 to be verified numerically.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.counting.exact import enumerate_instances
from repro.counting.classification import NeighborhoodProvider
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.motifs.patterns import NUM_MOTIFS, motif_is_open
from repro.projection.builder import project


@dataclass(frozen=True)
class OverlapStatistics:
    """Instance-overlap statistics of one hypergraph.

    Attributes
    ----------
    counts:
        Exact motif counts ``M[t]``.
    pairs_sharing_edges:
        ``p_l[t]`` — for each motif ``t``, a dict ``l -> number of unordered
        pairs of its instances sharing exactly ``l`` hyperedges (``l`` in 0..2).
    pairs_sharing_wedges:
        ``q_n[t]`` — for each motif ``t``, a dict ``n -> number of unordered
        pairs of its instances sharing exactly ``n`` hyperwedges (``n`` in 0..1).
    num_hyperedges:
        ``|E|`` of the hypergraph.
    num_hyperwedges:
        ``|∧|`` of the hypergraph.
    """

    counts: MotifCounts
    pairs_sharing_edges: Dict[int, Dict[int, int]]
    pairs_sharing_wedges: Dict[int, Dict[int, int]]
    num_hyperedges: int
    num_hyperwedges: int


def compute_overlap_statistics(
    hypergraph: Hypergraph, projection: Optional[NeighborhoodProvider] = None
) -> OverlapStatistics:
    """Enumerate all instances and compute ``M[t]``, ``p_l[t]`` and ``q_n[t]``.

    For each motif ``t``:

    * ``Σ_e C(c_e, 2)`` over hyperedges ``e`` (where ``c_e`` is the number of
      ``t``-instances containing ``e``) counts pairs sharing one hyperedge once
      and pairs sharing two hyperedges twice, so ``p_1 = Σ_e C(c_e,2) - 2 p_2``;
    * ``p_2 = Σ_{(a,b)} C(c_{ab}, 2)`` over hyperedge pairs contained together;
    * two distinct instances can share at most one hyperwedge, so
      ``q_1 = Σ_w C(c_w, 2)`` over hyperwedges ``w``.
    """
    if projection is None:
        projection = project(hypergraph)
    counts = MotifCounts.zeros()
    per_edge: Dict[int, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
    per_pair: Dict[int, Dict[Tuple[int, int], int]] = defaultdict(lambda: defaultdict(int))
    per_wedge: Dict[int, Dict[Tuple[int, int], int]] = defaultdict(lambda: defaultdict(int))

    num_wedges = projection.num_hyperwedges
    for instance in enumerate_instances(hypergraph, projection):
        motif = instance.motif
        counts.increment(motif)
        i, j, k = instance.hyperedges
        for edge in (i, j, k):
            per_edge[motif][edge] += 1
        for a, b in ((i, j), (j, k), (i, k)):
            pair = (a, b) if a < b else (b, a)
            per_pair[motif][pair] += 1
            if projection.overlap(a, b) > 0:
                per_wedge[motif][pair] += 1

    pairs_sharing_edges: Dict[int, Dict[int, int]] = {}
    pairs_sharing_wedges: Dict[int, Dict[int, int]] = {}
    for motif in range(1, NUM_MOTIFS + 1):
        total = int(counts[motif])
        total_pairs = total * (total - 1) // 2
        share_two = sum(
            value * (value - 1) // 2 for value in per_pair[motif].values()
        )
        weighted = sum(value * (value - 1) // 2 for value in per_edge[motif].values())
        share_one = weighted - 2 * share_two
        share_zero = total_pairs - share_one - share_two
        pairs_sharing_edges[motif] = {0: share_zero, 1: share_one, 2: share_two}
        wedge_one = sum(
            value * (value - 1) // 2 for value in per_wedge[motif].values()
        )
        pairs_sharing_wedges[motif] = {0: total_pairs - wedge_one, 1: wedge_one}

    return OverlapStatistics(
        counts=counts,
        pairs_sharing_edges=pairs_sharing_edges,
        pairs_sharing_wedges=pairs_sharing_wedges,
        num_hyperedges=hypergraph.num_hyperedges,
        num_hyperwedges=num_wedges,
    )


def edge_sampling_variance(
    statistics: OverlapStatistics, motif: int, num_samples: int
) -> float:
    """Theoretical variance of the MoCHy-A estimate for *motif* (Theorem 2, Eq. 5).

    ``M(|E|-3)/(3s) + (2/(9s)) Σ_l p_l (l|E| - 9)``. The factor 2 is there
    because ``p_l`` counts *unordered* pairs of instances, while the
    variance of a sampled hyperedge's instance count sums over ordered ones.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    count = statistics.counts[motif]
    num_edges = statistics.num_hyperedges
    shares = statistics.pairs_sharing_edges[motif]
    first = count * (num_edges - 3) / (3.0 * num_samples)
    second = 2.0 * sum(
        shares[l] * (l * num_edges - 9) for l in (0, 1, 2)
    ) / (9.0 * num_samples)
    return first + second


def wedge_sampling_variance(
    statistics: OverlapStatistics, motif: int, num_samples: int
) -> float:
    """Theoretical variance of the MoCHy-A+ estimate for *motif* (Theorem 4, Eq. 7/8).

    ``M(|∧|-k)/(kr) + (2/(k²r)) Σ_n q_n (n|∧| - k²)``, where an instance
    holds ``k = 2`` hyperwedges for open motifs and ``k = 3`` for closed
    ones; the factor 2 turns the unordered pairs ``q_n`` into ordered ones.
    """
    if num_samples <= 0:
        raise ValueError("num_samples must be positive")
    count = statistics.counts[motif]
    num_wedges = statistics.num_hyperwedges
    shares = statistics.pairs_sharing_wedges[motif]
    k = 2 if motif_is_open(motif) else 3
    first = count * (num_wedges - k) / (k * num_samples)
    second = 2.0 * sum(
        shares[n] * (n * num_wedges - k * k) for n in (0, 1)
    ) / (k * k * num_samples)
    return first + second


def variance_comparison(
    statistics: OverlapStatistics, sampling_ratio: float
) -> List[Tuple[int, float, float]]:
    """Per-motif variances of MoCHy-A and MoCHy-A+ at an equal sampling ratio.

    ``sampling_ratio`` is the paper's ``α = s/|E| = r/|∧|``. Returns a list of
    ``(motif, variance_A, variance_A_plus)`` tuples, skipping motifs with no
    instances.
    """
    if sampling_ratio <= 0:
        raise ValueError("sampling_ratio must be positive")
    num_edge_samples = max(1, int(round(sampling_ratio * statistics.num_hyperedges)))
    num_wedge_samples = max(1, int(round(sampling_ratio * statistics.num_hyperwedges)))
    rows: List[Tuple[int, float, float]] = []
    for motif in range(1, NUM_MOTIFS + 1):
        if statistics.counts[motif] == 0:
            continue
        rows.append(
            (
                motif,
                edge_sampling_variance(statistics, motif, num_edge_samples),
                wedge_sampling_variance(statistics, motif, num_wedge_samples),
            )
        )
    return rows
