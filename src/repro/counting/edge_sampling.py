"""MoCHy-A: approximate counting via hyperedge sampling (paper Algorithm 4).

``s`` hyperedges are sampled uniformly at random with replacement. For each
sampled hyperedge ``e_i``, every h-motif instance containing ``e_i`` is
visited exactly once (by iterating over ``e_j ∈ N(e_i)`` and
``e_k ∈ N(e_i) ∪ N(e_j)`` with the ``k ∉ N(e_i) or j < k`` filter) and the
corresponding counter is incremented. Since each instance contains three
hyperedges, it is counted ``3s/|E|`` times in expectation, so multiplying by
``|E| / (3s)`` yields an unbiased estimate (Theorem 2).

Both the array-backed :class:`~repro.projection.ProjectedGraph` and the
budgeted lazy projection run the per-sample visit through the batched
fast-core kernel (:func:`repro.fastcore.count_containing_batched`); other
neighborhood providers raise :class:`~repro.exceptions.ProjectionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.counting.classification import NeighborhoodProvider
from repro.counting.parallel import fan_out
from repro.exceptions import SamplingError
from repro.fastcore.kernels import count_containing_batched
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.projection.builder import project
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class EdgeSamplingResult:
    """Outcome of one MoCHy-A run."""

    estimates: MotifCounts
    num_samples: int
    raw_increments: float


def count_approx_edge_sampling(
    hypergraph: Hypergraph,
    num_samples: int,
    projection: Optional[NeighborhoodProvider] = None,
    seed: SeedLike = None,
    sampled_indices: Optional[Sequence[int]] = None,
    num_workers: int = 1,
) -> MotifCounts:
    """Unbiased estimates of h-motif counts via hyperedge sampling (MoCHy-A).

    Parameters
    ----------
    hypergraph:
        The input hypergraph.
    num_samples:
        The number ``s`` of hyperedges sampled with replacement; must be >= 1.
    projection:
        Pre-built projection (full or lazy); built when omitted.
    seed:
        Randomness for sampling.
    sampled_indices:
        Explicit sample of hyperedge indices, intended for tests; when
        provided, ``num_samples`` must equal its length.
    num_workers:
        Split the drawn sample over this many worker processes
        (:func:`repro.counting.parallel.fan_out`); the estimates are
        bit-identical to one worker.
    """
    return run_edge_sampling(
        hypergraph, num_samples, projection, seed, sampled_indices, num_workers
    ).estimates


def run_edge_sampling(
    hypergraph: Hypergraph,
    num_samples: int,
    projection: Optional[NeighborhoodProvider] = None,
    seed: SeedLike = None,
    sampled_indices: Optional[Sequence[int]] = None,
    num_workers: int = 1,
) -> EdgeSamplingResult:
    """As :func:`count_approx_edge_sampling` but returning sampling metadata."""
    require_positive_int(num_samples, "num_samples")
    require_positive_int(num_workers, "num_workers")
    num_hyperedges = hypergraph.num_hyperedges
    if num_hyperedges == 0:
        raise SamplingError("cannot sample hyperedges from an empty hypergraph")
    if projection is None:
        projection = project(hypergraph)
    if sampled_indices is None:
        rng = ensure_rng(seed)
        sampled_indices = rng.integers(0, num_hyperedges, size=num_samples).tolist()
    elif len(sampled_indices) != num_samples:
        raise SamplingError(
            f"sampled_indices has length {len(sampled_indices)} but num_samples is {num_samples}"
        )

    raw = accumulate_containing(hypergraph, projection, sampled_indices, num_workers)
    raw_total = raw.total()
    # Rescale: each instance is counted 3s/|E| times in expectation.
    estimates = raw.scaled(num_hyperedges / (3.0 * num_samples))
    return EdgeSamplingResult(
        estimates=estimates, num_samples=num_samples, raw_increments=raw_total
    )


def accumulate_containing(
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    anchors: Sequence[int],
    num_workers: int = 1,
) -> MotifCounts:
    """Raw counts over all instances containing each anchor hyperedge.

    Each instance containing an anchor is visited exactly once per occurrence
    of that anchor in *anchors* (duplicates are intentional: sampling is with
    replacement).
    """
    return fan_out(
        count_containing_batched,
        hypergraph,
        projection,
        [int(anchor) for anchor in anchors],
        num_workers,
    )
