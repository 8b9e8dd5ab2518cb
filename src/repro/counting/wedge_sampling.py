"""MoCHy-A+: approximate counting via hyperwedge sampling (paper Algorithm 5).

``r`` hyperwedges (overlapping hyperedge pairs) are sampled uniformly at
random with replacement. For each sampled hyperwedge ``∧_ij``, every h-motif
instance containing both ``e_i`` and ``e_j`` is visited by scanning
``e_k ∈ N(e_i) ∪ N(e_j) \\ {e_i, e_j}``. A closed instance contains three
hyperwedges and an open instance two, so the raw counters are rescaled by
``|∧| / (3r)`` and ``|∧| / (2r)`` respectively, giving unbiased estimates
(Theorem 4). MoCHy-A+ has the same asymptotic cost as MoCHy-A at equal
sampling ratios but strictly smaller variance (Section 3.3), which is the
paper's headline algorithmic result.

Both the array-backed :class:`~repro.projection.ProjectedGraph` and the
budgeted :class:`~repro.projection.LazyProjection` (the point of
Section 3.4) draw the sample without materializing ``∧``: uniform positions
in the lexicographic hyperwedge order are mapped to ``(i, j)`` pairs by
``hyperwedges_at``, which needs only ``|E| + 1`` per-row offsets. The
per-wedge visit then runs through the batched fast-core kernel
(:func:`repro.fastcore.count_wedges_batched`) — for the lazy projection only
the row fetches honor the memoization budget; other neighborhood providers
raise :class:`~repro.exceptions.ProjectionError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.counting.classification import NeighborhoodProvider
from repro.counting.parallel import fan_out
from repro.exceptions import SamplingError
from repro.fastcore.kernels import count_wedges_batched
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.motifs.patterns import NUM_MOTIFS, open_motif_indices
from repro.projection.builder import project
from repro.projection.projected_graph import NeighborhoodRows
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int


@dataclass(frozen=True)
class WedgeSamplingResult:
    """Outcome of one MoCHy-A+ run."""

    estimates: MotifCounts
    num_samples: int
    num_hyperwedges: int
    raw_increments: float


def count_approx_wedge_sampling(
    hypergraph: Hypergraph,
    num_samples: int,
    projection: Optional[NeighborhoodProvider] = None,
    seed: SeedLike = None,
    hyperwedges: Optional[Sequence[Tuple[int, int]]] = None,
    sampled_wedges: Optional[Sequence[Tuple[int, int]]] = None,
    num_workers: int = 1,
) -> MotifCounts:
    """Unbiased estimates of h-motif counts via hyperwedge sampling (MoCHy-A+).

    Parameters are those of :func:`run_wedge_sampling`.
    """
    return run_wedge_sampling(
        hypergraph,
        num_samples,
        projection,
        seed,
        hyperwedges,
        sampled_wedges,
        num_workers,
    ).estimates


def run_wedge_sampling(
    hypergraph: Hypergraph,
    num_samples: int,
    projection: Optional[NeighborhoodProvider] = None,
    seed: SeedLike = None,
    hyperwedges: Optional[Sequence[Tuple[int, int]]] = None,
    sampled_wedges: Optional[Sequence[Tuple[int, int]]] = None,
    num_workers: int = 1,
) -> WedgeSamplingResult:
    """As :func:`count_approx_wedge_sampling` but returning sampling metadata.

    Parameters
    ----------
    hypergraph:
        The input hypergraph.
    num_samples:
        The number ``r`` of hyperwedges sampled with replacement; must be >= 1.
    projection:
        Pre-built projection. When a :class:`LazyProjection` is supplied the
        on-the-fly variant of Section 3.4 is effectively used: beyond one
        scan of every neighborhood for ``|∧|`` and the per-row offsets
        (within the memoization budget, nothing ``O(|∧|)`` kept), only
        hyperedges touched by sampled hyperwedges are fetched.
    seed:
        Randomness for sampling.
    hyperwedges:
        An explicit hyperwedge list ``∧``, indexed by the drawn positions.
        When omitted the positions are mapped through the projection's
        ``hyperwedges_at``, which yields the same wedges as indexing its
        ``hyperwedge_list()`` without building it.
    sampled_wedges:
        Explicit sample of hyperwedges, intended for tests; when provided,
        ``num_samples`` must equal its length.
    num_workers:
        Split the drawn sample over this many worker processes
        (:func:`repro.counting.parallel.fan_out`); the estimates are
        bit-identical to one worker.
    """
    require_positive_int(num_samples, "num_samples")
    require_positive_int(num_workers, "num_workers")
    if projection is None:
        projection = project(hypergraph)
    num_hyperwedges = (
        _num_hyperwedges(projection) if hyperwedges is None else len(hyperwedges)
    )
    if num_hyperwedges == 0:
        raise SamplingError(
            "the hypergraph has no hyperwedges (no two hyperedges overlap); "
            "there are no h-motif instances to estimate"
        )
    if sampled_wedges is None:
        rng = ensure_rng(seed)
        positions = rng.integers(0, num_hyperwedges, size=num_samples)
        if hyperwedges is None:
            sampled_wedges = projection.hyperwedges_at(positions)
        else:
            sampled_wedges = [hyperwedges[int(position)] for position in positions]
    elif len(sampled_wedges) != num_samples:
        raise SamplingError(
            f"sampled_wedges has length {len(sampled_wedges)} but num_samples is {num_samples}"
        )

    raw = accumulate_containing_wedges(
        hypergraph, projection, sampled_wedges, num_workers
    )
    raw_total = raw.total()
    estimates = _rescale(raw, num_hyperwedges, num_samples)
    return WedgeSamplingResult(
        estimates=estimates,
        num_samples=num_samples,
        num_hyperwedges=num_hyperwedges,
        raw_increments=raw_total,
    )


def _num_hyperwedges(projection: NeighborhoodProvider) -> int:
    if isinstance(projection, NeighborhoodRows):
        return projection.num_hyperwedges
    raise SamplingError(
        "cannot enumerate hyperwedges from this projection type; "
        "pass the hyperwedge list explicitly"
    )


def accumulate_containing_wedges(
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    wedges: Sequence[Tuple[int, int]],
    num_workers: int = 1,
) -> MotifCounts:
    """Raw counts over all instances containing each sampled hyperwedge.

    *wedges* is a sequence of ``(i, j)`` pairs or an ``(n, 2)`` array.
    """
    return fan_out(count_wedges_batched, hypergraph, projection, wedges, num_workers)


def _rescale(raw: MotifCounts, num_hyperwedges: int, num_samples: int) -> MotifCounts:
    open_indices = set(open_motif_indices())
    factors = {}
    for index in range(1, NUM_MOTIFS + 1):
        if index in open_indices:
            factors[index] = num_hyperwedges / (2.0 * num_samples)
        else:
            factors[index] = num_hyperwedges / (3.0 * num_samples)
    return raw.scaled_per_motif(factors)
