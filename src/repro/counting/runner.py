"""Legacy high-level entry points for h-motif counting.

.. deprecated::
    :func:`count_motifs` and :func:`run_counting` are kept as thin shims over
    :class:`repro.api.MotifEngine` so existing callers, tests and benchmarks
    keep working bit-identically. New code should construct an engine and a
    :class:`repro.api.CountSpec` directly — the engine caches the projection
    and memoizes results across workflows, which these one-shot functions
    cannot.

The algorithm-name constants and :func:`resolve_algorithm` remain the
canonical registry of MoCHy variant names (the spec layer builds on them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.exceptions import SamplingError
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.projection.projected_graph import ProjectedGraph
from repro.utils.rng import SeedLike

#: Supported algorithm names.
ALGORITHM_EXACT = "exact"
ALGORITHM_EDGE_SAMPLING = "edge-sampling"
ALGORITHM_WEDGE_SAMPLING = "wedge-sampling"
ALGORITHMS = (ALGORITHM_EXACT, ALGORITHM_EDGE_SAMPLING, ALGORITHM_WEDGE_SAMPLING)

#: Aliases matching the paper's algorithm names.
ALGORITHM_ALIASES = {
    "mochy-e": ALGORITHM_EXACT,
    "mochy-a": ALGORITHM_EDGE_SAMPLING,
    "mochy-a+": ALGORITHM_WEDGE_SAMPLING,
    ALGORITHM_EXACT: ALGORITHM_EXACT,
    ALGORITHM_EDGE_SAMPLING: ALGORITHM_EDGE_SAMPLING,
    ALGORITHM_WEDGE_SAMPLING: ALGORITHM_WEDGE_SAMPLING,
}


@dataclass(frozen=True)
class CountingRun:
    """Result of one counting run, with timing metadata."""

    counts: MotifCounts
    algorithm: str
    num_samples: Optional[int]
    projection_seconds: float
    counting_seconds: float

    @property
    def total_seconds(self) -> float:
        """Projection plus counting time."""
        return self.projection_seconds + self.counting_seconds


def resolve_algorithm(name: str) -> str:
    """Normalize an algorithm name or paper alias (case-insensitive)."""
    key = name.strip().lower()
    if key not in ALGORITHM_ALIASES:
        raise SamplingError(
            f"unknown algorithm {name!r}; choose from "
            f"{sorted(set(ALGORITHM_ALIASES))}"
        )
    return ALGORITHM_ALIASES[key]


def count_motifs(
    hypergraph: Hypergraph,
    algorithm: str = ALGORITHM_EXACT,
    num_samples: Optional[int] = None,
    sampling_ratio: Optional[float] = None,
    num_workers: int = 1,
    seed: SeedLike = None,
    projection: Optional[ProjectedGraph] = None,
) -> MotifCounts:
    """Count (or estimate) the instances of every h-motif in *hypergraph*.

    .. deprecated:: use :meth:`repro.api.MotifEngine.count`; this shim builds
       a throwaway engine per call.

    Parameters
    ----------
    algorithm:
        ``"exact"`` (MoCHy-E), ``"edge-sampling"`` (MoCHy-A) or
        ``"wedge-sampling"`` (MoCHy-A+); the paper names are accepted as
        aliases.
    num_samples / sampling_ratio:
        For the approximate algorithms, either an explicit sample count or a
        ratio of the population size (``s = ratio · |E|`` for MoCHy-A,
        ``r = ratio · |∧|`` for MoCHy-A+). Exactly one may be given; the
        default ratio is 0.1.
    num_workers:
        Worker processes the counter splits its work over; results are
        bit-identical for every value.
    """
    return run_counting(
        hypergraph,
        algorithm=algorithm,
        num_samples=num_samples,
        sampling_ratio=sampling_ratio,
        num_workers=num_workers,
        seed=seed,
        projection=projection,
    ).counts


def run_counting(
    hypergraph: Hypergraph,
    algorithm: str = ALGORITHM_EXACT,
    num_samples: Optional[int] = None,
    sampling_ratio: Optional[float] = None,
    num_workers: int = 1,
    seed: SeedLike = None,
    projection: Optional[ProjectedGraph] = None,
) -> CountingRun:
    """As :func:`count_motifs`, but also reporting timing metadata.

    .. deprecated:: use :meth:`repro.api.MotifEngine.count`, whose
       :class:`repro.api.CountResult` carries the same metadata plus
       projection-cache information.
    """
    # Imported here: repro.api builds on the counting layer, so a module-level
    # import would be circular.
    from repro.api.config import CountSpec
    from repro.api.engine import MotifEngine

    spec = CountSpec(
        algorithm=algorithm,
        num_samples=num_samples,
        sampling_ratio=sampling_ratio,
        num_workers=num_workers,
        seed=seed,
    )
    result = MotifEngine(hypergraph, projection=projection).count(spec)
    return CountingRun(
        counts=result.counts,
        algorithm=result.algorithm,
        num_samples=result.num_samples,
        projection_seconds=result.projection_seconds,
        counting_seconds=result.counting_seconds,
    )
