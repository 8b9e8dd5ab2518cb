"""The one-call counting entry point and the registry of algorithm names.

:func:`count_motifs` is a thin shim over :class:`repro.api.MotifEngine`,
bit-identical to it. Code that counts more than once should construct an
engine and a :class:`repro.api.CountSpec` directly — the engine caches the
projection and memoizes results across workflows, which a one-shot function
cannot.

The algorithm-name constants and :func:`resolve_algorithm` remain the
canonical registry of MoCHy variant names (the spec layer builds on them).
"""

from __future__ import annotations

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
    return MotifEngine(hypergraph, projection=projection).count(spec).counts
