"""Parallel MoCHy counters (paper Section 3.4, Figure 10).

The paper parallelizes all MoCHy versions by letting threads process different
hyperedges (MoCHy-E / MoCHy-A) or hyperwedges (MoCHy-A+) independently and
summing the per-thread counters once at the end. The same structure is used
here with ``concurrent.futures``:

* ``ProcessPoolExecutor`` (the default) gives real speedups for CPU-bound
  counting. Workers receive only the CSR arrays of the hypergraph and of the
  (built-once) projection — plain NumPy buffers — never a pickled frozenset
  graph, and run the batched fast-core kernels directly;
* ``ThreadPoolExecutor`` mirrors the paper's shared-memory threading and is
  useful when the GIL is released (or simply to validate the decomposition);
  threads share the parent's structures with no copying at all.

Correctness does not depend on the executor. For MoCHy-E each worker returns
the *shares* of its hyperedges (see :func:`repro.fastcore.count_exact_batched`),
which sum to the full count over any partition of the hyperedges, though one
worker's partial counts may hold negative entries. MoCHy-A / MoCHy-A+ keep
the i.i.d. sampling semantics.

MoCHy-E chunks are contiguous index ranges and carry unequal work: each
closed instance is corrected from its minimum hyperedge, so low-index
anchors hold most of the pairs above the diagonal. Rebalancing the chunks
is left open.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.fastcore.csr import HypergraphCSR
from repro.fastcore.kernels import (
    count_containing_batched,
    count_exact_batched,
    count_wedges_batched,
)
from repro.fastcore.projection import AdjacencyArrays
from repro.counting.classification import NeighborhoodProvider, fast_adjacency
from repro.counting.edge_sampling import count_approx_edge_sampling
from repro.counting.exact import count_exact
from repro.counting.wedge_sampling import (
    _num_hyperwedges,
    _rescale,
    count_approx_wedge_sampling,
)
from repro.exceptions import SamplingError
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts, aggregate_counts
from repro.projection.builder import project
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive_int

#: Executor backends supported by the parallel counters.
BACKEND_PROCESS = "process"
BACKEND_THREAD = "thread"
_BACKENDS = (BACKEND_PROCESS, BACKEND_THREAD)


def _check_backend(backend: str) -> None:
    if backend not in _BACKENDS:
        raise ValueError(f"backend must be one of {_BACKENDS}, got {backend!r}")


def make_executor(backend: str, num_workers: int) -> Executor:
    """A ``concurrent.futures`` executor for one of the supported backends.

    Shared by the parallel counters here and the batch-serving executors in
    :mod:`repro.store.executors`, so every parallel layer spells backend
    names and pool construction the same way.
    """
    _check_backend(backend)
    if backend == BACKEND_PROCESS:
        return ProcessPoolExecutor(max_workers=num_workers)
    return ThreadPoolExecutor(max_workers=num_workers)


def _split_evenly(items: Sequence, parts: int) -> List[Sequence]:
    """Split *items* into at most *parts* non-empty contiguous chunks."""
    parts = min(parts, len(items)) if len(items) else 1
    chunks: List[Sequence] = []
    base, remainder = divmod(len(items), parts)
    start = 0
    for index in range(parts):
        length = base + (1 if index < remainder else 0)
        if length:
            chunks.append(items[start : start + length])
        start += length
    return chunks


def _worker_adjacency(
    hypergraph: Hypergraph, projection: Optional[NeighborhoodProvider]
) -> AdjacencyArrays:
    """CSR adjacency arrays to ship to the workers.

    A provider without arrays (e.g. a budgeted LazyProjection) cannot be
    split across workers, so a full projection is built instead — matching
    the pre-fastcore process backend, whose workers always re-projected the
    whole hypergraph. Results are identical either way.
    """
    if projection is not None:
        arrays = fast_adjacency(projection)
        if arrays is not None:
            return arrays
    return project(hypergraph).adjacency_arrays()


def _fan_out(
    backend: str,
    num_workers: int,
    worker,
    csr: HypergraphCSR,
    adjacency: AdjacencyArrays,
    chunks: Sequence[Sequence],
) -> List[MotifCounts]:
    """Run ``worker(csr, adjacency, chunk)`` for every chunk on the backend.

    Both arguments are plain-array containers, so the process backend ships
    NumPy buffers only; the thread backend shares them directly.
    """
    with make_executor(backend, num_workers) as executor:
        futures = [
            executor.submit(worker, csr, adjacency, chunk) for chunk in chunks
        ]
        return [future.result() for future in futures]


# ------------------------------------------------------------------- MoCHy-E
def _exact_worker(
    csr: HypergraphCSR, adjacency: AdjacencyArrays, indices: Sequence[int]
) -> MotifCounts:
    return MotifCounts(count_exact_batched(csr, adjacency, indices))


def count_exact_parallel(
    hypergraph: Hypergraph,
    num_workers: int = 2,
    projection: Optional[NeighborhoodProvider] = None,
    backend: str = BACKEND_PROCESS,
) -> MotifCounts:
    """Exact counts using *num_workers* workers.

    The projection is built once in the parent; hyperedge indices are split
    into contiguous chunks and each worker runs the batched MoCHy-E kernel
    restricted to its chunk over the shipped CSR arrays. The per-worker
    shares are summed; results are identical to
    :func:`repro.counting.count_exact`.
    """
    require_positive_int(num_workers, "num_workers")
    _check_backend(backend)
    if num_workers == 1 or hypergraph.num_hyperedges < 2 * num_workers:
        return count_exact(hypergraph, projection)
    chunks = _split_evenly(list(range(hypergraph.num_hyperedges)), num_workers)
    if (
        backend == BACKEND_THREAD
        and projection is not None
        and fast_adjacency(projection) is None
    ):
        # Threads can share a budgeted provider (e.g. LazyProjection) without
        # materializing the full projection — preserve its memory bound by
        # running the provider-agnostic counter per chunk.
        with make_executor(backend, num_workers) as executor:
            futures = [
                executor.submit(count_exact, hypergraph, projection, chunk)
                for chunk in chunks
            ]
            return aggregate_counts(future.result() for future in futures)
    partials = _fan_out(
        backend,
        num_workers,
        _exact_worker,
        hypergraph.csr(),
        _worker_adjacency(hypergraph, projection),
        chunks,
    )
    return aggregate_counts(partials)


# ------------------------------------------------------------------- MoCHy-A
def _edge_sampling_worker(
    csr: HypergraphCSR, adjacency: AdjacencyArrays, sample: Sequence[int]
) -> MotifCounts:
    """Raw (unscaled) increments for one chunk of sampled hyperedges."""
    return MotifCounts(count_containing_batched(csr, adjacency, sample))


def count_approx_edge_sampling_parallel(
    hypergraph: Hypergraph,
    num_samples: int,
    num_workers: int = 2,
    seed: SeedLike = None,
    backend: str = BACKEND_PROCESS,
    projection: Optional[NeighborhoodProvider] = None,
) -> MotifCounts:
    """MoCHy-A with the sample split across *num_workers* workers."""
    require_positive_int(num_samples, "num_samples")
    require_positive_int(num_workers, "num_workers")
    _check_backend(backend)
    if hypergraph.num_hyperedges == 0:
        raise SamplingError("cannot sample hyperedges from an empty hypergraph")
    rng = ensure_rng(seed)
    sample = rng.integers(0, hypergraph.num_hyperedges, size=num_samples).tolist()
    if num_workers == 1:
        return count_approx_edge_sampling(
            hypergraph,
            num_samples,
            projection=projection,
            seed=None,
            sampled_indices=sample,
        )
    chunks = _split_evenly(sample, num_workers)
    partials = _fan_out(
        backend,
        num_workers,
        _edge_sampling_worker,
        hypergraph.csr(),
        _worker_adjacency(hypergraph, projection),
        chunks,
    )
    raw = aggregate_counts(partials)
    # Rescale once over the full sample: each instance is counted 3s/|E| times
    # in expectation (Theorem 2).
    return raw.scaled(hypergraph.num_hyperedges / (3.0 * num_samples))


# ------------------------------------------------------------------ MoCHy-A+
def _wedge_sampling_worker(
    csr: HypergraphCSR,
    adjacency: AdjacencyArrays,
    sample: Sequence[Tuple[int, int]],
) -> MotifCounts:
    """Raw (unscaled) increments for one chunk of sampled hyperwedges."""
    return MotifCounts(count_wedges_batched(csr, adjacency, sample))


def count_approx_wedge_sampling_parallel(
    hypergraph: Hypergraph,
    num_samples: int,
    num_workers: int = 2,
    seed: SeedLike = None,
    backend: str = BACKEND_PROCESS,
    projection: Optional[NeighborhoodProvider] = None,
) -> MotifCounts:
    """MoCHy-A+ with the hyperwedge sample split across *num_workers* workers."""
    require_positive_int(num_samples, "num_samples")
    require_positive_int(num_workers, "num_workers")
    _check_backend(backend)
    if projection is None:
        projection = project(hypergraph)
    num_hyperwedges = _num_hyperwedges(projection)
    if num_hyperwedges == 0:
        raise SamplingError("the hypergraph has no hyperwedges")
    rng = ensure_rng(seed)
    positions = rng.integers(0, num_hyperwedges, size=num_samples)
    sample = projection.hyperwedges_at(positions)
    if num_workers == 1:
        return count_approx_wedge_sampling(
            hypergraph,
            num_samples,
            projection=projection,
            sampled_wedges=sample,
        )
    chunks = _split_evenly(sample, num_workers)
    partials = _fan_out(
        backend,
        num_workers,
        _wedge_sampling_worker,
        hypergraph.csr(),
        _worker_adjacency(hypergraph, projection),
        chunks,
    )
    raw = aggregate_counts(partials)
    return _rescale(raw, num_hyperwedges, num_samples)
