"""Parallel MoCHy counting (paper Section 3.4, Figure 10).

The paper parallelizes all MoCHy versions by letting threads process different
hyperedges (MoCHy-E / MoCHy-A) or hyperwedges (MoCHy-A+) independently and
summing the per-thread counters once at the end. Every counter does the same
through the one fan-out here, :func:`fan_out`: the counter draws its anchors
in the calling process (all hyperedges, or its seeded sample), and with
``num_workers > 1`` the anchors are split into contiguous chunks, each chunk
runs the counter's block kernel in a worker process, and the chunk vectors
are summed. Workers receive only the CSR arrays of the hypergraph and of the
built-once projection — a :class:`~repro.projection.ProjectedGraph` pickles
as its three arrays, never as a frozenset graph.

Kernel outputs are whole numbers held in float64, so the sum is exact and the
counts are bit-identical for every worker count. For MoCHy-E each chunk
returns the *shares* of its hyperedges (see
:func:`repro.fastcore.count_exact_batched`), which sum to the full count over
any partition of the hyperedges, though one chunk's vector may hold negative
entries.

MoCHy-E chunks are contiguous index ranges and carry unequal work: each
closed instance is corrected from its minimum hyperedge, so low-index
anchors hold most of the pairs above the diagonal. Rebalancing the chunks
is left open.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.counting.classification import NeighborhoodProvider
from repro.exceptions import ProjectionError
from repro.hypergraph.hypergraph import Hypergraph
from repro.motifs.counts import MotifCounts
from repro.projection.projected_graph import NeighborhoodRows, ProjectedGraph


def fan_out(
    kernel: Callable[..., np.ndarray],
    hypergraph: Hypergraph,
    projection: NeighborhoodProvider,
    anchors: Sequence,
    num_workers: int,
) -> MotifCounts:
    """``kernel(csr, projection, anchors)`` split across *num_workers* processes.

    *kernel* is a fast-core block kernel; *anchors* are hyperedge indices or
    an ``(n, 2)`` array of hyperwedges.

    The projection must serve the kernels' block interface, which both
    providers inherit from
    :class:`~repro.projection.projected_graph.NeighborhoodRows`; any other
    object raises :class:`~repro.exceptions.ProjectionError`. Runs serially
    when ``num_workers == 1`` or when there are fewer than two anchors per
    worker. Workers receive the projection's CSR arrays, so a budgeted
    :class:`~repro.projection.LazyProjection` raises whenever
    ``num_workers > 1``.
    """
    if not isinstance(projection, NeighborhoodRows):
        raise ProjectionError(
            f"{type(projection).__name__} cannot drive the block kernels: "
            "count over a ProjectedGraph or a LazyProjection, which serve "
            "gather_rows, row_lengths and pair_weights"
        )
    if num_workers > 1 and not isinstance(projection, ProjectedGraph):
        raise ProjectionError(
            f"{type(projection).__name__} has no CSR arrays to ship to worker "
            "processes; count with num_workers=1 or over a full projection"
        )
    csr = hypergraph.csr()
    if num_workers == 1 or len(anchors) < 2 * num_workers:
        return MotifCounts(kernel(csr, projection, anchors))
    chunks = np.array_split(np.asarray(anchors), num_workers)
    with ProcessPoolExecutor(max_workers=num_workers) as executor:
        futures = [
            executor.submit(kernel, csr, projection, chunk) for chunk in chunks
        ]
        return MotifCounts(sum(future.result() for future in futures))
