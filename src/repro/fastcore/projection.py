"""Array-native hypergraph projection (Algorithm 1 on CSR arrays).

The projected graph ``G¯ = (E, ∧, ω)`` assigns every overlapping hyperedge
pair the weight ``ω(∧_ij) = |e_i ∩ e_j|``. On the CSR layout that weight has
a purely combinatorial reading: ``ω(∧_ij)`` equals the number of nodes whose
membership row contains both ``i`` and ``j``. The builder therefore

1. emits, for every node ``v``, all ordered pairs ``(i, j)`` with ``i < j``
   drawn from its sorted membership row (vectorized per degree bucket, so one
   fancy-indexing gather handles every node of the same degree at once);
2. encodes pairs as int64 keys ``i·|E| + j`` and aggregates duplicate keys
   with ``np.unique(..., return_counts=True)`` — the count *is* the weight.
   The occurrence stream is consumed in bounded slabs
   (:data:`PAIR_STREAM_CHUNK`) merged incrementally, so peak memory tracks
   the number of *distinct* pairs (like the seed's dict builder), not the
   total pair count — hub nodes with enormous membership rows stay safe;
3. mirrors the surviving pairs and sorts once more to obtain symmetric CSR
   adjacency ``(nbr_ptr, nbr_idx, nbr_weight)``.

Total work is ``O(P log P)`` for ``P = Σ_v C(|E_v|, 2) = Σ_{∧ij} |e_i ∩ e_j|``
— the same pair stream Algorithm 1 scans, minus the per-pair Python dict
machinery. ``aggregate_cooccurrence``/``merge_partial_pairs`` are exposed
separately so the delta engine (:mod:`repro.fastcore.delta`) can merge
partial pair streams with the same array merge instead of dict unions.

The resulting arrays are held by :class:`repro.projection.ProjectedGraph`,
which serves the batched counting kernels (and is what worker processes
receive).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.fastcore.csr import INDEX_DTYPE

#: dtype used for hyperwedge weights (overlap sizes fit easily).
WEIGHT_DTYPE = np.int32


def sorted_member_positions(
    haystack: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized membership test of *values* against a sorted *haystack*.

    Returns ``(hit, positions)``: ``hit[t]`` is True iff ``values[t]`` occurs
    in *haystack*, and ``positions[t]`` is its index there (clipped into
    range, so it is only meaningful where ``hit`` is True). This is the one
    shared implementation of the searchsorted-and-verify idiom every fast
    kernel uses for overlap lookups and intersection tests.
    """
    if haystack.size == 0:
        return (
            np.zeros(len(values), dtype=bool),
            np.zeros(len(values), dtype=np.int64),
        )
    positions = np.minimum(
        np.searchsorted(haystack, values), haystack.size - 1
    )
    return haystack[positions] == values, positions


def gather_row_positions(
    ptr: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flat data positions of the given CSR rows; returns ``(positions, owner)``.

    ``owner[t]`` is the position within *rows* whose row produced
    ``positions[t]``; indexing any per-entry array with *positions* is the
    pure-array equivalent of ``concatenate([data[r] ...])``.
    """
    starts = ptr[rows].astype(np.int64)
    lengths = (ptr[rows + 1] - ptr[rows]).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    positions = np.arange(total, dtype=np.int64) + np.repeat(
        starts - offsets, lengths
    )
    owner = np.repeat(np.arange(len(rows), dtype=np.int64), lengths)
    return positions, owner


def upper_row_starts(ptr: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per row ``i`` of sorted CSR adjacency, the position of its first id ``> i``.

    One lockstep binary search over all rows at once: ``O(|E| log d_max)``
    time and ``O(|E|)`` memory, so splitting every row at its diagonal never
    allocates an array the size of the entry list.
    """
    lo = ptr[:-1].astype(np.int64)
    hi = ptr[1:].astype(np.int64)
    active = np.flatnonzero(lo < hi)
    while active.size:
        mid = (lo[active] + hi[active]) // 2
        below = idx[mid] <= active
        lo[active[below]] = mid[below] + 1
        hi[active[~below]] = mid[~below]
        active = active[lo[active] < hi[active]]
    return lo


#: Maximum pair occurrences materialized at once while building a projection
#: (~32 MB of int64 keys); slabs above this are aggregated incrementally so
#: hub nodes with huge membership rows cannot blow up peak memory.
PAIR_STREAM_CHUNK = 1 << 22


def iter_triu_chunks(size: int, max_pairs: int):
    """Yield the ``(left, right)`` pairs of ``np.triu_indices(size, 1)``.

    Produces the same pairs in the same order as the unchunked call, but in
    slabs of at most *max_pairs* pairs, grouped by whole left rows (a single
    row longer than *max_pairs* is yielded alone). Shared by the counting
    kernels (per-anchor pair enumeration) and the projection builder
    (per-hub-node pair enumeration).
    """
    total = size * (size - 1) // 2
    if total <= max_pairs:
        if total:
            yield np.triu_indices(size, 1)
        return
    row = 0
    while row < size - 1:
        row_end = row
        pairs = 0
        while row_end < size - 1 and pairs + (size - 1 - row_end) <= max_pairs:
            pairs += size - 1 - row_end
            row_end += 1
        row_end = max(row_end, row + 1)  # a single huge row still progresses
        lengths = np.arange(size - 1 - row, size - 1 - row_end, -1, dtype=np.int64)
        left = np.repeat(np.arange(row, row_end, dtype=np.int64), lengths)
        offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        right = (
            np.arange(int(lengths.sum()), dtype=np.int64)
            - np.repeat(offsets, lengths)
            + np.repeat(np.arange(row, row_end, dtype=np.int64) + 1, lengths)
        )
        yield left, right
        row = row_end


def _iter_cooccurrence_partials(
    node_ptr: np.ndarray,
    node_edges: np.ndarray,
    num_edges: int,
    max_pairs: int,
):
    """Yield aggregated ``(keys, counts)`` partials of the pair stream.

    One pair key ``i·|E| + j`` (``i < j``) is produced per (node, hyperedge
    pair) co-occurrence, so a key's total multiplicity equals the hyperwedge
    weight ``ω(∧_ij)``. Nodes are processed in degree buckets — all rows of
    equal length share one upper-triangle index — and each partial is built
    from at most ~*max_pairs* pair occurrences, keeping peak memory bounded
    by the slab size plus the number of distinct pairs (as the seed's dict
    builder was) instead of the full occurrence stream.
    """
    degrees = np.diff(node_ptr)
    scale = np.int64(max(num_edges, 1))
    pending = []
    pending_size = 0
    for degree in np.unique(degrees):
        if degree < 2:
            continue
        degree = int(degree)
        nodes = np.nonzero(degrees == degree)[0]
        pairs_per_node = degree * (degree - 1) // 2
        if pairs_per_node >= max_pairs:
            # Hub rows: enumerate each row's pairs in chunks of their own.
            for node in nodes.tolist():
                row = node_edges[node_ptr[node] : node_ptr[node + 1]].astype(
                    np.int64
                )
                for left, right in iter_triu_chunks(degree, max_pairs):
                    yield aggregate_pair_keys(row[left] * scale + row[right])
            continue
        rows_per_slab = max(1, max_pairs // pairs_per_node)
        upper_i, upper_j = np.triu_indices(degree, 1)
        for start in range(0, len(nodes), rows_per_slab):
            slab = nodes[start : start + rows_per_slab]
            starts = node_ptr[slab].astype(np.int64)
            rows = node_edges[starts[:, None] + np.arange(degree)]
            # Rows are sorted ascending, so rows[:, upper_i] < rows[:, upper_j].
            keys = (
                rows[:, upper_i].astype(np.int64) * scale + rows[:, upper_j]
            ).ravel()
            pending.append(keys)
            pending_size += keys.size
            if pending_size >= max_pairs:
                yield aggregate_pair_keys(np.concatenate(pending))
                pending = []
                pending_size = 0
    if pending:
        yield aggregate_pair_keys(np.concatenate(pending))


def aggregate_cooccurrence(
    node_ptr: np.ndarray,
    node_edges: np.ndarray,
    num_edges: int,
    max_pairs: int = PAIR_STREAM_CHUNK,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregated ``(pair keys, multiplicities)`` of all node co-occurrences."""
    # Fold each slab into the running aggregate immediately: holding all
    # partials before one big merge would keep ~one entry per occurrence
    # alive (pairs recur across slabs), defeating the bounded-memory goal.
    result = None
    for partial in _iter_cooccurrence_partials(
        node_ptr, node_edges, num_edges, max_pairs
    ):
        result = (
            partial if result is None else merge_partial_pairs((result, partial))
        )
    if result is None:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return result


def aggregate_pair_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse a pair-key stream into ``(unique keys, multiplicities)``."""
    if keys.size == 0:
        return keys, np.empty(0, dtype=np.int64)
    return np.unique(keys, return_counts=True)


def merge_partial_pairs(
    partials: Tuple[Tuple[np.ndarray, np.ndarray], ...],
) -> Tuple[np.ndarray, np.ndarray]:
    """Merge partial ``(keys, counts)`` aggregates, summing shared keys.

    This is the CSR partial-merge of :func:`aggregate_cooccurrence`'s slabs
    and of :mod:`repro.fastcore.delta`: partial aggregates from different
    node ranges may contain the same hyperedge pair (the pair's weight is a
    sum over *nodes*), so counts for equal keys are added with one sort +
    ``reduceat`` instead of a Python dict union.
    """
    keys = np.concatenate([part[0] for part in partials])
    counts = np.concatenate([part[1] for part in partials])
    if keys.size == 0:
        return keys, counts
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = counts[order]
    boundaries = np.nonzero(np.concatenate(([True], keys[1:] != keys[:-1])))[0]
    summed = np.add.reduceat(counts, boundaries)
    return keys[boundaries], summed


def pairs_to_symmetric_csr(
    keys: np.ndarray, counts: np.ndarray, num_edges: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric CSR adjacency from aggregated upper-triangle pair keys."""
    scale = np.int64(max(num_edges, 1))
    upper_rows = (keys // scale).astype(INDEX_DTYPE)
    upper_cols = (keys % scale).astype(INDEX_DTYPE)
    rows = np.concatenate([upper_rows, upper_cols])
    cols = np.concatenate([upper_cols, upper_rows])
    weights = np.concatenate([counts, counts]).astype(WEIGHT_DTYPE)
    order = np.argsort(rows.astype(np.int64) * scale + cols, kind="stable")
    idx = cols[order]
    weight = weights[order]
    ptr = np.zeros(num_edges + 1, dtype=np.int64)
    ptr[1:] = np.cumsum(np.bincount(rows, minlength=num_edges))
    for array in (ptr, idx, weight):
        array.setflags(write=False)
    return ptr, idx, weight


def build_projection_arrays(
    node_ptr: np.ndarray, node_edges: np.ndarray, num_edges: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR adjacency ``(nbr_ptr, nbr_idx, nbr_weight)`` of the projected graph."""
    keys, counts = aggregate_cooccurrence(node_ptr, node_edges, num_edges)
    return pairs_to_symmetric_csr(keys, counts, num_edges)


def neighborhood_arrays(
    node_ptr: np.ndarray,
    node_edges: np.ndarray,
    edge_row: np.ndarray,
    i: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(neighbor ids, weights)`` of one hyperedge from the membership rows.

    The unit of work of the lazy projection: concatenate the membership rows
    of ``e_i``'s nodes and histogram them — each co-member appears once per
    shared node. Ids come back sorted ascending (``np.unique``), matching the
    row ordering of :class:`~repro.projection.ProjectedGraph`.
    """
    if edge_row.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pieces = [
        node_edges[node_ptr[v] : node_ptr[v + 1]] for v in edge_row.tolist()
    ]
    members = np.concatenate(pieces)
    neighbors, multiplicity = np.unique(members, return_counts=True)
    keep = neighbors != i
    return neighbors[keep].astype(np.int64), multiplicity[keep].astype(np.int64)
