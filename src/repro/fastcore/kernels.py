"""Batched h-motif classification kernels over CSR arrays.

Every MoCHy counter reduces to the same inner step: given an anchor (a
hyperedge ``e_i`` or a hyperwedge ``∧_ij``), classify a *set* of candidate
triples. The seed implementation called ``classify_triple`` once per triple;
the first fastcore generation processed all candidates of one anchor at once
but still drove the anchors from a Python ``for`` loop. These kernels remove
that last loop: anchors are packed into *blocks* bounded by a candidate-pair
budget, and each block is processed by one vectorized sweep —

* the neighborhoods of a whole block come from one CSR gather
  (:meth:`AdjacencyArrays.gather_rows`, or a budgeted
  :class:`~repro.projection.lazy.LazyProjection` serving the same interface);
* candidate pairs for every anchor in the block are enumerated together,
  degree-bucketed so all anchors of equal degree share one upper-triangle
  index broadcast;
* pairwise overlaps come from one vectorized ``searchsorted`` against the
  projected graph's sorted key array (``pair_weights``); the hyperwedge
  kernel instead merges the two gathered endpoint rows and reads the
  overlaps off their weights;
* triple overlaps ``|e_i ∩ e_j ∩ e_k|`` use one bitmask row per *(anchor,
  neighbor)* combination — bit ``p`` set iff the ``p``-th node of the anchor
  hyperedge belongs to the neighbor — so a pair's overlap is
  ``popcount(mask_j & mask_k)``; combinations are deduplicated across the
  block with offset keys ``anchor·|E| + neighbor``;
* the seven Venn-region cardinalities follow from inclusion–exclusion
  (Lemma 2) in vectorized int arithmetic, and the final motif ids come from
  the 128-entry pattern→motif table of
  :func:`repro.motifs.classify.motif_lookup_table` with one fancy index,
  accumulated with a single ``bincount`` per block.

Exactness: the kernels enumerate exactly the triples the reference loops
enumerate, compute identical integer cardinalities, and raise the same
exceptions (``MotifError`` / ``DuplicateHyperedgeError`` /
``NotConnectedError``) on invalid triples. Counters are sums of unit
increments in float64 (integers far below 2**53), so the resulting
``MotifCounts`` are bit-identical regardless of block boundaries.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import (
    DuplicateHyperedgeError,
    MotifError,
    NotConnectedError,
    ProjectionError,
)
from repro.fastcore.csr import HypergraphCSR
from repro.fastcore.projection import (
    gather_row_positions,
    iter_triu_chunks,
    sorted_member_positions,
)
from repro.motifs.classify import (
    LOOKUP_DISCONNECTED,
    LOOKUP_DUPLICATE,
    LOOKUP_EMPTY_EDGE,
    motif_lookup_table,
)
from repro.motifs.patterns import NUM_MOTIFS

# Upper-triangle index pairs per neighborhood size, shared across anchors
# (and across the parallel drivers' threads — hence the lock below).
_TRIU_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
_TRIU_CACHE_LOCK = threading.Lock()

# Degrees above this are recomputed on the fly: a cached entry holds
# O(degree²) int64 pairs, so hub rows would pin worst-case memory forever.
_TRIU_CACHE_MAX_DEGREE = 1024

# Aggregate pair budget across all cached entries (~128 MB of index arrays);
# the cache is cleared when exceeded so degree-diverse workloads stay bounded.
_TRIU_CACHE_PAIR_BUDGET = 1 << 23
_triu_cached_pairs = 0


def _triu_pairs(size: int) -> Tuple[np.ndarray, np.ndarray]:
    global _triu_cached_pairs
    if size > _TRIU_CACHE_MAX_DEGREE:
        return np.triu_indices(size, 1)
    cached = _TRIU_CACHE.get(size)
    if cached is not None:
        return cached
    fresh = np.triu_indices(size, 1)
    num_pairs = size * (size - 1) // 2
    with _TRIU_CACHE_LOCK:
        # Re-check under the lock: two threads racing on the same size must
        # charge the budget once, not once per thread, or the inflated
        # counter triggers spurious cache clears.
        cached = _TRIU_CACHE.get(size)
        if cached is not None:
            return cached
        if _triu_cached_pairs + num_pairs > _TRIU_CACHE_PAIR_BUDGET:
            _TRIU_CACHE.clear()
            _triu_cached_pairs = 0
        _TRIU_CACHE[size] = fresh
        _triu_cached_pairs += num_pairs
    return fresh


# Maximum candidate pairs materialized at once for one anchor (~16 MB per
# int64 array). Pair enumeration is chunked above this so hub anchors with
# projected degree in the tens of thousands stay memory-bounded instead of
# allocating O(degree²) arrays in one shot.
_PAIR_CHUNK = 1 << 21


def _iter_triu_chunks(size: int):
    """Yield ``(left, right)`` position pairs of ``triu_indices(size, 1)``.

    Same pairs and order as the unchunked call, in slabs of at most
    ``_PAIR_CHUNK`` pairs; small sizes reuse the shared cache.
    """
    total = size * (size - 1) // 2
    if total <= _PAIR_CHUNK:
        if total:
            yield _triu_pairs(size)
        return
    yield from iter_triu_chunks(size, _PAIR_CHUNK)


# Candidate-pair budget per anchor block. A block slab carries roughly eight
# int64 arrays of this length through classification, so the budget bounds
# peak kernel memory (~32 MB) while keeping each vectorized call fat enough
# to amortize NumPy dispatch over thousands of anchors.
_BLOCK_PAIR_BUDGET = 1 << 19

# Provisional anchors per block before the pair budget shrinks it.
_ANCHOR_BLOCK = 4096


_BYTE_POPCOUNT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1)


def _popcount_rows_bytes(masks: np.ndarray) -> np.ndarray:
    """Row-wise popcount via a byte lookup table (works on any numpy)."""
    as_bytes = np.ascontiguousarray(masks).view(np.uint8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=1).astype(np.int64)


if hasattr(np, "bitwise_count"):

    def _popcount_rows(masks: np.ndarray) -> np.ndarray:
        """Row-wise population count of a (n, words) uint64 matrix."""
        return np.bitwise_count(masks).sum(axis=1).astype(np.int64)

else:  # pragma: no cover - numpy < 2.0
    _popcount_rows = _popcount_rows_bytes


def classify_batch(
    size_i: np.ndarray,
    size_j: np.ndarray,
    size_k: np.ndarray,
    overlap_ij: np.ndarray,
    overlap_jk: np.ndarray,
    overlap_ki: np.ndarray,
    overlap_ijk: np.ndarray,
) -> np.ndarray:
    """Motif ids (1..26) for a batch of triples given sizes and overlaps.

    Inputs broadcast against each other; all values are integers. Raises the
    same exceptions as the scalar ``classify_from_cardinalities`` when any
    element of the batch is invalid, reporting the first offending triple.
    """
    size_i, size_j, size_k, overlap_ij, overlap_jk, overlap_ki, overlap_ijk = (
        np.atleast_1d(*np.broadcast_arrays(
            *(
                np.asarray(value, dtype=np.int64)
                for value in (
                    size_i,
                    size_j,
                    size_k,
                    overlap_ij,
                    overlap_jk,
                    overlap_ki,
                    overlap_ijk,
                )
            )
        ))
    )
    only_i = size_i - overlap_ij - overlap_ki + overlap_ijk
    only_j = size_j - overlap_ij - overlap_jk + overlap_ijk
    only_k = size_k - overlap_ki - overlap_jk + overlap_ijk
    pair_ij = overlap_ij - overlap_ijk
    pair_jk = overlap_jk - overlap_ijk
    pair_ki = overlap_ki - overlap_ijk
    regions = (only_i, only_j, only_k, pair_ij, pair_jk, pair_ki, overlap_ijk)

    bad = np.zeros(only_i.shape, dtype=bool)
    for region in regions:
        bad |= region < 0
    if bad.any():
        at = int(np.argmax(bad))
        raise MotifError(
            "inconsistent cardinalities: "
            f"sizes=({int(size_i[at])}, {int(size_j[at])}, {int(size_k[at])}), "
            f"pairwise=({int(overlap_ij[at])}, {int(overlap_jk[at])}, "
            f"{int(overlap_ki[at])}), "
            f"triple={int(overlap_ijk[at])} produce negative region sizes "
            f"{tuple(int(region[at]) for region in regions)}"
        )

    code = np.zeros(only_i.shape, dtype=np.uint8)
    for position, region in enumerate(regions):
        code |= (region > 0).astype(np.uint8) << np.uint8(position)
    motifs = motif_lookup_table()[code]
    if (motifs < 0).any():
        # Report the first offending triple in batch order; counting is
        # all-or-nothing per batch, so which invalid triple is named does not
        # affect the raised exception type.
        sentinel = int(motifs[np.argmax(motifs < 0)])
        if sentinel == LOOKUP_EMPTY_EDGE:
            raise MotifError("an h-motif instance cannot contain an empty hyperedge")
        if sentinel == LOOKUP_DUPLICATE:
            raise DuplicateHyperedgeError(
                "h-motif instances must consist of three distinct hyperedges"
            )
        if sentinel == LOOKUP_DISCONNECTED:
            raise NotConnectedError(
                "the three hyperedges are not connected and do not form an "
                "h-motif instance"
            )
    return motifs.astype(np.int64)


def _gather_rows(
    ptr: np.ndarray, data: np.ndarray, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate variable-length CSR rows; returns ``(values, owner)``."""
    positions, owner = gather_row_positions(ptr, rows)
    return data[positions], owner


# --------------------------------------------------------------------------
# Anchor-block machinery
# --------------------------------------------------------------------------


def _check_vertex_range(values: np.ndarray, limit: int) -> None:
    """Validate anchor/wedge ids, matching ``AdjacencyArrays.row``'s error."""
    if values.size == 0:
        return
    low = int(values.min())
    high = int(values.max())
    if low < 0 or high >= limit:
        bad = low if low < 0 else high
        raise ProjectionError(f"vertex {bad} out of range [0, {limit})")


def _as_anchor_array(
    anchors: Optional[Iterable[int]], num_edges: int
) -> np.ndarray:
    if anchors is None:
        return np.arange(num_edges, dtype=np.int64)
    if isinstance(anchors, np.ndarray):
        array = anchors.astype(np.int64, copy=False).ravel()
    else:
        array = np.fromiter((int(i) for i in anchors), dtype=np.int64)
    _check_vertex_range(array, num_edges)
    return array


def _iter_source_blocks(
    source, anchors: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(block, ids, weights, lengths)`` covering *anchors* in order.

    Each block's total candidate-pair count fits ``_BLOCK_PAIR_BUDGET``
    except when a single hub anchor alone exceeds it — that anchor comes
    back as a singleton block and is pair-chunked downstream.
    """
    n = anchors.size
    start = 0
    while start < n:
        block = anchors[start : start + _ANCHOR_BLOCK]
        ids, weights, lengths = source.gather_rows(block)
        pairs = lengths * (lengths - 1) // 2
        if block.size > 1 and int(pairs.sum()) > _BLOCK_PAIR_BUDGET:
            cumulative = np.cumsum(pairs)
            fit = int(np.searchsorted(cumulative, _BLOCK_PAIR_BUDGET, side="right"))
            fit = max(fit, 1)
            if fit < block.size:
                block = block[:fit]
                total = int(lengths[:fit].sum())
                ids = ids[:total]
                weights = weights[:total]
                lengths = lengths[:fit]
        yield block, ids, weights, lengths
        start += block.size


def _iter_pair_slabs(
    block: np.ndarray,
    ids: np.ndarray,
    weights: np.ndarray,
    lengths: np.ndarray,
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Candidate pairs of a gathered block as flat per-pair arrays.

    Yields ``(anchor, left_ids, right_ids, left_weights, right_weights)``
    with ``left_ids < right_ids`` elementwise (rows are sorted, and the
    upper-triangle index orders positions within a row).
    """
    pairs = lengths * (lengths - 1) // 2
    total = int(pairs.sum())
    if total == 0:
        return
    if block.size == 1 and total > _BLOCK_PAIR_BUDGET:
        # Hub anchor: its own pair count exceeds the block budget, so
        # enumerate its upper triangle in bounded chunks.
        anchor = int(block[0])
        for left, right in _iter_triu_chunks(int(lengths[0])):
            yield (
                np.full(left.size, anchor, dtype=np.int64),
                ids[left],
                ids[right],
                weights[left],
                weights[right],
            )
        return
    left, right, owner = _block_triu_positions(lengths)
    yield block[owner], ids[left], ids[right], weights[left], weights[right]


def _block_triu_positions(
    lengths: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Upper-triangle positions for every row of a gathered block at once.

    Rows are bucketed by degree so all rows of equal length share a single
    cached ``triu_indices`` broadcast; ``owner`` maps each pair back to its
    row. Pair order is grouped by degree bucket, not row — the counters sum
    order-independent unit increments, so this changes nothing observable.
    """
    pairs = lengths * (lengths - 1) // 2
    total = int(pairs.sum())
    left = np.empty(total, dtype=np.int64)
    right = np.empty(total, dtype=np.int64)
    owner = np.empty(total, dtype=np.int64)
    if total == 0:
        return left, right, owner
    offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    out = 0
    for degree in np.unique(lengths):
        degree = int(degree)
        if degree < 2:
            continue
        rows = np.nonzero(lengths == degree)[0]
        upper_i, upper_j = _triu_pairs(degree)
        count = rows.size * upper_i.size
        base = offsets[rows][:, None]
        left[out : out + count] = (base + upper_i[None, :]).ravel()
        right[out : out + count] = (base + upper_j[None, :]).ravel()
        owner[out : out + count] = np.repeat(rows, upper_i.size)
        out += count
    return left, right, owner


def _triple_overlaps_blocked(
    csr: HypergraphCSR,
    anchors: np.ndarray,
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    closed: np.ndarray,
) -> np.ndarray:
    """Triple overlaps ``|e_anchor ∩ e_left ∩ e_right|`` for closed pairs.

    One bitmask row is built per distinct *(anchor, neighbor)* combination —
    bit ``p`` set iff the ``p``-th node of the anchor hyperedge also belongs
    to the neighbor — so each pair's overlap is one ``popcount(mask_l &
    mask_r)``. Combinations are deduplicated across the whole block with
    offset keys, and only anchors participating in a closed pair gather any
    node data at all.
    """
    overlaps = np.zeros(len(left_ids), dtype=np.int64)
    if not closed.any():
        return overlaps
    edge_scale = np.int64(max(csr.num_edges, 1))
    closed_anchors = anchors[closed].astype(np.int64)
    left_keys = closed_anchors * edge_scale + left_ids[closed]
    right_keys = closed_anchors * edge_scale + right_ids[closed]
    combos = np.unique(np.concatenate([left_keys, right_keys]))
    combo_anchor = combos // edge_scale
    combo_neighbor = combos % edge_scale

    used_anchors = np.unique(combo_anchor)
    anchor_positions, anchor_owner = gather_row_positions(
        csr.edge_ptr, used_anchors
    )
    anchor_nodes = csr.edge_nodes[anchor_positions]
    anchor_lengths = (
        csr.edge_ptr[used_anchors + 1] - csr.edge_ptr[used_anchors]
    ).astype(np.int64)
    anchor_offsets = np.concatenate(([0], np.cumsum(anchor_lengths)[:-1]))
    # Local bit position of each anchor node within its own (sorted) row.
    local_bit = np.arange(anchor_nodes.size, dtype=np.int64) - np.repeat(
        anchor_offsets, anchor_lengths
    )
    node_scale = np.int64(max(csr.num_nodes, 1))
    haystack = anchor_owner * node_scale + anchor_nodes

    words = max(1, (int(anchor_lengths.max()) + 63) // 64)
    masks = np.zeros((combos.size, words), dtype=np.uint64)
    values, value_owner = _gather_rows(csr.edge_ptr, csr.edge_nodes, combo_neighbor)
    combo_anchor_pos = np.searchsorted(used_anchors, combo_anchor)
    hit, positions = sorted_member_positions(
        haystack, combo_anchor_pos[value_owner] * node_scale + values
    )
    bit = local_bit[positions[hit]].astype(np.uint64)
    np.bitwise_or.at(
        masks,
        (value_owner[hit], (bit >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (bit & np.uint64(63)),
    )
    left_rows = np.searchsorted(combos, left_keys)
    right_rows = np.searchsorted(combos, right_keys)
    overlaps[closed] = _popcount_rows(masks[left_rows] & masks[right_rows])
    return overlaps


def _accumulate_pair_slab(
    csr: HypergraphCSR,
    source,
    sizes: np.ndarray,
    totals: np.ndarray,
    anchor: np.ndarray,
    left_ids: np.ndarray,
    right_ids: np.ndarray,
    left_weights: np.ndarray,
    right_weights: np.ndarray,
    attribute_min: bool,
) -> None:
    """Classify one slab of candidate pairs and fold it into *totals*.

    ``attribute_min`` applies Algorithm 2's dedup rule — a closed instance is
    counted only from its minimum-index hyperedge (``left_ids`` is the pair
    minimum because rows are sorted) — while the sampling counters visit
    every instance containing the anchor.
    """
    weight_jk = source.pair_weights(left_ids, right_ids).astype(np.int64)
    if attribute_min:
        keep = (weight_jk == 0) | (anchor < left_ids)
        if not keep.any():
            return
        anchor = anchor[keep]
        left_ids = left_ids[keep]
        right_ids = right_ids[keep]
        left_weights = left_weights[keep]
        right_weights = right_weights[keep]
        weight_jk = weight_jk[keep]
    closed = weight_jk > 0
    triple = _triple_overlaps_blocked(csr, anchor, left_ids, right_ids, closed)
    motifs = classify_batch(
        sizes[anchor],
        sizes[left_ids],
        sizes[right_ids],
        left_weights,
        weight_jk,
        right_weights,
        triple,
    )
    totals += np.bincount(motifs, minlength=NUM_MOTIFS + 1)


def count_exact_batched(
    csr: HypergraphCSR,
    adjacency,
    hyperedge_indices: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Exact h-motif counts (MoCHy-E) as a length-26 float array.

    For each anchor ``e_i`` the candidate pairs are every unordered
    ``{e_j, e_k} ⊆ N_{e_i}``; a pair is counted iff it is open (seen only
    from its center) or ``i < min(j, k)`` (a closed instance is attributed to
    its minimum index), exactly as in Algorithm 2. Anchors are processed in
    pair-budgeted blocks with no per-anchor Python iteration.
    """
    anchors = _as_anchor_array(hyperedge_indices, csr.num_edges)
    totals = np.zeros(NUM_MOTIFS + 1, dtype=np.float64)
    sizes = csr.edge_sizes
    for block, ids, weights, lengths in _iter_source_blocks(adjacency, anchors):
        for slab in _iter_pair_slabs(block, ids, weights, lengths):
            _accumulate_pair_slab(
                csr, adjacency, sizes, totals, *slab, attribute_min=True
            )
    return totals[1:]


def count_containing_batched(
    csr: HypergraphCSR,
    adjacency,
    anchors: Sequence[int],
) -> np.ndarray:
    """Raw counts of instances containing each anchor hyperedge (MoCHy-A).

    Visits every instance containing ``e_i`` exactly once, split into the two
    cases of Algorithm 4's inner loop:

    * both other hyperedges neighbor the anchor — every unordered pair from
      ``N_{e_i}``;
    * ``e_k`` neighbors only ``e_j`` — for each ``e_j ∈ N_{e_i}``, the
      candidates ``N_{e_j} \\ (N_{e_i} ∪ {e_i})``.
    """
    anchor_array = _as_anchor_array(anchors, csr.num_edges)
    totals = np.zeros(NUM_MOTIFS + 1, dtype=np.float64)
    sizes = csr.edge_sizes
    for block, ids, weights, lengths in _iter_source_blocks(
        adjacency, anchor_array
    ):
        # Case 1: pairs within each anchor's neighborhood.
        for slab in _iter_pair_slabs(block, ids, weights, lengths):
            _accumulate_pair_slab(
                csr, adjacency, sizes, totals, *slab, attribute_min=False
            )
        # Case 2: e_k adjacent to e_j but not to the anchor.
        _accumulate_second_hop(
            csr, adjacency, sizes, totals, block, ids, weights, lengths
        )
    return totals[1:]


def _accumulate_second_hop(
    csr: HypergraphCSR,
    source,
    sizes: np.ndarray,
    totals: np.ndarray,
    block: np.ndarray,
    ids: np.ndarray,
    weights: np.ndarray,
    lengths: np.ndarray,
) -> None:
    """Count Algorithm 4 case-2 triples for a gathered anchor block.

    For every anchor ``e_i`` in the block and neighbor ``e_j``, candidates
    are ``N_{e_j} \\ (N_{e_i} ∪ {e_i})``; membership in ``N_{e_i}`` is tested
    against one concatenated sorted haystack keyed ``anchor_pos·|E| + id``,
    so the whole block needs no per-anchor iteration. ``e_k ∩ e_i = ∅`` for
    every survivor, so both ``ω(∧_ki)`` and the triple overlap vanish.
    """
    if ids.size == 0:
        return
    edge_scale = np.int64(max(csr.num_edges, 1))
    anchor_pos = np.repeat(np.arange(block.size, dtype=np.int64), lengths)
    haystack = anchor_pos * edge_scale + ids
    neighbor_degrees = source.row_lengths(ids)
    bounds = np.cumsum(neighbor_degrees)
    start = 0
    while start < ids.size:
        base = int(bounds[start - 1]) if start else 0
        stop = int(
            np.searchsorted(bounds, base + _BLOCK_PAIR_BUDGET, side="right")
        )
        stop = min(max(stop, start + 1), ids.size)
        cand_ids, cand_weights, cand_lengths = source.gather_rows(
            ids[start:stop]
        )
        entry = start + np.repeat(
            np.arange(stop - start, dtype=np.int64), cand_lengths
        )
        apos = anchor_pos[entry]
        in_neighborhood, _ = sorted_member_positions(
            haystack, apos * edge_scale + cand_ids
        )
        keep = ~in_neighborhood & (cand_ids != block[apos])
        if keep.any():
            entry = entry[keep]
            motifs = classify_batch(
                sizes[block[apos[keep]]],
                sizes[ids[entry]],
                sizes[cand_ids[keep]],
                weights[entry],
                cand_weights[keep],
                0,
                0,
            )
            totals += np.bincount(motifs, minlength=NUM_MOTIFS + 1)
        start = stop


def count_wedges_batched(
    csr: HypergraphCSR,
    adjacency,
    wedges: Sequence[Tuple[int, int]],
) -> np.ndarray:
    """Raw counts of instances containing each sampled hyperwedge (MoCHy-A+).

    For a wedge ``∧_ij`` the candidates are ``N_{e_i} ∪ N_{e_j}`` minus the
    wedge endpoints. *wedges* is a sequence of pairs or an ``(n, 2)`` array.
    Wedges are processed in candidate-budgeted blocks sized from the row
    lengths before anything is gathered; within a block both endpoint rows
    are merged as sorted runs (see :func:`_accumulate_wedge_block`), and
    triple overlaps intersect each candidate hyperedge with the per-wedge
    shared node sets ``e_i ∩ e_j`` — all wedges of a block at once.
    """
    wedge_array = np.asarray(wedges, dtype=np.int64).reshape(-1, 2)
    _check_vertex_range(wedge_array, csr.num_edges)
    totals = np.zeros(NUM_MOTIFS + 1, dtype=np.float64)
    sizes = csr.edge_sizes
    num_wedges = wedge_array.shape[0]
    bounds = np.cumsum(
        adjacency.row_lengths(wedge_array[:, 0])
        + adjacency.row_lengths(wedge_array[:, 1])
    )
    start = 0
    while start < num_wedges:
        base = int(bounds[start - 1]) if start else 0
        stop = int(
            np.searchsorted(bounds, base + _BLOCK_PAIR_BUDGET, side="right")
        )
        stop = min(max(stop, start + 1), start + _ANCHOR_BLOCK, num_wedges)
        left = wedge_array[start:stop, 0]
        right = wedge_array[start:stop, 1]
        _accumulate_wedge_block(
            csr,
            sizes,
            totals,
            left,
            right,
            adjacency.gather_rows(left),
            adjacency.gather_rows(right),
        )
        start = stop
    return totals[1:]


def _accumulate_wedge_block(
    csr: HypergraphCSR,
    sizes: np.ndarray,
    totals: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    rows_left: Tuple[np.ndarray, np.ndarray, np.ndarray],
    rows_right: Tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Classify all candidate triples of one wedge block.

    ``rows_left``/``rows_right`` are the gathered ``(ids, weights, lengths)``
    of the endpoint rows. Under the offset keys ``wedge_pos·|E| + id`` each
    side is one sorted run, so one membership pass of the right run against
    the left merges them: the candidates are every left entry plus the right
    entries the left row lacks. ``ω(∧_ik)`` and ``ω(∧_jk)`` are the gathered
    weights (0 on the side a candidate is missing from) and ``ω(∧_ij)`` is
    the weight of ``e_j`` in ``e_i``'s row, so no pair lookup is needed.
    """
    ids_left, weights_left, len_left = rows_left
    ids_right, weights_right, len_right = rows_right
    if ids_left.size + ids_right.size == 0:
        return
    weights_left = weights_left.astype(np.int64, copy=False)
    weights_right = weights_right.astype(np.int64, copy=False)
    edge_scale = np.int64(max(csr.num_edges, 1))
    wedge_of_left = np.repeat(np.arange(left.size, dtype=np.int64), len_left)
    wedge_of_right = np.repeat(np.arange(right.size, dtype=np.int64), len_right)
    in_left, at_left = sorted_member_positions(
        wedge_of_left * edge_scale + ids_left,
        wedge_of_right * edge_scale + ids_right,
    )
    shared_weight_jk = np.zeros(ids_left.size, dtype=np.int64)
    shared_weight_jk[at_left[in_left]] = weights_right[in_left]
    is_j = ids_left == right[wedge_of_left]
    weight_ij = np.zeros(left.size, dtype=np.int64)
    weight_ij[wedge_of_left[is_j]] = weights_left[is_j]

    only_right = ~in_left
    wedge_of = np.concatenate([wedge_of_left, wedge_of_right[only_right]])
    candidates = np.concatenate([ids_left, ids_right[only_right]])
    weight_ik = np.concatenate(
        [weights_left, np.zeros(int(only_right.sum()), dtype=np.int64)]
    )
    weight_jk = np.concatenate([shared_weight_jk, weights_right[only_right]])
    keep = (candidates != left[wedge_of]) & (candidates != right[wedge_of])
    if not keep.any():
        return
    wedge_of = wedge_of[keep]
    candidates = candidates[keep]
    weight_ik = weight_ik[keep]
    weight_jk = weight_jk[keep]
    triple = np.zeros(candidates.size, dtype=np.int64)
    needs_triple = (weight_ik > 0) & (weight_jk > 0)
    if needs_triple.any():
        # Shared node sets e_i ∩ e_j of the wedges that need them, in one
        # haystack keyed wedge_pos·|V| + node (sorted by construction).
        rows = candidates[needs_triple]
        row_wedge = wedge_of[needs_triple]
        used = np.zeros(left.size, dtype=bool)
        used[row_wedge] = True
        used_wedges = np.flatnonzero(used)
        node_scale = np.int64(max(csr.num_nodes, 1))
        nodes_left, owner_left = _gather_rows(
            csr.edge_ptr, csr.edge_nodes, left[used_wedges]
        )
        nodes_right, owner_right = _gather_rows(
            csr.edge_ptr, csr.edge_nodes, right[used_wedges]
        )
        right_keys = used_wedges[owner_right] * node_scale + nodes_right
        shared_hit, _ = sorted_member_positions(
            used_wedges[owner_left] * node_scale + nodes_left, right_keys
        )
        shared_keys = right_keys[shared_hit]
        if shared_keys.size:
            values, value_owner = _gather_rows(csr.edge_ptr, csr.edge_nodes, rows)
            hit, _ = sorted_member_positions(
                shared_keys, row_wedge[value_owner] * node_scale + values
            )
            triple[needs_triple] = np.bincount(
                value_owner[hit], minlength=rows.size
            )
    motifs = classify_batch(
        sizes[left[wedge_of]],
        sizes[right[wedge_of]],
        sizes[candidates],
        weight_ij[wedge_of],
        weight_jk,
        weight_ik,
        triple,
    )
    totals += np.bincount(motifs, minlength=NUM_MOTIFS + 1)
