"""Batched h-motif classification kernels over CSR arrays.

Every MoCHy counter reduces to the same inner step: given an anchor (a
hyperedge ``e_i`` or a hyperwedge ``∧_ij``), classify a *set* of candidate
triples. The seed implementation called ``classify_triple`` once per triple;
the first fastcore generation processed all candidates of one anchor at once
but still drove the anchors from a Python ``for`` loop. These kernels remove
that last loop: anchors are packed into *blocks* bounded by a candidate-pair
budget, and each block is processed by one vectorized sweep —

* the neighborhoods of a whole block come from one CSR gather
  (:meth:`~repro.projection.ProjectedGraph.gather_rows`, or a budgeted
  :class:`~repro.projection.lazy.LazyProjection` serving the same interface);
* candidate pairs for every anchor in the block are enumerated together as
  positions in the gathered rows, length-bucketed so all rows of equal
  length share one cached upper-triangle index broadcast;
* pairwise overlaps come from one vectorized ``searchsorted`` against the
  projected graph's sorted key array (``pair_weights``); the hyperwedge
  kernel instead merges the two gathered endpoint rows and reads the
  overlaps off their weights;
* triple overlaps ``|e_i ∩ e_j ∩ e_k|`` use one bitmask row per gathered
  *(anchor, neighbor)* position — bit ``p`` set iff the ``p``-th node of
  the anchor hyperedge belongs to the neighbor — so a pair's overlap is
  ``popcount(mask_j & mask_k)``, indexed by the pair's two positions;
* the seven Venn-region cardinalities follow from inclusion–exclusion
  (Lemma 2) in vectorized int arithmetic, and the final motif ids come from
  the 128-entry pattern→motif table of
  :func:`repro.motifs.classify.motif_lookup_table` with one fancy index,
  accumulated with a single ``bincount`` per block.

MoCHy-E (:func:`count_exact_batched`) does not classify every pair of a
neighborhood. An open pair ``{e_j, e_k}`` around ``e_i`` has a motif fixed by
three bits, its *as-if-open code*, so every anchor's ``C(|N_i|, 2)`` pairs
are counted by code from one sort of the block's rows
(``_accumulate_as_if_open``). Only pairs above the anchor's diagonal
(``i < j < k``) are enumerated and looked up; the closed ones are the
projected graph's triangles, each met once, from its minimum hyperedge,
which adds its true motif and removes the as-if-open codes of its three
orientations (``_accumulate_triangles``).

Exactness: the kernels compute identical integer cardinalities to the
reference loops, read the same table and raise the same exceptions
(``MotifError`` / ``DuplicateHyperedgeError`` / ``NotConnectedError``) on
invalid triples — a duplicate pair always sits in a triangle, and as-if-open
codes are valid motifs for any input. Kernel parity therefore checks the
cardinalities, not the table, which ``tests/test_motif_classify.py`` checks
on its own. Counters are integer sums in float64 (far below 2**53), so the
resulting ``MotifCounts`` are bit-identical regardless of block boundaries.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ProjectionError
from repro.fastcore.csr import HypergraphCSR
from repro.fastcore.projection import (
    gather_row_positions,
    iter_triu_chunks,
    sorted_member_positions,
)
from repro.motifs.classify import (
    invalid_pattern_error,
    motif_lookup_table,
    region_cardinalities_from_sizes,
)
from repro.motifs.patterns import NUM_MOTIFS

# Upper-triangle index pairs per neighborhood size, shared across anchors
# (and across the serving executors' threads — hence the lock below).
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

    Same pairs and order as the unchunked call, in slabs of whole rows of at
    most ``_PAIR_CHUNK`` pairs (a longer row comes alone); small sizes reuse
    the shared cache.
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
    same exceptions, with the same messages, as the scalar
    ``classify_from_cardinalities`` when any element of the batch is invalid,
    reporting the first offending triple.
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
        # The scalar check raises for the first inconsistent triple.
        at = int(np.argmax(bad))
        sizes = (size_i, size_j, size_k)
        overlaps = (overlap_ij, overlap_jk, overlap_ki, overlap_ijk)
        region_cardinalities_from_sizes(*(int(value[at]) for value in sizes + overlaps))

    code = np.zeros(only_i.shape, dtype=np.uint8)
    for position, region in enumerate(regions):
        code |= (region > 0).astype(np.uint8) << np.uint8(position)
    motifs = motif_lookup_table()[code]
    if (motifs < 0).any():
        # Report the first offending triple in batch order; counting is
        # all-or-nothing per batch, so which invalid triple is named does not
        # affect the raised exception type.
        raise invalid_pattern_error(int(motifs[np.argmax(motifs < 0)]))
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
    """Validate anchor/wedge ids, matching ``ProjectedGraph.row``'s error."""
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


class _BlockRows(NamedTuple):
    """One gathered anchor block, one entry per (anchor, neighbor) position.

    Entry ``p`` is neighbor ``ids[p]`` of anchor ``anchors[owner[p]]``, with
    ``weights[p] = ω`` of that hyperwedge and the two hyperedges' sizes.
    Rows lie back to back, each sorted ascending by neighbor id.
    """

    anchors: np.ndarray
    ids: np.ndarray
    weights: np.ndarray
    owner: np.ndarray
    anchor_size: np.ndarray
    neighbor_size: np.ndarray


def _block_rows(
    sizes: np.ndarray,
    block: np.ndarray,
    ids: np.ndarray,
    weights: np.ndarray,
    lengths: np.ndarray,
) -> _BlockRows:
    owner = np.repeat(np.arange(block.size, dtype=np.int64), lengths)
    return _BlockRows(block, ids, weights, owner, sizes[block][owner], sizes[ids])


def _iter_pair_slabs(
    starts: np.ndarray, lengths: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Upper-triangle pairs of gathered row segments, as ``(left, right)``.

    Row ``r`` of a gathered block occupies positions ``starts[r]`` to
    ``starts[r] + lengths[r] - 1``; every pair of positions within one row
    is yielded once with ``left < right``, so ``ids[left] < ids[right]`` on
    the sorted rows. A lone row whose pair count exceeds the block budget
    (a hub) is enumerated in ``_iter_triu_chunks`` slabs, so its memory
    stays bounded.
    """
    pairs = lengths * (lengths - 1) // 2
    total = int(pairs.sum())
    if total == 0:
        return
    if lengths.size == 1 and total > _BLOCK_PAIR_BUDGET:
        start = int(starts[0])
        for left, right in _iter_triu_chunks(int(lengths[0])):
            yield start + left, start + right
        return
    yield _block_triu_positions(starts, lengths)


def _block_triu_positions(
    starts: np.ndarray, lengths: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Upper-triangle positions for every row segment of a block at once.

    Rows are bucketed by degree so all rows of equal length share a single
    cached ``triu_indices`` broadcast. Pair order is grouped by degree
    bucket, not row — the counters sum order-independent unit increments,
    so this changes nothing observable.
    """
    pairs = lengths * (lengths - 1) // 2
    total = int(pairs.sum())
    left = np.empty(total, dtype=np.int64)
    right = np.empty(total, dtype=np.int64)
    out = 0
    for degree in np.unique(lengths):
        degree = int(degree)
        if degree < 2:
            continue
        rows = np.nonzero(lengths == degree)[0]
        upper_i, upper_j = _triu_pairs(degree)
        count = rows.size * upper_i.size
        base = starts[rows][:, None]
        left[out : out + count] = (base + upper_i[None, :]).ravel()
        right[out : out + count] = (base + upper_j[None, :]).ravel()
        out += count
    return left, right


def _triple_overlaps(
    csr: HypergraphCSR, rows: _BlockRows, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """``|e_i ∩ e_j ∩ e_k|`` for pairs of positions within a block's rows.

    One bitmask row is built per position a pair uses — bit ``b`` set iff
    the ``b``-th node of the position's anchor also belongs to its neighbor
    — so each overlap is one ``popcount(mask_left & mask_right)``, with the
    masks indexed by position.
    """
    used = np.zeros(rows.ids.size, dtype=bool)
    used[left] = True
    used[right] = True
    positions = np.flatnonzero(used)
    mask_row = np.cumsum(used) - 1
    # The block's anchor nodes as one haystack keyed block_pos·|V| + node
    # (sorted, since each hyperedge row is), with each node's bit position
    # within its own row.
    anchor_positions, anchor_owner = gather_row_positions(
        csr.edge_ptr, rows.anchors
    )
    anchor_lengths = csr.edge_sizes[rows.anchors].astype(np.int64)
    local_bit = np.arange(anchor_positions.size, dtype=np.int64) - np.repeat(
        np.cumsum(anchor_lengths) - anchor_lengths, anchor_lengths
    )
    node_scale = np.int64(max(csr.num_nodes, 1))
    haystack = anchor_owner * node_scale + csr.edge_nodes[anchor_positions]

    values, value_owner = _gather_rows(
        csr.edge_ptr, csr.edge_nodes, rows.ids[positions]
    )
    hit, at = sorted_member_positions(
        haystack, rows.owner[positions[value_owner]] * node_scale + values
    )
    bit = local_bit[at[hit]].astype(np.uint64)
    words = max(1, (int(anchor_lengths.max()) + 63) // 64)
    masks = np.zeros((positions.size, words), dtype=np.uint64)
    np.bitwise_or.at(
        masks,
        (value_owner[hit], (bit >> np.uint64(6)).astype(np.int64)),
        np.uint64(1) << (bit & np.uint64(63)),
    )
    return _popcount_rows(masks[mask_row[left]] & masks[mask_row[right]])


# Pattern bits every open pair shares: e_a ∩ e_c and e_b ∩ e_c nonempty,
# every region inside e_a ∩ e_b empty (``classify_batch``'s region order).
_OPEN_PATTERN = (1 << 3) | (1 << 5)


def _as_if_open_codes(
    size_c: np.ndarray,
    size_a: np.ndarray,
    size_b: np.ndarray,
    weight_ca: np.ndarray,
    weight_cb: np.ndarray,
) -> np.ndarray:
    """As-if-open codes (0–7) of pairs ``{e_a, e_b}`` around centres ``e_c``.

    If ``e_a ∩ e_b`` were empty, the pair's pattern would be
    ``_OPEN_PATTERN`` plus three bits: ``|e_c| > ω_ca + ω_cb``,
    ``|e_a| > ω_ca`` and ``|e_b| > ω_cb``. All 8 such patterns are valid
    open motifs (17–22), so the codes never need checking.
    """
    code = (size_c > weight_ca + weight_cb).view(np.uint8)
    code |= (size_a > weight_ca).view(np.uint8) << np.uint8(1)
    code |= (size_b > weight_cb).view(np.uint8) << np.uint8(2)
    return code


def _accumulate_as_if_open(open_codes: np.ndarray, rows: _BlockRows) -> None:
    """Add each anchor's ``C(|N_i|, 2)`` neighbor pairs by as-if-open code.

    A pair's code needs the bit ``|e_j| > ω_ij`` of each neighbor and whether
    ``ω_ij + ω_ik < |e_i|``. With the block's entries sorted by ``(anchor,
    bit, ω)``, one ``searchsorted`` per bit counts, for every entry ``j``,
    the entries ``k`` of its row with that bit and ``ω_ik < |e_i| - ω_ij``;
    per-row bit counts give the pair totals. No pair is enumerated.
    """
    if rows.ids.size == 0:
        return
    weights = rows.weights
    bit = rows.neighbor_size > weights
    zero = ~bit
    group = 2 * rows.owner + bit
    # ω_ij ≤ |e_i|, so weights and thresholds both fit below the scale.
    scale = int(rows.anchor_size.max()) + 1
    keys = np.sort(group * scale + weights)
    group_size = np.bincount(group, minlength=2 * rows.anchors.size)
    group_start = np.cumsum(group_size) - group_size
    threshold = rows.anchor_size - weights
    one_group = 2 * rows.owner + 1
    below_one = (
        np.searchsorted(keys, one_group * scale + threshold) - group_start[one_group]
    )
    zero_group = 2 * rows.owner[zero]
    below_zero = (
        np.searchsorted(keys, zero_group * scale + threshold[zero])
        - group_start[zero_group]
    )
    # An entry counts itself when 2·ω_ij < |e_i|, and a pair of equal bits
    # is counted from both of its entries. Keys are the neighbor bits of a
    # code (bits 1 and 2); bit 0 is set for the pairs below the threshold.
    counts_self = 2 * weights < rows.anchor_size
    below = {
        0b000: (int(below_zero.sum()) - int(counts_self[zero].sum())) // 2,
        0b100: int(below_one[zero].sum()),
        0b110: (int(below_one[bit].sum()) - int(counts_self[bit].sum())) // 2,
    }
    num_zero = group_size[0::2]
    num_one = group_size[1::2]
    pairs = {
        0b000: num_zero * (num_zero - 1) // 2,
        0b100: num_zero * num_one,
        0b110: num_one * (num_one - 1) // 2,
    }
    for code, count in below.items():
        open_codes[code | 1] += count
        open_codes[code] += int(pairs[code].sum()) - count


def _accumulate_triangles(
    csr: HypergraphCSR,
    source,
    totals: np.ndarray,
    open_codes: np.ndarray,
    rows: _BlockRows,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """Correct the as-if-open counts for the closed upper pairs of a slab.

    The pairs lie above each anchor's diagonal (``i < j < k``), so a closed
    one is a triangle of the projected graph, met once, from its minimum
    hyperedge. Each adds its true motif to *totals* and removes from
    *open_codes* the as-if-open codes its three orientations contributed
    to the histograms of ``e_i``, ``e_j`` and ``e_k``.
    """
    weight_jk = source.pair_weights(rows.ids[left], rows.ids[right])
    closed = weight_jk > 0
    if not closed.any():
        return
    left = left[closed]
    right = right[closed]
    weight_jk = weight_jk[closed]
    size_i = rows.anchor_size[left]
    size_j = rows.neighbor_size[left]
    size_k = rows.neighbor_size[right]
    weight_ij = rows.weights[left]
    weight_ik = rows.weights[right]
    motifs = classify_batch(
        size_i,
        size_j,
        size_k,
        weight_ij,
        weight_jk,
        weight_ik,
        _triple_overlaps(csr, rows, left, right),
    )
    totals += np.bincount(motifs, minlength=NUM_MOTIFS + 1)
    for codes in (
        _as_if_open_codes(size_i, size_j, size_k, weight_ij, weight_ik),
        _as_if_open_codes(size_j, size_i, size_k, weight_ij, weight_jk),
        _as_if_open_codes(size_k, size_i, size_j, weight_ik, weight_jk),
    ):
        open_codes -= np.bincount(codes, minlength=8)


def count_exact_batched(
    csr: HypergraphCSR,
    adjacency,
    hyperedge_indices: Optional[Iterable[int]] = None,
) -> np.ndarray:
    """Exact h-motif counts (MoCHy-E) as a length-26 float array.

    With *hyperedge_indices*, the result is the sum of those anchors'
    *shares*. Anchor ``e_i``'s share counts every unordered pair of
    ``N_{e_i}`` under its as-if-open motif — an open pair is seen only from
    its centre, so that is its true motif — plus, for every triangle
    ``{e_i, e_j, e_k}`` of the projected graph with ``i < j < k``, its true
    motif minus the as-if-open motifs of its three orientations. Shares
    over any partition of the anchors sum to the full count. A share can
    hold negative entries, and it depends only on the anchor's row, its
    neighbors' sizes and the overlaps among them. Anchors are processed in
    pair-budgeted blocks with no per-anchor Python iteration.
    """
    anchors = _as_anchor_array(hyperedge_indices, csr.num_edges)
    totals = np.zeros(NUM_MOTIFS + 1, dtype=np.float64)
    open_codes = np.zeros(8, dtype=np.int64)
    for block, ids, weights, lengths in _iter_source_blocks(adjacency, anchors):
        rows = _block_rows(csr.edge_sizes, block, ids, weights, lengths)
        _accumulate_as_if_open(open_codes, rows)
        # Rows are sorted, so each anchor's upper tail (ids above the
        # anchor) is the row's last entries.
        lower = np.bincount(rows.owner[ids < block[rows.owner]], minlength=block.size)
        starts = np.cumsum(lengths) - lengths + lower
        for left, right in _iter_pair_slabs(starts, lengths - lower):
            _accumulate_triangles(csr, adjacency, totals, open_codes, rows, left, right)
    np.add.at(totals, motif_lookup_table()[_OPEN_PATTERN + np.arange(8)], open_codes)
    return totals[1:]


def _accumulate_pair_slab(
    csr: HypergraphCSR,
    source,
    totals: np.ndarray,
    rows: _BlockRows,
    left: np.ndarray,
    right: np.ndarray,
) -> None:
    """Classify one slab of neighbor pairs around their anchors into *totals*."""
    weight_jk = source.pair_weights(rows.ids[left], rows.ids[right])
    closed = weight_jk > 0
    triple = np.zeros(left.size, dtype=np.int64)
    if closed.any():
        triple[closed] = _triple_overlaps(csr, rows, left[closed], right[closed])
    motifs = classify_batch(
        rows.anchor_size[left],
        rows.neighbor_size[left],
        rows.neighbor_size[right],
        rows.weights[left],
        weight_jk,
        rows.weights[right],
        triple,
    )
    totals += np.bincount(motifs, minlength=NUM_MOTIFS + 1)


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
    for block, ids, weights, lengths in _iter_source_blocks(
        adjacency, anchor_array
    ):
        rows = _block_rows(csr.edge_sizes, block, ids, weights, lengths)
        # Case 1: pairs within each anchor's neighborhood.
        for left, right in _iter_pair_slabs(np.cumsum(lengths) - lengths, lengths):
            _accumulate_pair_slab(csr, adjacency, totals, rows, left, right)
        # Case 2: e_k adjacent to e_j but not to the anchor.
        _accumulate_second_hop(csr, adjacency, totals, rows)
    return totals[1:]


def _accumulate_second_hop(
    csr: HypergraphCSR, source, totals: np.ndarray, rows: _BlockRows
) -> None:
    """Count Algorithm 4 case-2 triples for a gathered anchor block.

    For every anchor ``e_i`` in the block and neighbor ``e_j``, candidates
    are ``N_{e_j} \\ (N_{e_i} ∪ {e_i})``; membership in ``N_{e_i}`` is tested
    against one concatenated sorted haystack keyed ``anchor_pos·|E| + id``,
    so the whole block needs no per-anchor iteration. ``e_k ∩ e_i = ∅`` for
    every survivor, so both ``ω(∧_ki)`` and the triple overlap vanish.
    """
    ids = rows.ids
    if ids.size == 0:
        return
    edge_scale = np.int64(max(csr.num_edges, 1))
    haystack = rows.owner * edge_scale + ids
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
        apos = rows.owner[entry]
        in_neighborhood, _ = sorted_member_positions(
            haystack, apos * edge_scale + cand_ids
        )
        keep = ~in_neighborhood & (cand_ids != rows.anchors[apos])
        if keep.any():
            entry = entry[keep]
            motifs = classify_batch(
                rows.anchor_size[entry],
                rows.neighbor_size[entry],
                csr.edge_sizes[cand_ids[keep]],
                rows.weights[entry],
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
