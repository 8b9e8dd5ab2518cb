"""Classifying an h-motif instance — the paper's ``h({e_i, e_j, e_k})``.

Given three connected hyperedges, the classifier determines which of the 26
h-motifs describes their connectivity pattern. Following Lemma 2, the seven
region cardinalities are derived from the three hyperedge sizes, the three
pairwise intersection sizes and the triple intersection size using
inclusion–exclusion, so the only set scan needed is over the *smallest*
hyperedge (to compute the triple intersection), giving
``O(min(|e_i|, |e_j|, |e_k|))`` time when pairwise overlaps are available from
the projected graph. Which regions are non-empty fixes the motif, so the
answer is one read of :func:`motif_lookup_table`, the same 128-entry table
the batched kernels index.
"""

from __future__ import annotations

from functools import lru_cache
from typing import AbstractSet, Hashable, Iterable, Optional, Tuple

import numpy as np

from repro.exceptions import DuplicateHyperedgeError, MotifError, NotConnectedError
from repro.motifs.patterns import Pattern, motif_index, pattern_from_bits

#: A hyperedge as :func:`classify_instance` reads it: any iterable of nodes.
SetLike = Iterable[Hashable]

#: Sentinels used in :func:`motif_lookup_table` for invalid emptiness patterns,
#: in check order: an empty hyperedge, two equal hyperedges, a disconnected triple.
LOOKUP_EMPTY_EDGE = -1
LOOKUP_DUPLICATE = -2
LOOKUP_DISCONNECTED = -3


@lru_cache(maxsize=1)
def motif_lookup_table() -> np.ndarray:
    """Pattern-code → motif-index lookup table, the one h-motif classifier.

    Entry ``c`` (for ``c`` in ``[0, 128)``) holds the 1-based motif index of
    the emptiness pattern whose :func:`repro.motifs.patterns.pattern_to_int`
    encoding is ``c``, or a negative sentinel (:data:`LOOKUP_EMPTY_EDGE`,
    :data:`LOOKUP_DUPLICATE`, :data:`LOOKUP_DISCONNECTED`) naming the first
    check it fails. The table folds the whole canonicalization + validation
    pipeline into one int8 array, built once per process: the scalar
    :func:`classify_from_cardinalities` reads one entry, and the fast kernels
    classify entire batches with a single fancy index.
    """
    from repro.motifs import patterns as pattern_module

    table = np.empty(128, dtype=np.int8)
    for code in range(128):
        pattern = pattern_module.pattern_from_int(code)
        if any(
            pattern_module.edge_is_empty(pattern, position) for position in range(3)
        ):
            table[code] = LOOKUP_EMPTY_EDGE
        elif any(
            pattern_module.edges_are_duplicated(pattern, first, second)
            for first, second in ((0, 1), (1, 2), (0, 2))
        ):
            table[code] = LOOKUP_DUPLICATE
        elif not pattern_module.is_connected(pattern):
            table[code] = LOOKUP_DISCONNECTED
        else:
            table[code] = motif_index(pattern)
    table.setflags(write=False)
    return table


def region_cardinalities_from_sizes(
    size_i: int,
    size_j: int,
    size_k: int,
    overlap_ij: int,
    overlap_jk: int,
    overlap_ki: int,
    overlap_ijk: int,
) -> Tuple[int, int, int, int, int, int, int]:
    """Cardinalities of the seven Venn regions from set and intersection sizes.

    Uses the inclusion–exclusion identities listed in the proof of Lemma 2.
    Raises :class:`MotifError` if the inputs are inconsistent (some region
    would have negative size).
    """
    only_i = size_i - overlap_ij - overlap_ki + overlap_ijk
    only_j = size_j - overlap_ij - overlap_jk + overlap_ijk
    only_k = size_k - overlap_ki - overlap_jk + overlap_ijk
    pair_ij = overlap_ij - overlap_ijk
    pair_jk = overlap_jk - overlap_ijk
    pair_ki = overlap_ki - overlap_ijk
    regions = (only_i, only_j, only_k, pair_ij, pair_jk, pair_ki, overlap_ijk)
    if any(value < 0 for value in regions):
        raise MotifError(
            "inconsistent cardinalities: "
            f"sizes=({size_i}, {size_j}, {size_k}), "
            f"pairwise=({overlap_ij}, {overlap_jk}, {overlap_ki}), "
            f"triple={overlap_ijk} produce negative region sizes {regions}"
        )
    return regions


def pattern_from_cardinalities(
    size_i: int,
    size_j: int,
    size_k: int,
    overlap_ij: int,
    overlap_jk: int,
    overlap_ki: int,
    overlap_ijk: int,
) -> Pattern:
    """Emptiness pattern of the seven regions given set and intersection sizes."""
    regions = region_cardinalities_from_sizes(
        size_i, size_j, size_k, overlap_ij, overlap_jk, overlap_ki, overlap_ijk
    )
    return pattern_from_bits([value > 0 for value in regions])


def classify_from_cardinalities(
    size_i: int,
    size_j: int,
    size_k: int,
    overlap_ij: int,
    overlap_jk: int,
    overlap_ki: int,
    overlap_ijk: int,
) -> int:
    """Motif index (1..26) from set and intersection sizes.

    Raises
    ------
    MotifError
        If the sizes are inconsistent or a hyperedge is empty.
    NotConnectedError
        If the three hyperedges are not connected.
    DuplicateHyperedgeError
        If two of the hyperedges are identical.
    """
    regions = region_cardinalities_from_sizes(
        size_i, size_j, size_k, overlap_ij, overlap_jk, overlap_ki, overlap_ijk
    )
    code = sum(1 << position for position, value in enumerate(regions) if value)
    motif = int(motif_lookup_table()[code])
    if motif < 0:
        raise invalid_pattern_error(motif)
    return motif


def invalid_pattern_error(sentinel: int) -> MotifError:
    """The exception for a negative :func:`motif_lookup_table` entry."""
    if sentinel == LOOKUP_EMPTY_EDGE:
        return MotifError("an h-motif instance cannot contain an empty hyperedge")
    if sentinel == LOOKUP_DUPLICATE:
        return DuplicateHyperedgeError(
            "h-motif instances must consist of three distinct hyperedges"
        )
    return NotConnectedError(
        "the three hyperedges are not connected and do not form an h-motif instance"
    )


def triple_overlap_size(
    edge_i: AbstractSet, edge_j: AbstractSet, edge_k: AbstractSet
) -> int:
    """``|e_i ∩ e_j ∩ e_k|`` computed by scanning the smallest hyperedge."""
    smallest, second, third = sorted((edge_i, edge_j, edge_k), key=len)
    return sum(1 for node in smallest if node in second and node in third)


def classify_instance(
    edge_i: SetLike,
    edge_j: SetLike,
    edge_k: SetLike,
    overlap_ij: Optional[int] = None,
    overlap_jk: Optional[int] = None,
    overlap_ki: Optional[int] = None,
) -> int:
    """Motif index (1..26) of the instance ``{edge_i, edge_j, edge_k}``.

    Each hyperedge may be any iterable of nodes and is read as a set.
    Pairwise overlap sizes may be supplied (they are stored on the projected
    graph as hyperwedge weights ``ω``); any that are omitted are computed from
    the sets directly.

    Raises
    ------
    NotConnectedError
        If the three hyperedges are not connected.
    DuplicateHyperedgeError
        If two of the hyperedges are equal as sets.
    """
    edge_i, edge_j, edge_k = frozenset(edge_i), frozenset(edge_j), frozenset(edge_k)
    if overlap_ij is None:
        overlap_ij = len(edge_i & edge_j)
    if overlap_jk is None:
        overlap_jk = len(edge_j & edge_k)
    if overlap_ki is None:
        overlap_ki = len(edge_k & edge_i)
    return classify_from_cardinalities(
        len(edge_i),
        len(edge_j),
        len(edge_k),
        overlap_ij,
        overlap_jk,
        overlap_ki,
        triple_overlap_size(edge_i, edge_j, edge_k),
    )
