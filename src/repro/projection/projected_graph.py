"""The projected graph ``G¯ = (E, ∧, ω)`` of a hypergraph.

Hyperedges of the original hypergraph become vertices; two are adjacent iff
they share at least one node, and the edge weight ``ω(∧_ij) = |e_i ∩ e_j|``
records the overlap size (paper, Section 2.1). All MoCHy algorithms consume
this structure: ``N_{e_i}`` is the neighborhood of vertex ``i`` and the
hyperwedge set ``∧`` is its edge set.

Storage is array-native (``repro.fastcore``): CSR adjacency with neighbor ids
sorted ascending per row, so neighborhoods are O(1) slices, single overlaps
are one binary search, and the batched kernels can consume the raw arrays
directly via :meth:`ProjectedGraph.adjacency_arrays`. The mapping-based
constructor is kept for hand-built graphs and validates exactly as before.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import ProjectionError
from repro.fastcore.projection import (
    WEIGHT_DTYPE,
    AdjacencyArrays,
    hyperwedges_at,
    pairs_to_symmetric_csr,
    upper_row_starts,
)


class ProjectedGraph:
    """Weighted adjacency over hyperedge indices, stored as CSR arrays.

    Parameters
    ----------
    num_hyperedges:
        Number of vertices (equals ``|E|`` of the source hypergraph).
    adjacency:
        Mapping ``i -> {j: ω(∧_ij)}``. Must be symmetric; the constructor
        verifies symmetry and positive weights. Builders that already hold
        CSR arrays should use :meth:`from_csr` instead.
    """

    __slots__ = ("_num_hyperedges", "_arrays", "_num_hyperwedges", "_wedge_offsets")

    def __init__(
        self, num_hyperedges: int, adjacency: Mapping[int, Mapping[int, int]]
    ) -> None:
        if num_hyperedges < 0:
            raise ProjectionError("num_hyperedges must be non-negative")
        num_hyperedges = int(num_hyperedges)
        normalized: Dict[int, Dict[int, int]] = {}
        for i, neighbors in adjacency.items():
            if not 0 <= i < num_hyperedges:
                raise ProjectionError(f"vertex {i} out of range")
            normalized[int(i)] = {int(j): int(w) for j, w in neighbors.items()}
        _validate_mapping(num_hyperedges, normalized)
        self._init_from_arrays(
            num_hyperedges, *_mapping_to_csr(num_hyperedges, normalized)
        )

    def _init_from_arrays(
        self,
        num_hyperedges: int,
        ptr: np.ndarray,
        idx: np.ndarray,
        weight: np.ndarray,
    ) -> None:
        self._num_hyperedges = num_hyperedges
        self._arrays = AdjacencyArrays(num_hyperedges, ptr, idx, weight)
        self._num_hyperwedges = int(idx.size) // 2
        self._wedge_offsets: Optional[np.ndarray] = None

    @classmethod
    def from_csr(
        cls,
        num_hyperedges: int,
        ptr: np.ndarray,
        idx: np.ndarray,
        weight: np.ndarray,
    ) -> "ProjectedGraph":
        """Wrap prebuilt CSR adjacency (rows sorted ascending, symmetric).

        Trusted fast path for :func:`repro.projection.project`; performs only
        cheap shape checks.
        """
        if num_hyperedges < 0:
            raise ProjectionError("num_hyperedges must be non-negative")
        if len(ptr) != num_hyperedges + 1 or len(idx) != len(weight):
            raise ProjectionError("malformed CSR adjacency arrays")
        graph = cls.__new__(cls)
        graph._init_from_arrays(int(num_hyperedges), ptr, idx, weight)
        return graph

    def adjacency_arrays(self) -> AdjacencyArrays:
        """The raw CSR arrays consumed by the fast counting kernels."""
        return self._arrays

    # ----------------------------------------------------------------- basics
    @property
    def num_hyperedges(self) -> int:
        """Number of vertices (hyperedges of the source hypergraph)."""
        return self._num_hyperedges

    @property
    def num_hyperwedges(self) -> int:
        """Number of hyperwedges ``|∧|`` (edges of the projected graph)."""
        return self._num_hyperwedges

    def neighbors(self, i: int) -> Dict[int, int]:
        """``{j: ω(∧_ij)}`` for all hyperedges adjacent to *i* (possibly empty)."""
        self._check_vertex(i)
        ids, weights = self._arrays.row(i)
        return dict(zip(ids.tolist(), weights.tolist()))

    def neighbor_indices(self, i: int) -> List[int]:
        """Indices of hyperedges adjacent to *i* — the paper's ``N_{e_i}``."""
        self._check_vertex(i)
        return self._arrays.row(i)[0].tolist()

    def degree(self, i: int) -> int:
        """``|N_{e_i}|`` — the degree of hyperedge *i* in the projected graph."""
        self._check_vertex(i)
        ptr = self._arrays.ptr
        return int(ptr[i + 1] - ptr[i])

    def degrees(self) -> List[int]:
        """Degrees of all vertices, in index order."""
        return np.diff(self._arrays.ptr).tolist()

    def are_adjacent(self, i: int, j: int) -> bool:
        """Whether hyperedges *i* and *j* overlap."""
        return self.overlap(i, j) > 0

    def overlap(self, i: int, j: int) -> int:
        """``ω(∧_ij) = |e_i ∩ e_j|`` (0 if not adjacent)."""
        self._check_vertex(i)
        self._check_vertex(j)
        ids, weights = self._arrays.row(i)
        position = int(np.searchsorted(ids, j))
        if position < ids.size and int(ids[position]) == j:
            return int(weights[position])
        return 0

    # ------------------------------------------------------------ hyperwedges
    def hyperwedges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over hyperwedges as ordered pairs ``(i, j)`` with ``i < j``.

        Pairs are produced in lexicographic order.
        """
        arrays = self._arrays
        for i in range(self._num_hyperedges):
            row = arrays.idx[arrays.ptr[i] : arrays.ptr[i + 1]]
            for j in row[np.searchsorted(row, i + 1) :].tolist():
                yield (i, j)

    def hyperwedge_list(self) -> List[Tuple[int, int]]:
        """Materialized list of hyperwedges ``(i, j)`` with ``i < j``.

        Lexicographic, the order :meth:`hyperwedges_at` indexes without
        building this list.
        """
        arrays = self._arrays
        rows = np.repeat(
            np.arange(self._num_hyperedges, dtype=np.int64), np.diff(arrays.ptr)
        )
        upper = rows < arrays.idx
        return list(zip(rows[upper].tolist(), arrays.idx[upper].tolist()))

    def hyperwedges_at(self, positions) -> np.ndarray:
        """``hyperwedge_list()[p]`` for each ``p`` in *positions*, as ``(n, 2)``.

        MoCHy-A+ draws its sample through this mapping, so it never
        materializes ``∧``: the per-row offsets it needs (``|E| + 1``
        integers) are computed once and cached.
        """
        if self._wedge_offsets is None:
            arrays = self._arrays
            upper = arrays.ptr[1:] - upper_row_starts(arrays.ptr, arrays.idx)
            self._wedge_offsets = np.concatenate(([0], np.cumsum(upper)))
        return hyperwedges_at(self._arrays, self._wedge_offsets, positions)

    # -------------------------------------------------------------- estimators
    def total_neighborhood_work(self) -> int:
        """``Σ_i |N_{e_i}|²`` — the combinatorial term of Theorem 1's complexity."""
        degrees = np.diff(self._arrays.ptr)
        return int((degrees.astype(np.int64) ** 2).sum())

    # ----------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectedGraph):
            return NotImplemented
        return (
            self._num_hyperedges == other._num_hyperedges
            and np.array_equal(self._arrays.ptr, other._arrays.ptr)
            and np.array_equal(self._arrays.idx, other._arrays.idx)
            and np.array_equal(self._arrays.weight, other._arrays.weight)
        )

    def __repr__(self) -> str:
        return (
            f"ProjectedGraph(num_hyperedges={self._num_hyperedges}, "
            f"num_hyperwedges={self._num_hyperwedges})"
        )

    def _check_vertex(self, i: int) -> None:
        if not 0 <= i < self._num_hyperedges:
            raise ProjectionError(
                f"vertex {i} out of range [0, {self._num_hyperedges})"
            )


def _validate_mapping(
    num_hyperedges: int, adjacency: Dict[int, Dict[int, int]]
) -> None:
    for i, neighbors in adjacency.items():
        for j, weight in neighbors.items():
            if not 0 <= j < num_hyperedges:
                raise ProjectionError(f"neighbor {j} of vertex {i} out of range")
            if i == j:
                raise ProjectionError(f"self-loop on vertex {i}")
            if weight <= 0:
                raise ProjectionError(
                    f"hyperwedge ({i}, {j}) has non-positive weight {weight}"
                )
            if weight > np.iinfo(WEIGHT_DTYPE).max:
                # The CSR layout stores weights as int32; a silent cast would
                # wrap a huge hand-supplied weight negative.
                raise ProjectionError(
                    f"hyperwedge ({i}, {j}) weight {weight} exceeds the "
                    f"supported maximum {np.iinfo(WEIGHT_DTYPE).max}"
                )
            if adjacency.get(j, {}).get(i) != weight:
                raise ProjectionError(
                    f"adjacency is not symmetric for pair ({i}, {j})"
                )


def _mapping_to_csr(
    num_hyperedges: int, adjacency: Dict[int, Dict[int, int]]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The mapping is validated symmetric, so emitting the upper triangle as
    # (key, weight) pairs lets the fast-core assembler do the mirroring and
    # CSR pointer build — one implementation to maintain.
    scale = np.int64(max(num_hyperedges, 1))
    upper = [
        (int(i) * int(scale) + int(j), weight)
        for i, neighbors in adjacency.items()
        for j, weight in neighbors.items()
        if i < j
    ]
    keys = np.fromiter((key for key, _ in upper), dtype=np.int64, count=len(upper))
    counts = np.fromiter(
        (weight for _, weight in upper), dtype=np.int64, count=len(upper)
    )
    return pairs_to_symmetric_csr(keys, counts, num_hyperedges)
