"""The projected graph ``G¯ = (E, ∧, ω)`` of a hypergraph.

Hyperedges of the original hypergraph become vertices; two are adjacent iff
they share at least one node, and the edge weight ``ω(∧_ij) = |e_i ∩ e_j|``
records the overlap size (paper, Section 2.1). All MoCHy algorithms consume
this structure: ``N_{e_i}`` is the neighborhood of vertex ``i`` and the
hyperwedge set ``∧`` is its edge set.

Two providers serve it, both derived from :class:`NeighborhoodRows`:
:class:`ProjectedGraph` holds the whole graph as CSR arrays, and
:class:`~repro.projection.lazy.LazyProjection` computes rows on demand under
a memoization budget (Section 3.4). Both serve the block interface the
counting kernels consume (``gather_rows``, ``row_lengths``,
``pair_weights``) and share one set of row accessors, so they give the same
answers and raise the same errors.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import ProjectionError
from repro.fastcore.projection import (
    WEIGHT_DTYPE,
    gather_row_positions,
    sorted_member_positions,
    upper_row_starts,
)


class NeighborhoodRows:
    """Row accessors shared by the projection providers.

    A subclass serves ``num_hyperedges``, :meth:`row` (which refuses an
    out-of-range vertex through :meth:`_check_vertex`), the kernels' block
    interface and ``_upper_counts``, the number of neighbors above the
    diagonal of every row.
    """

    __slots__ = ("_wedge_offsets",)

    num_hyperedges: int

    def neighbors(self, i: int) -> Dict[int, int]:
        """``{j: ω(∧_ij)}`` for all hyperedges adjacent to *i* (possibly empty)."""
        ids, weights = self.row(i)
        return dict(zip(ids.tolist(), weights.tolist()))

    def neighbor_indices(self, i: int) -> List[int]:
        """Indices of hyperedges adjacent to *i* — the paper's ``N_{e_i}``."""
        return self.row(i)[0].tolist()

    def overlap(self, i: int, j: int) -> int:
        """``ω(∧_ij) = |e_i ∩ e_j|`` (0 if not adjacent)."""
        self._check_vertex(i)
        self._check_vertex(j)
        ids, weights = self.row(i)
        position = int(np.searchsorted(ids, j))
        if position < ids.size and int(ids[position]) == j:
            return int(weights[position])
        return 0

    @property
    def num_hyperwedges(self) -> int:
        """Number of hyperwedges ``|∧|`` (edges of the projected graph)."""
        return int(self._upper_offsets()[-1])

    def hyperwedges_at(self, positions) -> np.ndarray:
        """``hyperwedge_list()[p]`` for each ``p`` in *positions*, as ``(n, 2)``.

        MoCHy-A+ draws its sample through this mapping, so it never
        materializes ``∧``. ``offsets[i]`` counts the hyperwedges ``(a, b)``,
        ``a < b``, whose row ``a`` precedes ``i``; a position maps to its row
        by ``searchsorted`` and, within the row, indexes the sorted ids above
        the diagonal, which are the row's last ids. Only the distinct rows
        hit are gathered.
        """
        offsets = self._upper_offsets()
        positions = np.asarray(positions, dtype=np.int64).ravel()
        if positions.size and (
            int(positions.min()) < 0 or int(positions.max()) >= int(offsets[-1])
        ):
            raise ProjectionError(
                f"hyperwedge positions must lie in [0, {int(offsets[-1])})"
            )
        rows = np.searchsorted(offsets, positions, side="right") - 1
        distinct, inverse = np.unique(rows, return_inverse=True)
        ids, _, lengths = self.gather_rows(distinct)
        upper_begin = np.cumsum(lengths) - (offsets[distinct + 1] - offsets[distinct])
        cols = ids[upper_begin[inverse] + positions - offsets[rows]]
        return np.stack([rows, cols], axis=1)

    def _upper_offsets(self) -> np.ndarray:
        """Per-row upper-triangle offsets (``|E| + 1`` integers), computed once."""
        if self._wedge_offsets is None:
            upper = self._upper_counts()
            self._wedge_offsets = np.concatenate(([0], np.cumsum(upper)))
        return self._wedge_offsets

    def _check_vertex(self, i: int) -> None:
        if not 0 <= i < self.num_hyperedges:
            raise ProjectionError(
                f"vertex {i} out of range [0, {self.num_hyperedges})"
            )


class ProjectedGraph(NeighborhoodRows):
    """Weighted adjacency over hyperedge indices, stored as CSR arrays.

    ``idx[ptr[i]:ptr[i+1]]`` are the neighbors of hyperedge ``i`` sorted
    ascending and ``weight`` the matching overlap sizes, so

    * a neighborhood is an O(1) pair of array slices,
    * a single overlap ``ω(∧_ij)`` is one binary search in row ``i``,
    * a *batch* of overlaps is one vectorized ``searchsorted`` against the
      globally sorted key array ``row·|E| + col`` (built on first use),
    * a *block* of neighborhoods is one :meth:`gather_rows` call — the unit
      the anchor-block counting kernels consume.

    The arrays are trusted (rows sorted ascending, symmetric); the
    constructor performs only cheap shape checks. Hand-built graphs go
    through :func:`repro.fastcore.reference.projected_graph_from_mapping`,
    which validates them.
    """

    __slots__ = ("num_hyperedges", "ptr", "idx", "weight", "_keys")

    def __init__(
        self,
        num_hyperedges: int,
        ptr: np.ndarray,
        idx: np.ndarray,
        weight: np.ndarray,
    ) -> None:
        if num_hyperedges < 0:
            raise ProjectionError("num_hyperedges must be non-negative")
        if len(ptr) != num_hyperedges + 1 or len(idx) != len(weight):
            raise ProjectionError("malformed CSR adjacency arrays")
        self.__setstate__((int(num_hyperedges), ptr, idx, weight))

    def __getstate__(self) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        # Drop both lazy caches: worker processes rebuild them on first use.
        return (self.num_hyperedges, self.ptr, self.idx, self.weight)

    def __setstate__(
        self, state: Tuple[int, np.ndarray, np.ndarray, np.ndarray]
    ) -> None:
        self.num_hyperedges, self.ptr, self.idx, self.weight = state
        self._keys: Optional[np.ndarray] = None
        self._wedge_offsets: Optional[np.ndarray] = None

    def adjacency_arrays(self) -> "ProjectedGraph":
        """The graph itself, which holds the CSR arrays ``ptr``/``idx``/``weight``."""
        return self

    # ----------------------------------------------------------------- basics
    @property
    def num_hyperwedges(self) -> int:
        """Number of hyperwedges ``|∧|`` (edges of the projected graph)."""
        return int(self.idx.size) // 2

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor ids, weights)`` of vertex *i* as array slices."""
        self._check_vertex(i)
        start, end = self.ptr[i], self.ptr[i + 1]
        return self.idx[start:end], self.weight[start:end]

    def degree(self, i: int) -> int:
        """``|N_{e_i}|`` — the degree of hyperedge *i* in the projected graph."""
        self._check_vertex(i)
        return int(self.ptr[i + 1] - self.ptr[i])

    def degrees(self) -> List[int]:
        """Degrees of all vertices, in index order."""
        return np.diff(self.ptr).tolist()

    def are_adjacent(self, i: int, j: int) -> bool:
        """Whether hyperedges *i* and *j* overlap."""
        return self.overlap(i, j) > 0

    # ------------------------------------------------------- kernel interface
    def row_lengths(self, rows: np.ndarray) -> np.ndarray:
        """Projected degrees of the given vertices as int64."""
        rows = np.asarray(rows, dtype=np.int64)
        return (self.ptr[rows + 1] - self.ptr[rows]).astype(np.int64)

    def gather_rows(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated ``(neighbor ids, weights, lengths)`` of the given rows.

        ``lengths[t]`` is the degree of ``rows[t]``; the id/weight arrays are
        the rows laid out back to back, each sorted ascending by neighbor id.
        """
        rows = np.asarray(rows, dtype=np.int64)
        positions, _ = gather_row_positions(self.ptr, rows)
        lengths = (self.ptr[rows + 1] - self.ptr[rows]).astype(np.int64)
        return self.idx[positions], self.weight[positions], lengths

    def pair_weights(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized ``ω(∧_{rows[t], cols[t]})`` lookups (0 where absent)."""
        scale = max(self.num_hyperedges, 1)
        if self._keys is None:
            owners = np.repeat(
                np.arange(self.num_hyperedges, dtype=np.int64), np.diff(self.ptr)
            )
            self._keys = owners * scale + self.idx
        keys = self._keys
        query = rows.astype(np.int64) * scale + cols
        found, positions = sorted_member_positions(keys, query)
        if keys.size == 0:
            return np.zeros(len(rows), dtype=WEIGHT_DTYPE)
        return np.where(found, self.weight[positions], 0).astype(WEIGHT_DTYPE)

    # ------------------------------------------------------------ hyperwedges
    def hyperwedges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over hyperwedges as ordered pairs ``(i, j)`` with ``i < j``.

        Pairs are produced in lexicographic order.
        """
        for i in range(self.num_hyperedges):
            row = self.idx[self.ptr[i] : self.ptr[i + 1]]
            for j in row[np.searchsorted(row, i + 1) :].tolist():
                yield (i, j)

    def hyperwedge_list(self) -> List[Tuple[int, int]]:
        """Materialized list of hyperwedges ``(i, j)`` with ``i < j``.

        Lexicographic, the order :meth:`hyperwedges_at` indexes without
        building this list.
        """
        rows = np.repeat(
            np.arange(self.num_hyperedges, dtype=np.int64), np.diff(self.ptr)
        )
        upper = rows < self.idx
        return list(zip(rows[upper].tolist(), self.idx[upper].tolist()))

    def _upper_counts(self) -> np.ndarray:
        return self.ptr[1:] - upper_row_starts(self.ptr, self.idx)

    # -------------------------------------------------------------- estimators
    def total_neighborhood_work(self) -> int:
        """``Σ_i |N_{e_i}|²`` — the combinatorial term of Theorem 1's complexity."""
        degrees = np.diff(self.ptr)
        return int((degrees.astype(np.int64) ** 2).sum())

    # ----------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProjectedGraph):
            return NotImplemented
        return (
            self.num_hyperedges == other.num_hyperedges
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.idx, other.idx)
            and np.array_equal(self.weight, other.weight)
        )

    def __repr__(self) -> str:
        return (
            f"ProjectedGraph(num_hyperedges={self.num_hyperedges}, "
            f"num_hyperwedges={self.num_hyperwedges})"
        )
