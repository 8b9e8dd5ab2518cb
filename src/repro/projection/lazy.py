"""On-the-fly (lazy) projection with a memoization budget (paper Section 3.4).

When the hypergraph is large, materializing the whole projected graph costs
``O(|E| + |∧|)`` memory. Instead, :class:`LazyProjection` computes the
neighborhood of a hyperedge only when an algorithm asks for it, and memoizes
at most a configurable number of neighborhoods. The paper reports that
prioritizing hyperedges with high projected-graph degree outperforms random
or LRU retention (Figure 11); all three policies are implemented so the
ablation can be reproduced.

The cache is array-native: each memoized neighborhood is a pair of sorted
``(neighbor ids, weights)`` arrays computed by one vectorized histogram over
the CSR membership rows (:func:`repro.fastcore.projection.neighborhood_arrays`).
On top of :meth:`row`, the class serves the same block interface the batched
counting kernels consume from :class:`~repro.fastcore.projection.AdjacencyArrays`
(``gather_rows`` / ``row_lengths`` / ``pair_weights``), so ``--projection
lazy`` runs through the exact same vectorized kernels as the full projection
— only row *fetches* honor the budget. Dict-shaped accessors
(:meth:`neighbors`, :meth:`overlap`) remain for the per-triple reference
counters and provider-agnostic callers.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.fastcore.projection import (
    hyperwedges_at,
    neighborhood_arrays,
    sorted_member_positions,
)
from repro.hypergraph.hypergraph import Hypergraph
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_non_negative_int

#: Retention policies for memoized neighborhoods.
POLICY_DEGREE = "degree"
POLICY_LRU = "lru"
POLICY_RANDOM = "random"
_POLICIES = (POLICY_DEGREE, POLICY_LRU, POLICY_RANDOM)


class LazyProjection:
    """Neighborhood provider with a bounded memoization cache.

    Parameters
    ----------
    hypergraph:
        Source hypergraph.
    budget:
        Maximum number of hyperedge neighborhoods kept in memory. ``0``
        disables memoization entirely (every request recomputes); ``None``
        means unlimited (equivalent to full projection, built incrementally).
    policy:
        ``"degree"`` keeps the neighborhoods of highest projected-graph degree
        (the paper's best-performing scheme), ``"lru"`` keeps the most recently
        used, ``"random"`` evicts uniformly at random.
    seed:
        Randomness for the ``"random"`` policy.
    """

    def __init__(
        self,
        hypergraph: Hypergraph,
        budget: Optional[int] = None,
        policy: str = POLICY_DEGREE,
        seed: SeedLike = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        if budget is not None:
            budget = require_non_negative_int(budget, "budget")
        self._hypergraph = hypergraph
        self._csr = hypergraph.csr()
        self._budget = budget
        self._policy = policy
        self._rng = ensure_rng(seed)
        self._cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._computations = 0
        self._hits = 0
        self._wedge_offsets: Optional[np.ndarray] = None

    # ----------------------------------------------------------------- stats
    @property
    def num_hyperedges(self) -> int:
        """Number of hyperedges in the underlying hypergraph."""
        return self._hypergraph.num_hyperedges

    @property
    def computations(self) -> int:
        """How many neighborhoods have been computed from scratch."""
        return self._computations

    @property
    def cache_hits(self) -> int:
        """How many neighborhood requests were served from the cache."""
        return self._hits

    @property
    def cache_size(self) -> int:
        """Number of neighborhoods currently memoized."""
        return len(self._cache)

    @property
    def policy(self) -> str:
        """The configured retention policy."""
        return self._policy

    @property
    def budget(self) -> Optional[int]:
        """The configured memoization budget (``None`` = unlimited)."""
        return self._budget

    # ------------------------------------------------------------ neighborhoods
    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbor ids, weights)`` of hyperedge *i*, sorted ascending.

        Whether computed on the fly or read from the cache, the neighborhood
        is always exact, so algorithms built on top are unaffected by the
        budget (only their running time is).
        """
        cached = self._cache.get(i)
        if cached is not None:
            self._hits += 1
            if self._policy == POLICY_LRU:
                self._cache.move_to_end(i)
            return cached
        self._hypergraph._check_edge_index(i)
        csr = self._csr
        neighborhood = neighborhood_arrays(
            csr.node_ptr, csr.node_edges, csr.edge_row(i), i
        )
        self._computations += 1
        self._maybe_store(i, neighborhood)
        return neighborhood

    def neighbors(self, i: int) -> Dict[int, int]:
        """``{j: ω(∧_ij)}`` for hyperedge *i*, memoizing within the budget."""
        ids, weights = self.row(i)
        return {
            int(j): int(w) for j, w in zip(ids.tolist(), weights.tolist())
        }

    def neighbor_indices(self, i: int) -> List[int]:
        """Indices of hyperedges adjacent to *i*."""
        return self.row(i)[0].tolist()

    def overlap(self, i: int, j: int) -> int:
        """``|e_i ∩ e_j|`` computed via the (possibly cached) neighborhood of *i*."""
        ids, weights = self.row(i)
        position = int(np.searchsorted(ids, j))
        if position < ids.size and int(ids[position]) == j:
            return int(weights[position])
        return 0

    def hyperwedge_list(self) -> List[Tuple[int, int]]:
        """All hyperwedges ``(i, j)`` with ``i < j``, in lexicographic order.

        Enumerating hyperwedges requires touching every neighborhood once; the
        scan honours the memoization budget, but the list itself is
        ``O(|∧|)`` — MoCHy-A+ samples through :meth:`hyperwedges_at` instead.
        """
        wedges: List[Tuple[int, int]] = []
        for i in range(self.num_hyperedges):
            ids, _ = self.row(i)
            for j in ids[ids > i].tolist():
                wedges.append((i, int(j)))
        return wedges

    @property
    def num_hyperwedges(self) -> int:
        """``|∧|``; the first call scans every neighborhood once."""
        return int(self._upper_offsets()[-1])

    def hyperwedges_at(self, positions) -> np.ndarray:
        """``hyperwedge_list()[p]`` for each ``p`` in *positions*, as ``(n, 2)``.

        Only the rows the positions land in are fetched (budget honoured).
        """
        return hyperwedges_at(self, self._upper_offsets(), positions)

    def _upper_offsets(self) -> np.ndarray:
        """Per-row upper-triangle offsets (``|E| + 1`` integers), scanned once.

        The scan fetches each neighborhood through :meth:`row`, so it honours
        the memoization budget and keeps nothing ``O(|∧|)``.
        """
        if self._wedge_offsets is None:
            upper = np.empty(self.num_hyperedges, dtype=np.int64)
            for i in range(self.num_hyperedges):
                ids, _ = self.row(i)
                upper[i] = ids.size - np.searchsorted(ids, i, side="right")
            self._wedge_offsets = np.concatenate(([0], np.cumsum(upper)))
        return self._wedge_offsets

    def prewarm(self, indices: Iterable[int]) -> None:
        """Eagerly compute (and memoize, budget permitting) the given neighborhoods."""
        for i in indices:
            self.row(i)

    # ------------------------------------------------------- kernel interface
    # The batched counting kernels drive any source exposing gather_rows /
    # row_lengths / pair_weights (see AdjacencyArrays); serving them here
    # means the lazy projection runs the same vectorized block sweeps, with
    # only the row fetches subject to the memoization budget.

    def row_lengths(self, rows: np.ndarray) -> np.ndarray:
        """Projected degrees of the given hyperedges (fetches their rows)."""
        return np.fromiter(
            (self.row(int(r))[0].size for r in rows),
            dtype=np.int64,
            count=len(rows),
        )

    def gather_rows(
        self, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Concatenated ``(neighbor ids, weights, lengths)`` of the given rows."""
        id_parts: List[np.ndarray] = []
        weight_parts: List[np.ndarray] = []
        lengths = np.empty(len(rows), dtype=np.int64)
        for position, r in enumerate(rows):
            ids, weights = self.row(int(r))
            id_parts.append(ids)
            weight_parts.append(weights)
            lengths[position] = ids.size
        if not id_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, lengths
        return (
            np.concatenate(id_parts),
            np.concatenate(weight_parts),
            lengths,
        )

    def pair_weights(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized ``ω(∧_{rows[t], cols[t]})`` lookups (0 where absent).

        Queries are grouped by row so each distinct row is fetched once and
        searched with one vectorized ``searchsorted``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        out = np.zeros(rows.size, dtype=np.int64)
        if rows.size == 0:
            return out
        order = np.argsort(rows, kind="stable")
        sorted_rows = rows[order]
        boundaries = np.nonzero(
            np.concatenate(([True], sorted_rows[1:] != sorted_rows[:-1]))
        )[0]
        ends = np.concatenate((boundaries[1:], [sorted_rows.size]))
        for start, end in zip(boundaries.tolist(), ends.tolist()):
            ids, weights = self.row(int(sorted_rows[start]))
            positions = order[start:end]
            hit, where = sorted_member_positions(ids, cols[positions])
            out[positions[hit]] = weights[where[hit]]
        return out

    # --------------------------------------------------------------- internal
    def _maybe_store(
        self, i: int, neighborhood: Tuple[np.ndarray, np.ndarray]
    ) -> None:
        if self._budget is not None and self._budget == 0:
            return
        self._cache[i] = neighborhood
        if self._budget is None:
            return
        while len(self._cache) > self._budget:
            self._evict()

    def _evict(self) -> None:
        if self._policy == POLICY_LRU:
            # Evict the least recently used entry (front of the OrderedDict).
            self._cache.popitem(last=False)
            return
        if self._policy == POLICY_RANDOM:
            keys = list(self._cache)
            victim = keys[int(self._rng.integers(0, len(keys)))]
            del self._cache[victim]
            return
        # Degree policy: drop the cached neighborhood with the smallest
        # degree, preferring to keep high-degree hyperedges resident. The
        # victim may be the entry just inserted (always so at budget=1 when
        # it has the minimum degree): low-degree neighborhoods are cheap to
        # recompute, which is exactly the point.
        victim = min(self._cache, key=lambda key: self._cache[key][0].size)
        del self._cache[victim]

    def __repr__(self) -> str:
        return (
            f"LazyProjection(num_hyperedges={self.num_hyperedges}, "
            f"budget={self._budget}, policy={self._policy!r}, "
            f"cache_size={self.cache_size})"
        )
