"""Tests for the anchor-block kernel internals of :mod:`repro.fastcore.kernels`.

Pins the triu-cache accounting under concurrency (the double-charge race fix),
the byte-LUT popcount fallback against an independent reference, the
block-wide upper-triangle enumeration against ``np.triu_indices``, and the
block partitioning: shrunk-to-budget anchor blocks, singleton hub blocks that
take the chunked pair path, and the lazy projection driving the same kernels
— all bit-identical to :mod:`repro.fastcore.reference` counts.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.exceptions import MotifError, NotConnectedError
from repro.fastcore import kernels
from repro.fastcore.reference import (
    count_containing_reference,
    count_exact_reference,
    count_wedges_reference,
    project_reference,
)
from repro.generators import generate_uniform_random
from repro.projection import LazyProjection, ProjectedGraph, project


@pytest.fixture()
def graph():
    hypergraph = generate_uniform_random(
        num_nodes=30, num_hyperedges=50, mean_size=3.5, max_size=7, seed=21
    )
    return hypergraph, project(hypergraph)


class TestTriuCacheAccounting:
    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        with kernels._TRIU_CACHE_LOCK:
            saved = dict(kernels._TRIU_CACHE), kernels._triu_cached_pairs
            kernels._TRIU_CACHE.clear()
            kernels._triu_cached_pairs = 0
        yield
        with kernels._TRIU_CACHE_LOCK:
            kernels._TRIU_CACHE.clear()
            kernels._TRIU_CACHE.update(saved[0])
            kernels._triu_cached_pairs = saved[1]

    def test_single_call_charges_the_pair_count(self):
        kernels._triu_pairs(10)
        assert kernels._triu_cached_pairs == 45
        assert set(kernels._TRIU_CACHE) == {10}

    def test_racing_threads_charge_each_size_once(self):
        """Two threads materializing the same size must not double-charge.

        The original code checked the cache only outside the lock, so every
        thread that lost the race still added ``num_pairs`` to the budget
        counter — inflating it until spurious cache clears kicked in.
        """
        sizes = [8, 16, 32, 64]
        threads_per_size = 8
        barrier = threading.Barrier(len(sizes) * threads_per_size)
        results = []
        results_lock = threading.Lock()

        def worker(size: int) -> None:
            barrier.wait()
            pair = kernels._triu_pairs(size)
            with results_lock:
                results.append((size, pair))

        threads = [
            threading.Thread(target=worker, args=(size,))
            for size in sizes
            for _ in range(threads_per_size)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = sum(size * (size - 1) // 2 for size in sizes)
        assert kernels._triu_cached_pairs == expected
        assert set(kernels._TRIU_CACHE) == set(sizes)
        # Every caller got the exact triu pairs regardless of who won.
        for size, (left, right) in results:
            want_left, want_right = np.triu_indices(size, 1)
            assert np.array_equal(left, want_left)
            assert np.array_equal(right, want_right)

    def test_budget_overflow_clears_before_storing(self, monkeypatch):
        monkeypatch.setattr(kernels, "_TRIU_CACHE_PAIR_BUDGET", 50)
        kernels._triu_pairs(10)  # 45 pairs cached
        kernels._triu_pairs(5)  # +10 would exceed 50: clear, then store
        assert set(kernels._TRIU_CACHE) == {5}
        assert kernels._triu_cached_pairs == 10


class TestPopcountFallback:
    def test_byte_lut_matches_python_popcount(self):
        rng = np.random.default_rng(3)
        masks = rng.integers(0, 2**64, size=(64, 3), dtype=np.uint64)
        got = kernels._popcount_rows_bytes(masks)
        want = np.array(
            [sum(int(word).bit_count() for word in row) for row in masks],
            dtype=np.int64,
        )
        assert np.array_equal(got, want)

    @pytest.mark.skipif(
        not hasattr(np, "bitwise_count"), reason="numpy < 2.0 has no bitwise_count"
    )
    def test_byte_lut_matches_bitwise_count(self):
        rng = np.random.default_rng(11)
        for shape in [(1, 1), (7, 2), (128, 4)]:
            masks = rng.integers(0, 2**64, size=shape, dtype=np.uint64)
            assert np.array_equal(
                kernels._popcount_rows_bytes(masks),
                np.bitwise_count(masks).sum(axis=1).astype(np.int64),
            )

    def test_extreme_words(self):
        masks = np.array([[0], [2**64 - 1]], dtype=np.uint64)
        assert kernels._popcount_rows_bytes(masks).tolist() == [0, 64]

    def test_active_popcount_agrees_with_fallback(self):
        rng = np.random.default_rng(29)
        masks = rng.integers(0, 2**64, size=(33, 2), dtype=np.uint64)
        assert np.array_equal(
            kernels._popcount_rows(masks), kernels._popcount_rows_bytes(masks)
        )


class TestBlockTriuPositions:
    def test_rows_match_triu_indices(self):
        rng = np.random.default_rng(5)
        lengths = rng.integers(0, 9, size=40)
        # Disjoint row segments, so every pair names its row.
        starts = np.cumsum(lengths) - lengths + 10 * np.arange(40)
        left, right = kernels._block_triu_positions(starts, lengths)
        want = sorted(
            (int(start + upper_i), int(start + upper_j))
            for start, length in zip(starts, lengths)
            for upper_i, upper_j in zip(*np.triu_indices(int(length), 1))
        )
        assert sorted(zip(left.tolist(), right.tolist())) == want

    def test_rows_without_pairs_yield_nothing(self):
        left, right = kernels._block_triu_positions(
            np.array([0, 4, 9]), np.array([0, 1, 0])
        )
        assert left.size == right.size == 0


class TestBlockBoundaries:
    """Tiny block budgets force every partitioning branch; counts must not move."""

    @pytest.mark.parametrize("budget,block", [(1, 1), (8, 3), (64, 7)])
    def test_exact_counts_invariant_under_block_geometry(
        self, graph, monkeypatch, budget, block
    ):
        hypergraph, projection = graph
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", budget)
        monkeypatch.setattr(kernels, "_ANCHOR_BLOCK", block)
        got = kernels.count_exact_batched(hypergraph.csr(), projection)
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())

    def test_hub_anchor_takes_the_chunked_pair_path(self, graph, monkeypatch):
        hypergraph, projection = graph
        # Budget 1 makes every anchor a singleton "hub" whose pair total
        # exceeds the block budget; chunk size 7 forces several slabs per hub.
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", 1)
        monkeypatch.setattr(kernels, "_PAIR_CHUNK", 7)
        batches = []
        lookup = ProjectedGraph.pair_weights

        def spy(self, rows, cols):
            batches.append(len(rows))
            return lookup(self, rows, cols)

        monkeypatch.setattr(ProjectedGraph, "pair_weights", spy)
        got = kernels.count_exact_batched(hypergraph.csr(), projection)
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())
        # A chunk holds whole rows of the hub's upper triangle, so one row
        # longer than the chunk comes alone: at most d_max - 1 pairs.
        max_degree = int(np.diff(projection.ptr).max())
        assert batches
        assert max(batches) <= max(7, max_degree - 1)

    def test_containing_counts_invariant_under_block_geometry(
        self, graph, monkeypatch
    ):
        hypergraph, projection = graph
        anchors = list(range(0, hypergraph.num_hyperedges, 2)) * 2  # duplicates
        want = count_containing_reference(
            hypergraph, project_reference(hypergraph), anchors
        ).to_array()
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", 8)
        monkeypatch.setattr(kernels, "_ANCHOR_BLOCK", 3)
        got = kernels.count_containing_batched(hypergraph.csr(), projection, anchors)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize(
        "case", ["blocked", "repeated", "reversed", "hub-over-budget", "one-per-block"]
    )
    def test_wedge_counts_invariant_under_block_geometry(
        self, graph, monkeypatch, case
    ):
        hypergraph, projection = graph
        reference_projection = project_reference(hypergraph)
        wedges = projection.hyperwedge_list()
        degrees = projection.degrees()

        def candidates(wedge):
            return degrees[wedge[0]] + degrees[wedge[1]]

        budget, block = 8, 3
        if case == "blocked":
            wedges = wedges[:80]
        elif case == "repeated":
            # Default geometry: the repeats of a wedge share one block.
            wedges = wedges[:5] * 3 + wedges[:1] * 4
            budget, block = kernels._BLOCK_PAIR_BUDGET, kernels._ANCHOR_BLOCK
        elif case == "reversed":
            wedges = [(j, i) for i, j in wedges[:60]]
        elif case == "hub-over-budget":
            hub = max(wedges, key=candidates)
            wedges = wedges[:10] + [hub] + wedges[10:20]
            budget, block = candidates(hub) - 1, 64
        else:
            wedges = wedges[:80]
            budget, block = 1, 64
        want = count_wedges_reference(
            hypergraph, reference_projection, wedges
        ).to_array()
        monkeypatch.setattr(kernels, "_BLOCK_PAIR_BUDGET", budget)
        monkeypatch.setattr(kernels, "_ANCHOR_BLOCK", block)
        got = kernels.count_wedges_batched(hypergraph.csr(), projection, wedges)
        assert np.array_equal(got, want)

        # Invalid wedges fail like the reference: (i, i) has a negative
        # Venn region, a non-adjacent pair leaves disconnected candidates.
        hub_edge = int(np.argmax(degrees))
        far = next(
            j
            for j in range(hypergraph.num_hyperedges)
            if j != hub_edge and projection.overlap(hub_edge, j) == 0
        )
        for bad, expected in (
            ((hub_edge, hub_edge), MotifError),
            ((hub_edge, far), NotConnectedError),
        ):
            for count in (
                lambda w: count_wedges_reference(hypergraph, reference_projection, w),
                lambda w: kernels.count_wedges_batched(hypergraph.csr(), projection, w),
            ):
                with pytest.raises(MotifError) as raised:
                    count(wedges[:2] + [bad])
                assert type(raised.value) is expected


class TestLazySourceThroughKernels:
    """The lazy projection drives the same block kernels, budget and all."""

    @pytest.mark.parametrize("budget", [None, 0, 1, 5])
    def test_exact_parity(self, graph, budget):
        hypergraph, _ = graph
        lazy = LazyProjection(hypergraph, budget=budget, policy="lru")
        got = kernels.count_exact_batched(hypergraph.csr(), lazy)
        assert np.array_equal(got, count_exact_reference(hypergraph).to_array())

    def test_containing_parity(self, graph):
        hypergraph, _ = graph
        anchors = [0, 3, 3, 7, 11]
        lazy = LazyProjection(hypergraph, budget=4)
        got = kernels.count_containing_batched(hypergraph.csr(), lazy, anchors)
        want = count_containing_reference(
            hypergraph, project_reference(hypergraph), anchors
        ).to_array()
        assert np.array_equal(got, want)

    def test_wedge_parity(self, graph):
        hypergraph, projection = graph
        wedges = projection.hyperwedge_list()[:40]
        lazy = LazyProjection(hypergraph, budget=4)
        got = kernels.count_wedges_batched(hypergraph.csr(), lazy, wedges)
        want = count_wedges_reference(
            hypergraph, project_reference(hypergraph), wedges
        ).to_array()
        assert np.array_equal(got, want)
