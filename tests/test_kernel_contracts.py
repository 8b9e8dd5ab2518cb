"""Counting identities and input contracts of the anchor-block kernels.

The NumPy kernels in :mod:`repro.fastcore.kernels` are the one counting path
behind MoCHy-E, MoCHy-A and MoCHy-A+. Their raw outputs obey the identities
the estimators rely on: every instance contains three hyperedges, and a
closed instance contains three hyperwedges and an open one two. MoCHy-E
restricted to some anchors returns their *shares*, not the instances they
attribute: a share may hold negative entries, but shares over any partition
of the anchors sum to the full count, whatever the anchors' order or
container. MoCHy-E looks up ``ω(∧_jk)`` only for pairs above the anchor's
diagonal. The input-contract tests pin how anchors may be passed and what
empty or out-of-range inputs do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ProjectionError
from repro.fastcore.kernels import (
    count_containing_batched,
    count_exact_batched,
    count_wedges_batched,
)
from repro.fastcore.projection import upper_row_starts
from repro.generators import generate_uniform_random
from repro.motifs import motif_is_closed
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection import ProjectedGraph, project

SHAPES = {
    "sparse": dict(num_nodes=40, num_hyperedges=30, mean_size=2.5, max_size=5, seed=3),
    "dense": dict(num_nodes=15, num_hyperedges=35, mean_size=3.5, max_size=7, seed=13),
    "wide": dict(num_nodes=30, num_hyperedges=25, mean_size=6.0, max_size=12, seed=8),
}

#: Hyperwedges inside one instance of each motif: all three pairs of a
#: closed motif overlap, exactly two pairs of an open one do.
WEDGES_PER_INSTANCE = np.array(
    [3.0 if motif_is_closed(motif) else 2.0 for motif in range(1, NUM_MOTIFS + 1)]
)


def _build(shape):
    hypergraph = generate_uniform_random(**SHAPES[shape])
    return hypergraph, project(hypergraph)


@pytest.fixture(params=sorted(SHAPES))
def graph(request):
    return _build(request.param)


@pytest.fixture()
def dense():
    return _build("dense")


class TestCountingIdentities:
    def test_every_edge_anchor_sees_each_instance_three_times(self, graph):
        hypergraph, projection = graph
        csr = hypergraph.csr()
        exact = count_exact_batched(csr, projection)
        containing = count_containing_batched(
            csr, projection, range(hypergraph.num_hyperedges)
        )
        assert exact.sum() > 0
        assert np.array_equal(containing, 3 * exact)

    def test_every_hyperwedge_sees_each_instance_once_per_wedge(self, graph):
        hypergraph, projection = graph
        csr = hypergraph.csr()
        exact = count_exact_batched(csr, projection)
        wedges = count_wedges_batched(csr, projection, projection.hyperwedge_list())
        assert np.array_equal(wedges, WEDGES_PER_INSTANCE * exact)

    def test_exact_is_additive_over_anchor_partitions(self, graph):
        hypergraph, projection = graph
        csr = hypergraph.csr()
        anchors = np.arange(hypergraph.num_hyperedges)
        parts = [
            count_exact_batched(csr, projection, anchors[anchors % 3 == r])
            for r in range(3)
        ]
        assert np.array_equal(sum(parts), count_exact_batched(csr, projection))

    def test_exact_looks_up_only_pairs_above_the_diagonal(self, graph, monkeypatch):
        """Pairs ``{e_j, e_k}`` of ``N_{e_i}`` with ``i < j < k`` alone need
        ``ω(∧_jk)``: the rest are counted from per-row histograms."""
        hypergraph, projection = graph
        looked_up = []
        lookup = ProjectedGraph.pair_weights

        def spy(self, rows, cols):
            looked_up.append(len(rows))
            return lookup(self, rows, cols)

        monkeypatch.setattr(ProjectedGraph, "pair_weights", spy)
        count_exact_batched(hypergraph.csr(), projection)
        upper = projection.ptr[1:] - upper_row_starts(projection.ptr, projection.idx)
        assert sum(looked_up) <= int((upper * (upper - 1) // 2).sum())


#: The kernels that take anchor hyperedges, by name.
ANCHOR_KERNELS = {"containing": count_containing_batched, "exact": count_exact_batched}


class TestInputContracts:
    @pytest.mark.parametrize(
        "wrap",
        [
            lambda anchors: np.asarray(anchors, dtype=np.int32),
            lambda anchors: (anchor for anchor in anchors),
        ],
        ids=["int32-array", "generator"],
    )
    def test_anchor_containers_are_interchangeable(self, dense, wrap):
        hypergraph, projection = dense
        csr = hypergraph.csr()
        anchors = list(range(0, hypergraph.num_hyperedges, 2))
        for name, count in ANCHOR_KERNELS.items():
            want = count(csr, projection, anchors)
            got = count(csr, projection, wrap(anchors))
            assert np.array_equal(got, want), name

    def test_anchor_order_is_irrelevant(self, dense):
        hypergraph, projection = dense
        csr = hypergraph.csr()
        anchors = np.arange(hypergraph.num_hyperedges)
        rng = np.random.default_rng(0)
        for name, count in ANCHOR_KERNELS.items():
            for subset in (anchors, anchors[::2]):
                shuffled = rng.permutation(subset)
                assert np.array_equal(
                    count(csr, projection, shuffled), count(csr, projection, subset)
                ), name

    @pytest.mark.parametrize(
        "count",
        [
            lambda csr, projection: count_exact_batched(csr, projection, []),
            lambda csr, projection: count_containing_batched(csr, projection, []),
            lambda csr, projection: count_wedges_batched(csr, projection, []),
        ],
        ids=["exact", "containing", "wedges"],
    )
    def test_empty_input_counts_nothing(self, dense, count):
        hypergraph, projection = dense
        got = count(hypergraph.csr(), projection)
        assert np.array_equal(got, np.zeros(NUM_MOTIFS))

    @pytest.mark.parametrize("where", ["negative", "past-the-end"])
    @pytest.mark.parametrize(
        "count",
        [
            lambda csr, projection, bad: count_exact_batched(csr, projection, [0, bad]),
            lambda csr, projection, bad: count_containing_batched(
                csr, projection, [0, bad]
            ),
            lambda csr, projection, bad: count_wedges_batched(
                csr, projection, [(0, bad)]
            ),
        ],
        ids=["exact", "containing", "wedges"],
    )
    def test_out_of_range_ids_are_rejected(self, dense, count, where):
        hypergraph, projection = dense
        bad = -1 if where == "negative" else hypergraph.num_hyperedges
        with pytest.raises(ProjectionError, match=f"vertex {bad} out of range"):
            count(hypergraph.csr(), projection, bad)
