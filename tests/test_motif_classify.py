"""Tests for instance classification (the paper's h({e_i, e_j, e_k}))."""

from __future__ import annotations

from itertools import permutations

import pytest

from repro.exceptions import DuplicateHyperedgeError, MotifError, NotConnectedError
from repro.fastcore.kernels import classify_batch
from repro.motifs import (
    all_motif_patterns,
    classify_from_cardinalities,
    classify_instance,
    motif_is_closed,
    motif_is_open,
    pattern_from_cardinalities,
    pattern_to_int,
    region_cardinalities_from_sizes,
    triple_overlap_size,
)
from repro.motifs.classify import motif_lookup_table

# Hyperedge positions (0, 1, 2) holding each Venn region, in pattern order
# (A, B, C, AB, BC, CA, ABC).
_REGION_MEMBERS = ((0,), (1,), (2,), (0, 1), (1, 2), (2, 0), (0, 1, 2))


class TestRegionCardinalities:
    def test_simple_disjoint_union(self):
        regions = region_cardinalities_from_sizes(2, 2, 2, 1, 1, 1, 1)
        # only_i = 2 - 1 - 1 + 1 = 1 for each, pairwise exclusive = 0, triple = 1
        assert regions == (1, 1, 1, 0, 0, 0, 1)

    def test_inconsistent_inputs_raise(self):
        with pytest.raises(MotifError):
            region_cardinalities_from_sizes(1, 1, 1, 5, 0, 0, 0)

    def test_pattern_reflects_emptiness(self):
        pattern = pattern_from_cardinalities(3, 3, 3, 1, 1, 1, 0)
        assert pattern == (True, True, True, True, True, True, False)


class TestTripleOverlap:
    def test_counts_common_nodes(self):
        assert triple_overlap_size({1, 2, 3}, {2, 3, 4}, {3, 2, 9}) == 2

    def test_empty_when_no_common_node(self):
        assert triple_overlap_size({1, 2}, {2, 3}, {3, 1}) == 0


class TestClassifyInstance:
    def test_paper_figure2_instances_are_distinguished(self, paper_hypergraph):
        edges = paper_hypergraph.hyperedges()
        e1, e2, e3, e4 = edges
        # {e1, e2, e4} and {e1, e3, e4} have identical pairwise relations but
        # different h-motifs (paper Section 2.2, "Why Non-pairwise Relations?").
        first = classify_instance(e1, e2, e4)
        second = classify_instance(e1, e3, e4)
        assert first != second

    def test_closed_instance_maps_to_closed_motif(self, triangle_hypergraph):
        e1, e2, e3 = triangle_hypergraph.hyperedges()
        assert motif_is_closed(classify_instance(e1, e2, e3))

    def test_open_instance_maps_to_open_motif(self, open_chain_hypergraph):
        e1, e2, e3 = open_chain_hypergraph.hyperedges()
        assert motif_is_open(classify_instance(e1, e2, e3))

    def test_order_invariance(self, triangle_hypergraph):
        edges = list(triangle_hypergraph.hyperedges())
        results = {
            classify_instance(edges[a], edges[b], edges[c])
            for a, b, c in permutations(range(3))
        }
        assert len(results) == 1

    def test_subset_instance_is_motif_17_or_18(self):
        # A hyperedge with two disjoint subsets (paper: motifs 17 and 18).
        outer = {1, 2, 3, 4}
        left = {1, 2}
        right = {3, 4}
        assert classify_instance(outer, left, right) == 17
        outer_with_extra = {1, 2, 3, 4, 5}
        assert classify_instance(outer_with_extra, left, right) == 18

    def test_all_regions_nonempty_is_motif_16(self):
        e1 = {1, 4, 6, 7}
        e2 = {2, 4, 5, 7}
        e3 = {3, 5, 6, 7}
        assert classify_instance(e1, e2, e3) == 16

    def test_disconnected_triple_raises(self):
        with pytest.raises(NotConnectedError):
            classify_instance({1, 2}, {3, 4}, {5, 6})

    def test_single_adjacency_is_not_connected(self):
        with pytest.raises(NotConnectedError):
            classify_instance({1, 2}, {2, 3}, {7, 8})

    def test_duplicate_hyperedges_raise(self):
        with pytest.raises(DuplicateHyperedgeError):
            classify_instance({1, 2}, {1, 2}, {2, 3})

    def test_supplied_overlaps_must_be_consistent(self):
        with pytest.raises(MotifError):
            classify_instance({1, 2}, {2, 3}, {3, 1}, overlap_ij=5)

    def test_accepts_any_iterable_of_nodes(self):
        # Each argument is read as the set of its nodes: a list next to a set,
        # and a list repeating a node, classify like the sets they hold.
        assert classify_instance({1, 2, 3}, [2, 3, 4], [3, 4, 5]) == classify_instance(
            {1, 2, 3}, {2, 3, 4}, {3, 4, 5}
        )
        assert classify_instance([1, 1, 2], [2, 3], [3, 1]) == 1
        assert classify_instance({1, 2}, {2, 3}, {3, 1}) == 1

    def test_accepts_precomputed_overlaps(self):
        e1, e2, e3 = {1, 2, 3}, {2, 3, 4}, {3, 4, 5}
        direct = classify_instance(e1, e2, e3)
        with_overlaps = classify_instance(
            e1, e2, e3, overlap_ij=2, overlap_jk=2, overlap_ki=1
        )
        assert direct == with_overlaps


class TestClassifyFromCardinalities:
    def test_matches_set_based_classification(self):
        e1, e2, e3 = {1, 2, 3, 4}, {3, 4, 5}, {4, 5, 6, 7}
        expected = classify_instance(e1, e2, e3)
        actual = classify_from_cardinalities(
            len(e1),
            len(e2),
            len(e3),
            len(e1 & e2),
            len(e2 & e3),
            len(e3 & e1),
            len(e1 & e2 & e3),
        )
        assert actual == expected

    def test_size_independence(self):
        """Scaling region sizes leaves the motif unchanged (paper: size independent)."""
        base = classify_from_cardinalities(2, 2, 2, 1, 1, 1, 1)
        scaled = classify_from_cardinalities(20, 20, 20, 10, 10, 10, 10)
        assert base == scaled


def _edges_for_code(code):
    """Three hyperedges with one node in each region that pattern *code* fills."""
    edges = (set(), set(), set())
    for region, members in enumerate(_REGION_MEMBERS):
        if code >> region & 1:
            for position in members:
                edges[position].add(region)
    return tuple(frozenset(edge) for edge in edges)


def _ordered_code(first, second, third):
    """Pattern code of three sets in this order, read off their Venn regions."""
    regions = (
        first - second - third,
        second - third - first,
        third - first - second,
        (first & second) - third,
        (second & third) - first,
        (third & first) - second,
        first & second & third,
    )
    return sum(1 << position for position, region in enumerate(regions) if region)


def _expected_outcome(edges):
    """Motif id, or the exception type, that the sets alone call for."""
    if not all(edges):
        return MotifError
    first, second, third = edges
    if first == second or second == third or first == third:
        return DuplicateHyperedgeError
    pairs = ((first, second), (second, third), (first, third))
    if sum(1 for a, b in pairs if a & b) < 2:
        return NotConnectedError
    canonical = max(_ordered_code(*ordering) for ordering in permutations(edges))
    codes = [pattern_to_int(pattern) for pattern in all_motif_patterns()]
    return codes.index(canonical) + 1


def _outcome(classify, *args):
    try:
        return int(classify(*args))
    except MotifError as error:
        return type(error)


def _classify_one(*cardinalities):
    (motif,) = classify_batch(*cardinalities)
    return motif


@pytest.mark.parametrize("code", range(128))
def test_every_pattern_code_classifies_as_its_sets_say(code):
    edges = _edges_for_code(code)
    expected = _expected_outcome(edges)
    entry = int(motif_lookup_table()[code])
    if isinstance(expected, int):
        assert entry == expected
    else:
        assert entry < 0
    for first, second, third in permutations(edges):
        cardinalities = (
            len(first),
            len(second),
            len(third),
            len(first & second),
            len(second & third),
            len(third & first),
            len(first & second & third),
        )
        assert _outcome(classify_instance, first, second, third) == expected
        assert _outcome(classify_from_cardinalities, *cardinalities) == expected
        assert _outcome(_classify_one, *cardinalities) == expected


def test_inconsistent_cardinalities_raise_one_error_from_both_front_ends():
    cardinalities = (1, 1, 1, 5, 0, 0, 0)
    with pytest.raises(MotifError) as scalar:
        classify_from_cardinalities(*cardinalities)
    # The batch reports its first inconsistent triple, after a valid one.
    valid = (2, 2, 2, 1, 1, 1, 1)
    with pytest.raises(MotifError) as batch:
        classify_batch(*zip(valid, cardinalities))
    assert type(scalar.value) is MotifError
    assert type(batch.value) is MotifError
    assert str(batch.value) == str(scalar.value)
