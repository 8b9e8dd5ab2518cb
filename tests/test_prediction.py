"""Tests for the hyperedge-prediction pipeline (features, negatives, metrics, task)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import PredictionTaskError
from repro.generators import generate_temporal_coauthorship
from repro.hypergraph import Hypergraph
from repro.prediction import (
    FEATURE_SETS,
    HC_FEATURE_NAMES,
    accuracy,
    build_prediction_dataset,
    candidate_overlaps,
    confusion_matrix,
    generate_fake_hyperedges,
    hc_features,
    hm26_features,
    motif_counts_for_candidate,
    roc_auc,
    run_prediction_experiment,
    select_high_variance_features,
)
from repro.counting import count_instances_containing
from repro.ml import LogisticRegression, RandomForestClassifier
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection import project


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1, 0], [1, 0, 0, 0]) == 0.75

    def test_auc_perfect_and_inverted(self):
        labels = [0, 0, 1, 1]
        assert roc_auc(labels, [0.1, 0.2, 0.8, 0.9]) == 1.0
        assert roc_auc(labels, [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_auc_with_ties_is_half(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_auc_single_class(self):
        assert roc_auc([1, 1], [0.2, 0.9]) == 0.5

    def test_confusion_matrix(self):
        matrix = confusion_matrix([1, 0, 1, 0], [1, 1, 0, 0])
        assert matrix == {
            "true_positive": 1,
            "true_negative": 1,
            "false_positive": 1,
            "false_negative": 1,
        }

    def test_validation(self):
        with pytest.raises(PredictionTaskError):
            accuracy([], [])
        with pytest.raises(PredictionTaskError):
            accuracy([1, 0], [1])
        with pytest.raises(PredictionTaskError):
            roc_auc([1, 2], [0.1, 0.2])


class TestNegatives:
    def test_fakes_have_same_count_and_sizes(self, medium_random_hypergraph):
        positives = list(medium_random_hypergraph.hyperedges())[:10]
        fakes = generate_fake_hyperedges(
            medium_random_hypergraph, positives, replace_fraction=0.5, seed=0
        )
        assert len(fakes) == len(positives)
        for fake, positive in zip(fakes, positives):
            assert len(fake) == len(positive)
            assert fake != frozenset(positive)

    def test_fakes_avoid_existing_hyperedges(self, medium_random_hypergraph):
        positives = list(medium_random_hypergraph.hyperedges())[:20]
        fakes = generate_fake_hyperedges(
            medium_random_hypergraph, positives, replace_fraction=0.5, seed=1
        )
        existing = set(medium_random_hypergraph.hyperedges())
        overlap = sum(1 for fake in fakes if fake in existing)
        assert overlap <= 1  # collisions are possible but must be rare

    def test_invalid_parameters(self, small_random_hypergraph):
        positives = list(small_random_hypergraph.hyperedges())[:3]
        with pytest.raises(PredictionTaskError):
            generate_fake_hyperedges(small_random_hypergraph, positives, replace_fraction=0)
        with pytest.raises(ValueError):
            generate_fake_hyperedges(small_random_hypergraph, positives, replace_fraction=2)
        with pytest.raises(PredictionTaskError):
            generate_fake_hyperedges(Hypergraph([]), positives, 0.5)


class TestFeatures:
    def test_candidate_overlaps(self, paper_hypergraph):
        overlaps = candidate_overlaps(paper_hypergraph, {"L", "K", "Z"})
        assert overlaps == {0: 2, 1: 2, 2: 1}

    def test_candidate_counts_match_member_edge_counts(self, medium_random_hypergraph):
        """For a hyperedge already in the hypergraph, the candidate feature equals
        the number of instances containing that hyperedge (minus itself as a partner)."""
        projection = project(medium_random_hypergraph)
        for index in range(medium_random_hypergraph.num_hyperedges):
            member_counts = count_instances_containing(
                medium_random_hypergraph, index, projection
            )
            # Build the context without hyperedge `index`, then ask for the
            # candidate features of that hyperedge against the reduced context.
            remaining = [
                edge
                for position, edge in enumerate(medium_random_hypergraph.hyperedges())
                if position != index
            ]
            context = Hypergraph(remaining)
            candidate = medium_random_hypergraph.hyperedge(index)
            candidate_counts = motif_counts_for_candidate(context, candidate)
            assert candidate_counts.to_dict() == member_counts.to_dict(), index

    def test_hm26_rows_of_context_hyperedges(self, medium_random_hypergraph):
        """A candidate equal to context hyperedge d skips the triples holding both
        (the classifier rejects them as duplicates), so its HM26 row counts the
        instances containing d."""
        edges = medium_random_hypergraph.hyperedges()
        matrix = hm26_features(medium_random_hypergraph, edges)
        projection = project(medium_random_hypergraph)
        assert matrix.shape == (len(edges), NUM_MOTIFS)
        for index in range(len(edges)):
            member_counts = count_instances_containing(
                medium_random_hypergraph, index, projection
            )
            assert matrix[index].tolist() == member_counts.to_array().tolist(), index

    def test_hm26_feature_matrix_shape(self, small_random_hypergraph):
        candidates = list(small_random_hypergraph.hyperedges())[:5]
        matrix = hm26_features(small_random_hypergraph, candidates)
        assert matrix.shape == (5, NUM_MOTIFS)
        assert np.all(matrix >= 0)

    def test_hc_feature_matrix(self, small_random_hypergraph):
        candidates = list(small_random_hypergraph.hyperedges())[:4]
        matrix = hc_features(small_random_hypergraph, candidates)
        assert matrix.shape == (4, len(HC_FEATURE_NAMES))
        sizes = [len(candidate) for candidate in candidates]
        assert list(matrix[:, HC_FEATURE_NAMES.index("size")]) == sizes

    def test_hc_features_for_unknown_nodes_are_zero_degree(self, small_random_hypergraph):
        matrix = hc_features(small_random_hypergraph, [{"unseen-1", "unseen-2"}])
        assert matrix[0, HC_FEATURE_NAMES.index("mean_degree")] == 0.0

    def test_high_variance_selection(self):
        features = np.zeros((10, 5))
        features[:, 2] = np.arange(10)
        features[:, 4] = np.arange(10) * 3
        chosen = select_high_variance_features(features, num_features=2)
        assert set(chosen) == {2, 4}
        with pytest.raises(ValueError):
            select_high_variance_features(np.zeros(3), 2)


class TestExperiment:
    @pytest.fixture(scope="class")
    def temporal(self):
        return generate_temporal_coauthorship(
            num_years=4,
            initial_authors=90,
            initial_papers=60,
            seed=3,
        )

    def test_dataset_construction(self, temporal):
        years = temporal.timestamps()
        dataset = build_prediction_dataset(
            temporal,
            context_start=years[0],
            context_end=years[-2],
            test_start=years[-1],
            test_end=years[-1],
            max_positives=40,
            seed=0,
        )
        for feature_set in FEATURE_SETS:
            assert dataset.features_train[feature_set].shape[0] == len(dataset.labels_train)
            assert dataset.features_test[feature_set].shape[0] == len(dataset.labels_test)
        assert set(dataset.labels_train) == {0, 1}
        assert dataset.features_train["HM7"].shape[1] == 7

    def test_window_validation(self, temporal):
        years = temporal.timestamps()
        with pytest.raises(PredictionTaskError):
            build_prediction_dataset(temporal, years[1], years[0], years[2], years[2])

    def test_experiment_scores_and_feature_ordering(self, temporal):
        years = temporal.timestamps()
        result = run_prediction_experiment(
            temporal,
            context_start=years[0],
            context_end=years[-2],
            test_start=years[-1],
            test_end=years[-1],
            classifiers={
                "logistic-regression": LogisticRegression(),
                "random-forest": RandomForestClassifier(num_trees=10, seed=0),
            },
            max_positives=40,
            seed=0,
        )
        assert len(result.scores) == 2 * len(FEATURE_SETS)
        for _, _, acc, auc in result.as_rows():
            assert 0.0 <= acc <= 1.0
            assert 0.0 <= auc <= 1.0
        # The paper's headline: h-motif features beat the hand-crafted baseline.
        assert result.mean_metric("HM26", "auc") > 0.5
        assert result.mean_metric("HM26", "auc") >= result.mean_metric("HC", "auc") - 0.05
        score = result.score("random-forest", "HM26")
        assert score.feature_set == "HM26"
        with pytest.raises(PredictionTaskError):
            result.score("random-forest", "HM99")
