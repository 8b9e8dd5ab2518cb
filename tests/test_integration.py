"""Integration tests: the full pipelines of the paper on small synthetic data."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    analyze_domains,
    characteristic_profile,
    count_motifs,
    generate_contact,
    generate_email,
    profile_correlation,
)
from repro.analysis import real_vs_random
from repro.api import CountSpec, MotifEngine
from repro.baselines import graph_similarity_matrix, network_motif_profile
from repro.motifs.patterns import NUM_MOTIFS
from repro.profile import domain_separation


@pytest.fixture(scope="module")
def mini_corpus():
    """Four small datasets from two domains (contact, email)."""
    datasets = {
        "contact-a": (
            generate_contact(num_people=60, num_interactions=150, seed=1, name="contact-a"),
            "contact",
        ),
        "contact-b": (
            generate_contact(num_people=70, num_interactions=140, seed=2, name="contact-b"),
            "contact",
        ),
        "email-a": (
            generate_email(num_accounts=60, num_messages=150, seed=3, name="email-a"),
            "email",
        ),
        "email-b": (
            generate_email(num_accounts=70, num_messages=140, seed=4, name="email-b"),
            "email",
        ),
    }
    return datasets


@pytest.fixture(scope="module")
def mini_profiles(mini_corpus):
    profiles = []
    domains = []
    for name, (hypergraph, domain) in mini_corpus.items():
        profiles.append(characteristic_profile(hypergraph, num_random=3, seed=0))
        domains.append(domain)
    return profiles, domains


class TestDiscoveryPipeline:
    def test_real_differs_from_random(self, mini_corpus):
        """Q1: real hypergraphs have count distributions distinct from random ones."""
        hypergraph, _ = mini_corpus["contact-a"]
        report = real_vs_random(hypergraph, num_random=3, seed=0)
        assert report.mean_rank_difference() > 0
        relative_counts = [abs(row.relative_count) for row in report.rows]
        assert max(relative_counts) > 0.3

    def test_cps_are_domain_fingerprints(self, mini_profiles):
        """Q2: CPs are similar within domains and less similar across them."""
        profiles, domains = mini_profiles
        separation = domain_separation(profiles, domains)
        assert separation.within_mean > separation.across_mean

    def test_domain_analysis_object(self, mini_profiles, mini_corpus):
        profiles, domains = mini_profiles
        analysis = analyze_domains(profiles, domains)
        names = list(mini_corpus)
        same_domain = analysis.similarity(names[0], names[1])
        cross_domain = analysis.similarity(names[0], names[2])
        assert same_domain > cross_domain

    def test_both_cp_variants_are_computable_and_hmotif_gap_is_positive(
        self, mini_corpus, mini_profiles
    ):
        """Figure 6 ingredients: h-motif and network-motif similarity structures.

        The quantitative comparison of the two gaps is reported by
        ``benchmarks/bench_fig6_similarity_matrices.py`` on the full corpus;
        here we check that the h-motif CPs separate the two domains and that
        the graph-motif baseline produces a well-formed similarity matrix.
        """
        profiles, domains = mini_profiles
        hmotif_gap = domain_separation(profiles, domains).gap
        assert hmotif_gap > 0

        graph_profiles = [
            network_motif_profile(hypergraph, num_random=3, seed=0)
            for hypergraph, _ in mini_corpus.values()
        ]
        matrix = graph_similarity_matrix(graph_profiles)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)
        assert np.all(matrix <= 1.0 + 1e-9) and np.all(matrix >= -1.0 - 1e-9)

    def test_profiles_have_unit_norm(self, mini_profiles):
        profiles, _ = mini_profiles
        for profile in profiles:
            assert np.linalg.norm(profile.values) == pytest.approx(1.0)
            assert len(profile.values) == NUM_MOTIFS


class TestCountingPipeline:
    def test_approximate_counters_agree_with_exact_on_corpus(self, mini_corpus):
        hypergraph, _ = mini_corpus["email-a"]
        exact = count_motifs(hypergraph, algorithm="mochy-e")
        approx = count_motifs(
            hypergraph, algorithm="mochy-a+", sampling_ratio=0.6, seed=0
        )
        assert approx.relative_error(exact) < 0.35

    def test_cp_estimated_from_samples_matches_exact_cp(self, mini_corpus):
        """Figure 9: CPs estimated by MoCHy-A+ track the exact CPs closely."""
        hypergraph, _ = mini_corpus["contact-b"]
        exact_profile = characteristic_profile(hypergraph, num_random=3, seed=1)
        sampled_profile = characteristic_profile(
            hypergraph,
            num_random=3,
            algorithm="mochy-a+",
            sampling_ratio=0.5,
            seed=1,
        )
        assert profile_correlation(exact_profile.values, sampled_profile.values) > 0.8

    def test_runner_reports_timing(self, mini_corpus):
        hypergraph, _ = mini_corpus["contact-a"]
        run = MotifEngine(hypergraph).count(
            CountSpec(algorithm="mochy-a+", sampling_ratio=0.3, seed=0)
        )
        assert run.total_seconds > 0
        assert run.counts.total() > 0
