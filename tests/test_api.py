"""Tests for the unified ``repro.api`` layer: engine, specs, results, registry."""

from __future__ import annotations

import json

import pytest

import repro.api.engine as engine_module
from repro.api import (
    CompareSpec,
    CountSpec,
    DatasetRegistry,
    MotifEngine,
    PredictSpec,
    ProfileSpec,
    load,
)
from repro.counting import count_exact, count_motifs
from repro.exceptions import (
    CountSpecError,
    DatasetError,
    SamplingError,
    SpecError,
)
from repro.generators import generate_temporal_coauthorship
from repro.hypergraph import Hypergraph
from repro.hypergraph import io as hio
from repro.motifs.patterns import NUM_MOTIFS
from repro.projection import project


@pytest.fixture
def counting_project(monkeypatch):
    """Monkeypatch the engine's projection builder to record its inputs."""
    calls = []

    def recording_project(hypergraph):
        calls.append(hypergraph)
        return project(hypergraph)

    monkeypatch.setattr(engine_module, "project", recording_project)
    return calls


class TestProjectionCache:
    def test_count_then_profile_projects_once(self, small_random_hypergraph, counting_project):
        engine = MotifEngine(small_random_hypergraph)
        engine.count()
        engine.profile(ProfileSpec(num_random=2, seed=0))
        own = [h for h in counting_project if h is small_random_hypergraph]
        assert len(own) == 1
        assert engine.num_projection_builds == 1

    def test_count_profile_compare_project_once(self, small_random_hypergraph, counting_project):
        engine = MotifEngine(small_random_hypergraph)
        engine.count()
        engine.count(CountSpec(algorithm="mochy-a+", sampling_ratio=0.3, seed=0))
        engine.profile(ProfileSpec(num_random=2, seed=0))
        engine.compare(CompareSpec(num_random=2, seed=0))
        own = [h for h in counting_project if h is small_random_hypergraph]
        assert len(own) == 1

    def test_second_count_reports_cache_hit(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        first = engine.count(CountSpec(algorithm="mochy-a", num_samples=5, seed=0))
        second = engine.count(CountSpec(algorithm="mochy-a+", num_samples=5, seed=0))
        assert not first.projection_cached
        assert second.projection_cached
        assert second.projection_seconds == 0.0

    def test_supplied_projection_is_reused(self, small_random_hypergraph, counting_project):
        projection = project(small_random_hypergraph)
        engine = MotifEngine(small_random_hypergraph, projection=projection)
        result = engine.count()
        assert result.projection_cached
        assert counting_project == []

    def test_clear_cache_forces_rebuild(self, small_random_hypergraph, counting_project):
        engine = MotifEngine(small_random_hypergraph)
        engine.count()
        engine.clear_cache()
        engine.count()
        own = [h for h in counting_project if h is small_random_hypergraph]
        assert len(own) == 2


@pytest.fixture
def counting_kernels(monkeypatch):
    """Record invocations of the engine's counting kernels."""
    calls = {"exact": 0, "edge": 0}
    real_exact = engine_module.count_exact
    real_edge = engine_module.count_approx_edge_sampling

    def exact_wrapper(*args, **kwargs):
        calls["exact"] += 1
        return real_exact(*args, **kwargs)

    def edge_wrapper(*args, **kwargs):
        calls["edge"] += 1
        return real_edge(*args, **kwargs)

    monkeypatch.setattr(engine_module, "count_exact", exact_wrapper)
    monkeypatch.setattr(engine_module, "count_approx_edge_sampling", edge_wrapper)
    return calls


class TestCountMemoization:
    def test_exact_result_is_memoized(self, small_random_hypergraph, counting_kernels):
        engine = MotifEngine(small_random_hypergraph)
        first = engine.count()
        second = engine.count()
        assert first.counts == second.counts
        assert counting_kernels["exact"] == 1

    def test_exact_specs_normalize_to_one_key(self, small_random_hypergraph, counting_kernels):
        engine = MotifEngine(small_random_hypergraph)
        assert CountSpec(algorithm="mochy-e", seed=3) == CountSpec(algorithm="exact", seed=9)
        first = engine.count(CountSpec(algorithm="mochy-e", seed=3))
        second = engine.count(CountSpec(algorithm="exact", seed=9))
        assert first.counts == second.counts
        assert counting_kernels["exact"] == 1

    def test_seeded_sampling_memoized_but_unseeded_not(
        self, small_random_hypergraph, counting_kernels
    ):
        engine = MotifEngine(small_random_hypergraph)
        spec = CountSpec(algorithm="mochy-a", num_samples=8, seed=1)
        assert engine.count(spec).counts == engine.count(spec).counts
        assert counting_kernels["edge"] == 1
        unseeded = CountSpec(algorithm="mochy-a", num_samples=8)
        engine.count(unseeded)
        engine.count(unseeded)
        assert counting_kernels["edge"] == 3

    def test_generator_seed_is_not_memoized(self, small_random_hypergraph, counting_kernels):
        import numpy as np

        engine = MotifEngine(small_random_hypergraph)
        rng = np.random.default_rng(0)
        spec = CountSpec(algorithm="mochy-a", num_samples=8, seed=rng)
        engine.count(spec)
        engine.count(spec)
        assert counting_kernels["edge"] == 2

    def test_mutating_returned_counts_does_not_poison_cache(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        first = engine.count()
        expected = first.counts.to_array()
        first.counts.increment(1, 1000.0)
        assert engine.count().counts.to_array().tolist() == expected.tolist()

    def test_memo_hit_reports_zero_timings(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        first = engine.count()
        hit = engine.count()
        assert not first.from_cache
        assert hit.from_cache
        assert hit.projection_seconds == 0.0
        assert hit.counting_seconds == 0.0
        assert hit.projection_cached

    def test_profile_reuses_memoized_exact_count(self, small_random_hypergraph, counting_project):
        engine = MotifEngine(small_random_hypergraph)
        exact = engine.count()
        result = engine.profile(ProfileSpec(num_random=2, seed=0))
        assert result.profile.real_counts == exact.counts

    def test_profile_and_compare_share_null_counts(self, small_random_hypergraph, monkeypatch):
        import repro.api.engine as em

        calls = {"null": 0}
        real = em.random_motif_counts

        def wrapper(*args, **kwargs):
            calls["null"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(em, "random_motif_counts", wrapper)
        engine = MotifEngine(small_random_hypergraph)
        profile = engine.profile(ProfileSpec(num_random=2, seed=0))
        compare = engine.compare(CompareSpec(num_random=2, seed=0))
        assert calls["null"] == 1
        motif = profile.profile.random_counts
        assert compare.report.rows[0].random_count == pytest.approx(motif[1])


class TestKernelPath:
    def test_legacy_backend_variable_is_ignored(self, small_random_hypergraph, monkeypatch):
        # Deployments may still export this variable from when it selected a
        # kernel backend; counting must neither fail nor change under it.
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
        engine = MotifEngine(small_random_hypergraph, store=False)
        assert engine.count().counts == count_exact(small_random_hypergraph)


class TestCountSpecValidation:
    def test_samples_and_ratio_conflict(self):
        with pytest.raises(CountSpecError):
            CountSpec(algorithm="mochy-a", num_samples=5, sampling_ratio=0.1)

    def test_conflict_is_also_a_sampling_error(self):
        with pytest.raises(SamplingError):
            CountSpec(algorithm="mochy-a", num_samples=5, sampling_ratio=0.1)

    def test_unknown_algorithm(self):
        with pytest.raises(SamplingError):
            CountSpec(algorithm="mochy-x")

    def test_aliases_resolve_at_construction(self):
        assert CountSpec(algorithm="MoCHy-A+").algorithm == "wedge-sampling"
        assert CountSpec(algorithm="mochy-e").algorithm == "exact"

    @pytest.mark.parametrize("samples", [0, -5, 2.5])
    def test_invalid_samples(self, samples):
        with pytest.raises(CountSpecError):
            CountSpec(algorithm="mochy-a", num_samples=samples)

    def test_invalid_ratio(self):
        with pytest.raises(CountSpecError):
            CountSpec(algorithm="mochy-a", sampling_ratio=-0.2)

    def test_invalid_workers(self):
        with pytest.raises(CountSpecError):
            CountSpec(num_workers=0)

    def test_unknown_projection_mode(self):
        with pytest.raises(CountSpecError):
            CountSpec(projection="eager")

    def test_budget_requires_lazy(self):
        with pytest.raises(CountSpecError):
            CountSpec(budget=10)

    def test_negative_budget(self):
        with pytest.raises(CountSpecError):
            CountSpec(projection="lazy", budget=-1)

    def test_unknown_policy(self):
        with pytest.raises(CountSpecError):
            CountSpec(projection="lazy", policy="mru")

    def test_exact_normalizes_sampling_fields(self):
        spec = CountSpec(algorithm="exact", sampling_ratio=0.5, seed=7)
        assert spec.sampling_ratio is None
        assert spec.seed is None
        assert spec.is_exact

    def test_exact_lazy_random_policy_keeps_seed(self):
        spec = CountSpec(projection="lazy", policy="random", budget=3, seed=7)
        assert spec.seed == 7

    def test_lazy_rejects_parallel_workers(self):
        with pytest.raises(CountSpecError):
            CountSpec(projection="lazy", num_workers=2)

    def test_policy_requires_lazy(self):
        with pytest.raises(CountSpecError):
            CountSpec(policy="lru")


class TestOtherSpecValidation:
    def test_profile_num_random_positive(self):
        with pytest.raises(SpecError):
            ProfileSpec(num_random=0)

    def test_profile_unknown_null_model(self):
        with pytest.raises(SpecError):
            ProfileSpec(null_model="shuffle")

    def test_profile_negative_epsilon(self):
        with pytest.raises(SpecError):
            ProfileSpec(epsilon=-1)

    def test_compare_validates_ratio(self):
        with pytest.raises(SpecError):
            CompareSpec(sampling_ratio=0)

    def test_predict_window_pairs(self):
        with pytest.raises(SpecError):
            PredictSpec(context_start=1)
        with pytest.raises(SpecError):
            PredictSpec(context_start=2, context_end=1, test_start=3, test_end=3)
        with pytest.raises(SpecError):
            PredictSpec(context_start=1, context_end=2)

    def test_predict_replace_fraction_range(self):
        with pytest.raises(SpecError):
            PredictSpec(replace_fraction=1.5)

    def test_predict_max_positives_positive(self):
        with pytest.raises(SpecError):
            PredictSpec(max_positives=0)


class TestLazyProjection:
    def test_lazy_exact_matches_full(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        full = engine.count()
        lazy = engine.count(CountSpec(projection="lazy", budget=4))
        assert lazy.counts == full.counts
        assert lazy.projection_mode == "lazy"

    def test_lazy_edge_sampling_matches_full_at_seed(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        spec_full = CountSpec(algorithm="mochy-a", num_samples=12, seed=3)
        spec_lazy = CountSpec(
            algorithm="mochy-a", num_samples=12, seed=3, projection="lazy", budget=4
        )
        assert engine.count(spec_full).counts == engine.count(spec_lazy).counts

    def test_lazy_wedge_sampling_runs(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        result = engine.count(
            CountSpec(
                algorithm="mochy-a+", sampling_ratio=0.3, seed=0,
                projection="lazy", budget=3,
            )
        )
        assert result.num_samples >= 1
        assert result.counts.total() >= 0.0

    def test_lazy_never_builds_full_projection(self, small_random_hypergraph, counting_project):
        engine = MotifEngine(small_random_hypergraph)
        engine.count(CountSpec(projection="lazy", budget=2))
        assert counting_project == []
        assert engine.num_projection_builds == 0

    @pytest.mark.parametrize(
        "run",
        [
            dict(num_samples=6),
            dict(sampling_ratio=0.2),
            dict(num_samples=6, num_workers=2),
            dict(sampling_ratio=0.2, num_workers=2),
            dict(num_samples=6, projection="lazy"),
            dict(sampling_ratio=0.2, projection="lazy", budget=3),
            "overlap-statistics",
        ],
        ids=[
            "full-samples",
            "full-ratio",
            "full-samples-2-workers",
            "full-ratio-2-workers",
            "lazy-samples",
            "lazy-ratio",
            "overlap-statistics",
        ],
    )
    def test_aplus_never_builds_the_hyperwedge_list(
        self, small_random_hypergraph, monkeypatch, run
    ):
        """MoCHy-A+ samples positions of ``∧``; it must never enumerate it."""
        from repro.counting.variance import compute_overlap_statistics
        from repro.projection import LazyProjection, ProjectedGraph

        def refuse(self):
            raise AssertionError("the hyperwedge list was built")

        monkeypatch.setattr(LazyProjection, "hyperwedge_list", refuse)
        monkeypatch.setattr(ProjectedGraph, "hyperwedge_list", refuse)
        hypergraph = small_random_hypergraph
        num_wedges = project(hypergraph).num_hyperwedges
        if run == "overlap-statistics":
            statistics = compute_overlap_statistics(
                hypergraph, LazyProjection(hypergraph, budget=3)
            )
            assert statistics.num_hyperwedges == num_wedges
            return
        result = MotifEngine(hypergraph, store=False).count(
            CountSpec(algorithm="mochy-a+", seed=0, **run)
        )
        assert result.num_samples == run.get("num_samples", round(0.2 * num_wedges))


class TestResults:
    def test_count_result_json_round_trip(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        result = engine.count()
        payload = json.loads(result.to_json())
        assert payload["kind"] == "count"
        assert payload["algorithm"] == "exact"
        assert payload["dataset"] == small_random_hypergraph.name
        assert len(payload["counts"]) == NUM_MOTIFS
        assert payload["total"] == pytest.approx(result.counts.total())

    def test_profile_result_json(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        result = engine.profile(ProfileSpec(num_random=2, seed=0))
        payload = json.loads(result.to_json())
        assert payload["kind"] == "profile"
        assert len(payload["values"]) == NUM_MOTIFS
        assert len(payload["significances"]) == NUM_MOTIFS
        assert payload["num_random"] == 2

    def test_compare_result_json(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        result = engine.compare(CompareSpec(num_random=2, seed=0))
        payload = json.loads(result.to_json())
        assert payload["kind"] == "compare"
        assert len(payload["rows"]) == NUM_MOTIFS
        row = payload["rows"][0]
        assert set(row) == {
            "motif", "real_count", "random_count", "real_rank",
            "random_rank", "rank_difference", "relative_count",
        }

    def test_count_result_matches_legacy_entrypoint(self, small_random_hypergraph):
        engine = MotifEngine(small_random_hypergraph)
        spec = CountSpec(algorithm="mochy-a+", num_samples=9, seed=4)
        legacy = count_motifs(
            small_random_hypergraph, algorithm="mochy-a+", num_samples=9, seed=4
        )
        assert engine.count(spec).counts == legacy


class TestRegistry:
    def test_load_registered_name(self):
        hypergraph = load("contact-primary-like", scale=0.3)
        assert hypergraph.num_hyperedges > 0
        assert hypergraph.name == "contact-primary-like"

    def test_load_plain_file(self, tmp_path, small_random_hypergraph):
        path = tmp_path / "h.txt"
        hio.write_plain(small_random_hypergraph, path)
        assert load(path).num_hyperedges == small_random_hypergraph.num_hyperedges

    def test_load_json_file(self, tmp_path, small_random_hypergraph):
        path = tmp_path / "h.json"
        hio.write_json(small_random_hypergraph, path)
        assert load(path).num_hyperedges == small_random_hypergraph.num_hyperedges

    def test_load_unknown_source(self):
        with pytest.raises(DatasetError):
            load("definitely-not-a-dataset")

    def test_load_rejects_scale_for_files(self, tmp_path, small_random_hypergraph):
        path = tmp_path / "h.txt"
        hio.write_plain(small_random_hypergraph, path)
        with pytest.raises(DatasetError):
            load(path, scale=0.5)

    def test_custom_registry(self):
        registry = DatasetRegistry()
        registry.register(
            "tiny", lambda scale: Hypergraph([{1, 2}, {2, 3}], name="tiny"),
            domain="demo",
        )
        assert "tiny" in registry
        assert registry.domain("tiny") == "demo"
        assert registry.load("tiny").num_hyperedges == 2
        with pytest.raises(DatasetError):
            registry.register("tiny", lambda scale: None)

    def test_engine_load_by_name(self):
        engine = MotifEngine.load("contact-primary-like", scale=0.3)
        assert engine.name == "contact-primary-like"
        assert engine.count().counts.total() >= 0.0


class TestTemporalEngine:
    def test_predict_requires_temporal(self, small_random_hypergraph):
        with pytest.raises(SpecError):
            MotifEngine(small_random_hypergraph).predict()

    def test_predict_default_windows(self):
        temporal = generate_temporal_coauthorship(
            num_years=4, initial_authors=120, initial_papers=80, seed=5
        )
        years = temporal.timestamps()
        engine = MotifEngine(temporal)
        result = engine.predict(PredictSpec(max_positives=30, seed=0))
        assert result.context_window == (years[0], years[-2])
        assert result.test_window == (years[-1], years[-1])
        payload = json.loads(result.to_json())
        assert payload["kind"] == "predict"
        assert payload["scores"]
        for score in payload["scores"]:
            assert 0.0 <= score["accuracy"] <= 1.0
            assert 0.0 <= score["auc"] <= 1.0

    def test_predict_honors_classifier_configuration(self):
        from repro.ml import RandomForestClassifier

        temporal = generate_temporal_coauthorship(
            num_years=3, initial_authors=80, initial_papers=50, seed=2
        )
        engine = MotifEngine(temporal)
        spec = PredictSpec(max_positives=20, seed=0)
        rows_a = engine.predict(
            spec, classifiers={"rf": RandomForestClassifier(num_trees=5, seed=3)}
        ).as_rows()
        rows_b = engine.predict(
            spec, classifiers={"rf": RandomForestClassifier(num_trees=5, seed=3)}
        ).as_rows()
        # The seeded template is cloned, not rebuilt with defaults, so two
        # identically-configured runs are deterministic.
        assert rows_a == rows_b

    def test_static_workflows_on_temporal_engine(self):
        temporal = generate_temporal_coauthorship(
            num_years=3, initial_authors=80, initial_papers=50, seed=2
        )
        engine = MotifEngine(temporal)
        years = temporal.timestamps()
        expected = count_exact(temporal.window(years[0], years[-1]))
        assert engine.count().counts == expected

    def test_engine_rejects_other_types(self):
        with pytest.raises(SpecError):
            MotifEngine([[1, 2], [2, 3]])


class TestLegacyShims:
    def test_run_counting_matches_engine(self, small_random_hypergraph):
        from repro.counting import run_counting

        run = run_counting(small_random_hypergraph, algorithm="mochy-a", num_samples=7, seed=2)
        direct = MotifEngine(small_random_hypergraph).count(
            CountSpec(algorithm="mochy-a", num_samples=7, seed=2)
        )
        assert run.counts == direct.counts
        assert run.algorithm == direct.algorithm
        assert run.num_samples == direct.num_samples

    def test_characteristic_profile_matches_engine(self, small_random_hypergraph):
        from repro.profile import characteristic_profile

        legacy = characteristic_profile(small_random_hypergraph, num_random=2, seed=0)
        direct = MotifEngine(small_random_hypergraph).profile(
            ProfileSpec(num_random=2, seed=0)
        ).profile
        assert (legacy.values == direct.values).all()

    def test_real_vs_random_matches_engine(self, small_random_hypergraph):
        from repro.analysis import real_vs_random

        legacy = real_vs_random(small_random_hypergraph, num_random=2, seed=0)
        direct = MotifEngine(small_random_hypergraph).compare(
            CompareSpec(num_random=2, seed=0)
        ).report
        assert legacy.rows == direct.rows


class TestSpecSerialization:
    """spec_to_dict/spec_from_dict — the wire format of the serving layer."""

    @pytest.mark.parametrize(
        "spec",
        [
            CountSpec(),
            CountSpec(algorithm="mochy-a+", num_samples=40, seed=7),
            CountSpec(projection="lazy", budget=10, policy="lru"),
            ProfileSpec(num_random=3, seed=0),
            CompareSpec(num_random=2, seed=1, null_model="slot-fill"),
            PredictSpec(max_positives=5, seed=2),
        ],
    )
    def test_round_trip_is_identity(self, spec):
        from repro.api import spec_from_dict, spec_to_dict

        payload = spec_to_dict(spec)
        assert spec_from_dict(payload) == spec
        # The payload of a replayable spec is JSON-serializable end to end.
        assert spec_from_dict(json.loads(json.dumps(payload))) == spec

    def test_type_defaults_to_count(self):
        from repro.api import spec_from_dict

        assert spec_from_dict({}) == CountSpec()
        assert spec_from_dict({"algorithm": "mochy-a", "num_samples": 5}) == CountSpec(
            algorithm="mochy-a", num_samples=5
        )

    def test_unknown_type_and_fields_are_rejected(self):
        from repro.api import spec_from_dict

        with pytest.raises(SpecError):
            spec_from_dict({"type": "tally"})
        with pytest.raises(SpecError):
            spec_from_dict({"type": "count", "bogus_field": 1})
        with pytest.raises(SpecError):
            spec_from_dict(["not", "a", "mapping"])

    def test_field_validation_still_applies(self):
        from repro.api import spec_from_dict

        with pytest.raises(SpecError):
            spec_from_dict({"type": "profile", "num_random": 0})
