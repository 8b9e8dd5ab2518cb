"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.generators import generate_uniform_random
from repro.hypergraph import io as hio
from repro.store import ArtifactStore, faults


@pytest.fixture
def hypergraph_file(tmp_path):
    hypergraph = generate_uniform_random(num_nodes=25, num_hyperedges=40, seed=0)
    path = tmp_path / "hypergraph.txt"
    hio.write_plain(hypergraph, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_count_defaults(self, hypergraph_file):
        arguments = build_parser().parse_args(["count", str(hypergraph_file)])
        assert arguments.algorithm == "exact"
        assert arguments.workers == 1


class TestCommands:
    def test_count_exact(self, hypergraph_file, capsys):
        assert main(["count", str(hypergraph_file)]) == 0
        output = capsys.readouterr().out
        assert "total instances" in output
        assert "algorithm: exact" in output

    def test_count_with_sampling(self, hypergraph_file, capsys):
        code = main(
            ["count", str(hypergraph_file), "--algorithm", "mochy-a+", "--ratio", "0.5", "--seed", "1"]
        )
        assert code == 0
        assert "wedge-sampling" in capsys.readouterr().out

    def test_count_missing_file(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "missing.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_count_invalid_algorithm(self, hypergraph_file, capsys):
        assert main(["count", str(hypergraph_file), "--algorithm", "bogus"]) == 1
        assert "unknown algorithm" in capsys.readouterr().err

    def test_profile(self, hypergraph_file, capsys):
        assert main(["profile", str(hypergraph_file), "--random", "2", "--seed", "0"]) == 0
        output = capsys.readouterr().out
        assert "characteristic profile" in output
        # One line per motif plus two header lines.
        assert len(output.strip().splitlines()) == 28

    def test_compare(self, hypergraph_file, capsys):
        assert main(["compare", str(hypergraph_file), "--random", "2", "--seed", "0"]) == 0
        assert "dataset:" in capsys.readouterr().out

    def test_generate(self, tmp_path, capsys):
        output_path = tmp_path / "generated.txt"
        code = main(
            ["generate", "contact-primary-like", str(output_path), "--scale", "0.3"]
        )
        assert code == 0
        assert output_path.exists()
        loaded = hio.read_plain(output_path)
        assert loaded.num_hyperedges > 0

    def test_generate_rejects_unknown_dataset(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "unknown-dataset", str(tmp_path / "x.txt")])

    def test_verbose_flag(self, hypergraph_file):
        assert main(["--verbose", "count", str(hypergraph_file)]) == 0

    def test_count_rejects_samples_and_ratio_together(self, hypergraph_file, capsys):
        code = main(
            [
                "count", str(hypergraph_file),
                "--algorithm", "mochy-a", "--samples", "5", "--ratio", "0.2",
            ]
        )
        assert code == 1
        assert "either --samples or --ratio" in capsys.readouterr().err

    def test_count_json_output(self, hypergraph_file, capsys):
        code = main(
            ["count", str(hypergraph_file), "--algorithm", "mochy-a",
             "--samples", "10", "--seed", "3", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "count"
        assert payload["algorithm"] == "edge-sampling"
        assert payload["num_samples"] == 10
        assert len(payload["counts"]) == 26

    def test_profile_json_output(self, hypergraph_file, capsys):
        code = main(
            ["profile", str(hypergraph_file), "--random", "2", "--seed", "0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "profile"
        assert len(payload["values"]) == 26

    def test_count_lazy_projection(self, hypergraph_file, capsys):
        code = main(
            ["count", str(hypergraph_file), "--projection", "lazy", "--budget", "4"]
        )
        assert code == 0
        assert "total instances" in capsys.readouterr().out

    def test_count_budget_requires_lazy(self, hypergraph_file, capsys):
        assert main(["count", str(hypergraph_file), "--budget", "4"]) == 1
        assert "lazy" in capsys.readouterr().err

    def test_count_registered_dataset_name(self, capsys):
        assert main(["count", "contact-primary-like"]) == 0
        assert "contact-primary-like" in capsys.readouterr().out

    def test_unknown_dataset_suggests_nearest_match(self, capsys):
        assert main(["count", "contact-primary-lik"]) == 1
        error = capsys.readouterr().err
        assert "did you mean 'contact-primary-like'?" in error
        assert "registered datasets:" in error

    def test_compare_json_output(self, hypergraph_file, capsys):
        code = main(
            ["compare", str(hypergraph_file), "--random", "2", "--seed", "0", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "compare"
        assert len(payload["rows"]) == 26

    def test_predict_json_output(self, capsys):
        code = main(
            ["predict", "--years", "3", "--max-positives", "20", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "predict"
        assert payload["scores"]


class TestStoreCommands:
    def test_second_invocation_warm_starts_from_store(
        self, hypergraph_file, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert main(["count", str(hypergraph_file), "--store", store, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        # A fresh invocation builds a fresh engine and a fresh ArtifactStore
        # instance, so the hit must come from the persistent tier.
        assert main(["count", str(hypergraph_file), "--store", store, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert not cold["from_cache"]
        assert warm["from_cache"] and warm["cache_tier"] == "disk"
        assert warm["counts"] == cold["counts"]

    def test_store_and_no_store_conflict(self, hypergraph_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(
            ["count", str(hypergraph_file), "--store", store, "--no-store", "--json"]
        ) == 1
        assert "either --store or --no-store" in capsys.readouterr().err

    def test_no_store_skips_persistence(
        self, hypergraph_file, tmp_path, monkeypatch, capsys
    ):
        store_dir = tmp_path / "store"
        monkeypatch.setenv("REPRO_STORE_DIR", str(store_dir))
        # The opted-out run must neither read nor write artifacts.
        assert main(["count", str(hypergraph_file), "--no-store", "--json"]) == 0
        assert not json.loads(capsys.readouterr().out)["from_cache"]
        assert not list(store_dir.glob("shards/*/*/*.npz"))
        # A warmed store is then ignored by a --no-store run.
        assert main(["count", str(hypergraph_file), "--json"]) == 0
        capsys.readouterr()
        assert main(["count", str(hypergraph_file), "--no-store", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not payload["from_cache"]

    def test_unusable_explicit_store_fails_loudly(self, tmp_path, hypergraph_file, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        bad = str(blocker / "store")
        assert main(["count", str(hypergraph_file), "--store", bad, "--json"]) == 1
        assert "unusable" in capsys.readouterr().err
        assert main(["cache", "--store", bad, "ls"]) == 1
        assert "unusable" in capsys.readouterr().err

    def test_unusable_env_store_degrades_silently(
        self, tmp_path, hypergraph_file, monkeypatch, capsys
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory", encoding="utf-8")
        monkeypatch.setenv("REPRO_STORE_DIR", str(blocker / "store"))
        assert main(["count", str(hypergraph_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not payload["from_cache"]

    def test_env_store_warms_cli(self, hypergraph_file, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        assert main(["count", str(hypergraph_file), "--json"]) == 0
        capsys.readouterr()
        assert main(["count", str(hypergraph_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["from_cache"]

    def test_cache_requires_a_store_directory(self, capsys):
        assert main(["cache", "ls"]) == 1
        assert "REPRO_STORE_DIR" in capsys.readouterr().err

    def test_cache_warm_then_ls(self, hypergraph_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        code = main(
            ["cache", "--store", store, "warm", str(hypergraph_file), "--profile", "2"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "count computed" in output
        assert "profile computed" in output
        assert main(["cache", "--store", store, "ls"]) == 0
        listing = capsys.readouterr().out
        for kind in ("projection", "count", "null-counts", "profile"):
            assert kind in listing
        assert "total:" in listing

    def test_cache_warm_hit_on_second_run(self, hypergraph_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["cache", "--store", store, "warm", str(hypergraph_file)]) == 0
        capsys.readouterr()
        assert main(["cache", "--store", store, "warm", str(hypergraph_file)]) == 0
        assert "count hit" in capsys.readouterr().out

    def test_cache_warm_unknown_dataset(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["cache", "--store", store, "warm", "no-such-dataset"]) == 1
        assert "no-such-dataset" in capsys.readouterr().err

    def test_cache_ls_json(self, hypergraph_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["count", str(hypergraph_file), "--store", store]) == 0
        capsys.readouterr()
        assert main(["cache", "--store", store, "ls", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_entries"] >= 1
        assert payload["occupancy"]["layout"] == "write-once"
        for entry in payload["entries"]:
            assert set(entry) >= {
                "kind", "fingerprint", "shard", "size_bytes",
                "age_seconds", "created", "params",
            }
            assert entry["shard"] == entry["fingerprint"][:2]
            assert entry["age_seconds"] >= 0

    def test_cache_ls_empty_store(self, tmp_path, capsys):
        assert main(["cache", "--store", str(tmp_path / "store"), "ls"]) == 0
        assert "(no artifacts)" in capsys.readouterr().out

    def test_cache_gc(self, hypergraph_file, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["count", str(hypergraph_file), "--store", store]) == 0
        # Corrupt one entry: gc reaps it and keeps the rest.
        payload = next((tmp_path / "store" / "shards").glob("*/*/count-*.npz"))
        payload.write_bytes(b"corrupted")
        capsys.readouterr()
        assert main(["cache", "--store", store, "gc"]) == 0
        output = capsys.readouterr().out
        assert f"gc: corrupt entry: {payload.name}" in output
        assert "kept 1 entries; removed 1 entries (1 files," in output


class TestServeBatch:
    @pytest.fixture
    def request_file(self, hypergraph_file, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            "\n".join(
                [
                    json.dumps({"source": str(hypergraph_file)}),
                    "# comments and blank lines are skipped",
                    "",
                    json.dumps(
                        {
                            "source": str(hypergraph_file),
                            "spec": {"type": "profile", "num_random": 2, "seed": 0},
                        }
                    ),
                    # Terse form: spec fields inlined beside "source".
                    json.dumps(
                        {
                            "source": str(hypergraph_file),
                            "type": "count",
                            "algorithm": "mochy-a+",
                            "num_samples": 25,
                            "seed": 0,
                        }
                    ),
                    json.dumps({"source": str(hypergraph_file)}),  # dedup slot
                ]
            ),
            encoding="utf-8",
        )
        return path

    def test_serve_batch_table_output(self, request_file, tmp_path, capsys):
        assert (
            main(
                [
                    "serve-batch",
                    str(request_file),
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "served 4 requests (3 unique, 1 deduplicated)" in output
        assert "profile" in output

    def test_serve_batch_parallel_workers(self, request_file, tmp_path, capsys):
        assert (
            main(
                [
                    "serve-batch",
                    str(request_file),
                    "--workers",
                    "2",
                    "--store",
                    str(tmp_path / "store"),
                ]
            )
            == 0
        )
        assert "served 4 requests" in capsys.readouterr().out

    def test_serve_batch_parallel_matches_serial_json(
        self, request_file, tmp_path, capsys
    ):
        assert main(["serve-batch", str(request_file), "--json", "--no-store"]) == 0
        serial = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert (
            main(
                [
                    "serve-batch",
                    str(request_file),
                    "--json",
                    "--no-store",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        parallel = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(serial) == len(parallel) == 4
        for cold, hot in zip(serial, parallel):
            assert cold["kind"] == hot["kind"]
            if "counts" in cold:
                assert cold["counts"] == hot["counts"]
            if "values" in cold:
                assert cold["values"] == hot["values"]

    def test_serve_batch_missing_file(self, capsys):
        assert main(["serve-batch", "/nonexistent.jsonl", "--no-store"]) == 1
        assert "request file not found" in capsys.readouterr().err

    def test_serve_batch_invalid_json_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json", encoding="utf-8")
        assert main(["serve-batch", str(path), "--no-store"]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_serve_batch_missing_source(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"spec": {"type": "count"}}), encoding="utf-8")
        assert main(["serve-batch", str(path), "--no-store"]) == 1
        assert 'missing or invalid "source"' in capsys.readouterr().err

    def test_serve_batch_unknown_spec_type(self, hypergraph_file, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"source": str(hypergraph_file), "spec": {"type": "tally"}}),
            encoding="utf-8",
        )
        assert main(["serve-batch", str(path), "--no-store"]) == 1
        assert "unknown spec type" in capsys.readouterr().err

    def test_serve_batch_rejects_predict_spec(
        self, hypergraph_file, tmp_path, capsys
    ):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"source": str(hypergraph_file), "spec": {"type": "predict"}}),
            encoding="utf-8",
        )
        assert main(["serve-batch", str(path), "--no-store"]) == 1
        assert "not servable" in capsys.readouterr().err

    def test_serve_batch_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n# only a comment\n", encoding="utf-8")
        assert main(["serve-batch", str(path), "--no-store"]) == 1
        assert "no requests" in capsys.readouterr().err


class TestParallelWarm:
    WORKERS = ("--workers", "2")

    @staticmethod
    def _warm(store, hypergraph_file, *options):
        argv = ["cache", "--store", store, "warm", str(hypergraph_file)]
        return main(argv + ["--profile", "2", *options])

    def test_cache_warm_with_workers_then_serial_hit(
        self, hypergraph_file, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        assert self._warm(store, hypergraph_file, *self.WORKERS) == 0
        # The store starts empty, so the count comes from this batch: its own
        # unit computes it, or the profile unit, which counts too, stores it
        # first and the count unit hits. Which unit wins is scheduling.
        out = capsys.readouterr().out
        assert re.search(r"count (computed|hit), profile computed", out)
        kinds = {entry.kind for entry in ArtifactStore(store).entries()}
        assert kinds == {"projection", "count", "null-counts", "profile"}
        # The pool-written artifacts serve a fresh serial invocation.
        assert self._warm(store, hypergraph_file) == 0
        assert "count hit, profile hit" in capsys.readouterr().out

    def test_cache_warm_count_hits_the_profile_units_count(
        self, hypergraph_file, tmp_path, capsys, monkeypatch
    ):
        # Hold the count unit back and the profile unit's own count always
        # lands in the store first.
        monkeypatch.setenv(
            faults.ENV_FAULTS,
            faults.encode_env(
                {"serve.unit": {"mode": "sleep", "seconds": 1.0, "key": ":CountSpec"}}
            ),
        )
        store = str(tmp_path / "store")
        assert self._warm(store, hypergraph_file, *self.WORKERS) == 0
        assert "count hit, profile computed" in capsys.readouterr().out
