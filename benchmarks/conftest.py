"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's evaluation on
the synthetic stand-in corpus (see DESIGN.md §3 and §5). Expensive artefacts —
the corpus itself, per-dataset counts and characteristic profiles — are built
once per session here and shared across benchmark files.

As in the paper (Section 4.1), sparse datasets are counted exactly with
MoCHy-E while the dense ones (email, tags, threads) use MoCHy-A+ with a fixed
sampling ratio.

Every benchmark writes its report to ``benchmarks/results/<name>.txt`` (and
prints it), so the tables survive pytest's output capturing.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.api import CountResult, CountSpec, MotifEngine
from repro.generators import build_corpus, dataset_domain
from repro.hypergraph import Hypergraph
from repro.profile import CharacteristicProfile, characteristic_profile

#: Scale factor applied to every corpus dataset (keeps pure-Python counting fast).
CORPUS_SCALE = 0.4

#: Sampling ratio used for the dense domains, mirroring the paper's use of
#: MoCHy-A+ on its largest datasets.
DENSE_SAMPLING_RATIO = 0.15

#: Domains counted exactly (MoCHy-E) vs. approximately (MoCHy-A+).
EXACT_DOMAINS = ("coauthorship", "contact")

#: Number of randomized hypergraphs per dataset (the paper uses five).
NUM_RANDOM = 3

RESULTS_DIR = Path(__file__).parent / "results"


def algorithm_for(domain: str) -> Tuple[str, float | None]:
    """(algorithm, sampling ratio) used for a dataset of the given domain."""
    if domain in EXACT_DOMAINS:
        return "mochy-e", None
    return "mochy-a+", DENSE_SAMPLING_RATIO


def write_report(name: str, text: str) -> Path:
    """Persist a benchmark report and echo it to stdout."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n===== {name} =====")
    print(text)
    return path


@pytest.fixture(scope="session")
def corpus() -> Dict[str, Tuple[Hypergraph, str]]:
    """The 11-dataset synthetic corpus at benchmark scale."""
    return build_corpus(scale=CORPUS_SCALE)


@pytest.fixture(scope="session")
def corpus_runs(corpus) -> Dict[str, CountResult]:
    """Counting runs (counts + timings) for every corpus dataset."""
    runs: Dict[str, CountResult] = {}
    for name, (hypergraph, domain) in corpus.items():
        algorithm, ratio = algorithm_for(domain)
        runs[name] = MotifEngine(hypergraph).count(
            CountSpec(algorithm=algorithm, sampling_ratio=ratio, seed=0)
        )
    return runs


@pytest.fixture(scope="session")
def corpus_profiles(corpus, corpus_runs) -> Dict[str, CharacteristicProfile]:
    """Characteristic profiles for every corpus dataset."""
    profiles: Dict[str, CharacteristicProfile] = {}
    for name, (hypergraph, domain) in corpus.items():
        algorithm, ratio = algorithm_for(domain)
        profiles[name] = characteristic_profile(
            hypergraph,
            num_random=NUM_RANDOM,
            algorithm=algorithm,
            sampling_ratio=ratio,
            seed=0,
            real_counts=corpus_runs[name].counts,
        )
    return profiles


@pytest.fixture(scope="session")
def corpus_domains(corpus) -> Dict[str, str]:
    """Dataset name -> domain mapping."""
    return {name: dataset_domain(name) for name in corpus}
