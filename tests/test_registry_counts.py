"""Exact counts of every static registry dataset at x1, against committed digests.

The parity suites check MoCHy-E on small random hypergraphs; the registry's
synthetic datasets are far denser (``threads-math-like`` alone holds millions
of closed instances). ``perfbench/digests.json`` records the SHA-256 of each
dataset's 26 exact counts, written as comma-separated integers in motif
order. This test reads that file only and recomputes the digests through the
public engine path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import registry
from repro.api.engine import MotifEngine

DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"

STATIC_DATASETS = [
    name for name in registry.dataset_names() if name != registry.TEMPORAL_DATASET_NAME
]


def _digest(counts) -> str:
    values = counts.to_array().tolist()
    assert all(value == int(value) for value in values)
    text = ",".join(str(int(value)) for value in values)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def digests():
    return json.loads(DIGESTS.read_text())


def test_every_static_dataset_has_a_digest(digests):
    assert len(STATIC_DATASETS) == 11
    assert sorted(digests) == sorted(STATIC_DATASETS)


@pytest.mark.parametrize("name", STATIC_DATASETS)
def test_exact_counts_match_the_committed_digest(name, digests):
    counts = MotifEngine.load(name, store=False).count().counts
    assert _digest(counts) == digests[name]
