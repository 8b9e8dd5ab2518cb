"""Regenerate ``digests.json``: one exact-count digest per static dataset.

Run from the root of a checkout::

    PYTHONPATH=src python3 perfbench/make_digests.py

Exact counts must stay bit-identical across versions, so the committed
digests are the benchmark's correctness oracle for every exact count it
receives. Regenerate only when a generator's output is meant to change.
"""

from __future__ import annotations

import json
from pathlib import Path

import harness
from repro.api.registry import TEMPORAL_DATASET_NAME, dataset_names, load
from repro.counting.exact import count_exact


def main() -> None:
    digests = {
        name: harness.counts_digest(count_exact(load(name)).to_array())
        for name in dataset_names()
        if name != TEMPORAL_DATASET_NAME
    }
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
