"""CI service-smoke driver: assert streaming, parity and warm-start over HTTP.

Run against an already-started ``repro-mochy serve`` instance:

    python .github/scripts/service_smoke.py --port 8731 \
        --requests requests.jsonl --serial serial.jsonl --phase cold

``--phase cold`` (first server instance, empty store) asserts that

* results arrive **incrementally** in completion order — the batch leads
  with a profile that the server holds back 2 s (CI starts the cold server
  with ``REPRO_FAULTS`` arming a ``serve.unit`` sleep keyed on
  ``contact-primary-like:ProfileSpec``), so the counts' records must arrive
  first, before the stream is complete, however fast the host;
* one ``ok`` record arrives per request plus a ``done`` summary;
* result payloads are **bit-identical** to the ``serve-batch`` serial
  reference in ``--serial`` (volatile timing/provenance fields excluded).

``--phase warm`` (second server instance over the same store directory)
additionally asserts every result reports ``from_cache`` with
``cache_tier == "disk"`` — the persistent tier survived the restart.

Both phases scrape ``GET /v1/metrics`` after the batch and assert the
served counters (``repro_serve_requests_total``, the per-tier
``repro_serve_cache_tier_total`` samples and the ``/v1/batch`` HTTP
counter) agree exactly with the NDJSON records the client just consumed.

Both phases also stream an evolution chain through ``POST /v1/evolve``
(the registered deterministic temporal dataset) and cross-check the
per-mode ``repro_evolve_snapshots_total`` counters against the snapshot
records consumed. The cold phase computes the chain (one full count plus
incremental deltas) and persists its lineage sidecars; the warm phase —
a *different server process* over the same store directory — must serve
every snapshot ``cached`` from those lineage artifacts.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path

from repro.store.client import ServiceClient

SAMPLE_LINE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(?:\{(.*)\})?\s+(\S+)$")
LABEL_PAIR = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

VOLATILE_KEYS = frozenset(
    {
        "projection_seconds",
        "counting_seconds",
        "seconds",
        "projection_cached",
        "from_cache",
        "cache_tier",
    }
)


def stable(result: dict) -> dict:
    return {key: value for key, value in result.items() if key not in VOLATILE_KEYS}


def scrape_samples(client: ServiceClient) -> dict:
    """Parse ``GET /v1/metrics`` into ``(name, sorted label items) -> value``."""
    samples = {}
    for line in client.metrics().splitlines():
        if not line or line.startswith("#"):
            continue
        match = SAMPLE_LINE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        name, raw_labels, value = match.groups()
        labels = dict(LABEL_PAIR.findall(raw_labels)) if raw_labels else {}
        samples[(name, tuple(sorted(labels.items())))] = float(value)
    return samples


def sample_value(samples: dict, name: str, **labels) -> float:
    key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
    return samples.get(key, 0.0)


def read_jsonl(path: Path) -> list:
    return [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]


def check_evolve(client: ServiceClient, phase: str) -> None:
    """Stream ``POST /v1/evolve`` and reconcile it with ``/v1/metrics``."""
    before = scrape_samples(client)
    records = list(client.evolve_stream("coauth-temporal-like"))

    assert records and records[-1].get("status") == "done", records[-1:]
    done = records[-1]
    snapshots = [r["snapshot"] for r in records if r.get("status") == "ok"]
    assert done["errors"] == 0, f"evolve stream reported errors: {done}"
    assert done["count"] == len(snapshots) > 1
    assert [s["index"] for s in snapshots] == list(range(len(snapshots)))

    modes = Counter(snapshot["mode"] for snapshot in snapshots)
    assert dict(modes) == done["modes"], (modes, done["modes"])
    if phase == "warm":
        # A different server process over the same store: every snapshot
        # must be served from the persisted count + lineage artifacts.
        assert set(modes) == {"cached"}, (
            f"warm evolve chain was not fully cached: {dict(modes)}"
        )

    after = scrape_samples(client)
    for mode, expected in sorted(modes.items()):
        grew = sample_value(after, "repro_evolve_snapshots_total", mode=mode)
        grew -= sample_value(before, "repro_evolve_snapshots_total", mode=mode)
        assert grew == expected, (
            f"evolve mode {mode!r}: metrics grew by {grew}, "
            f"NDJSON stream carried {expected} snapshots"
        )
    hits = sample_value(
        after, "repro_http_requests_total", route="/v1/evolve", status=200
    )
    hits -= sample_value(
        before, "repro_http_requests_total", route="/v1/evolve", status=200
    )
    assert hits == 1, f"expected one 200 /v1/evolve hit, metrics grew by {hits}"
    print(
        f"[{phase}] /v1/evolve streamed {len(snapshots)} snapshots "
        f"(modes {dict(modes)}); metrics agree"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--requests", type=Path, required=True)
    parser.add_argument("--serial", type=Path, required=True)
    parser.add_argument("--phase", choices=("cold", "warm"), required=True)
    arguments = parser.parse_args()

    requests = read_jsonl(arguments.requests)
    serial = read_jsonl(arguments.serial)
    assert len(serial) == len(requests), "serial reference is incomplete"

    client = ServiceClient(port=arguments.port, timeout=600.0)
    health = client.wait_until_healthy(timeout=60.0)
    print(f"[{arguments.phase}] service healthy: version {health['version']}")

    records = list(client.batch_stream(requests))

    failures = [record for record in records if record.get("status") == "error"]
    assert not failures, f"stream contained error records: {failures}"
    okay = [record for record in records if record.get("status") == "ok"]
    done = [record for record in records if record.get("status") == "done"]
    assert len(done) == 1 and records[-1] is done[0], "missing/misplaced done record"
    assert sorted(record["index"] for record in okay) == list(range(len(requests)))
    assert done[0]["ok"] == len(requests) and done[0]["errors"] == 0

    if arguments.phase == "cold":
        # Incremental, completion-ordered streaming: request 0 is the
        # profile the cold server holds back 2 s (see the module docstring),
        # so with overlapping workers a count record must arrive before it.
        # On the warm pass every unit is a near-instant disk hit, so arrival
        # order is not meaningful there.
        assert okay[0]["index"] != 0, (
            "the slow profile's record arrived first; streaming does not "
            "follow completion order"
        )

    # Bit-identical to the serve-batch serial reference.
    by_index = {record["index"]: record["result"] for record in okay}
    for index, reference in enumerate(serial):
        if stable(by_index[index]) != stable(reference):
            raise AssertionError(
                f"request {index} diverged from the serial reference:\n"
                f"  http:   {stable(by_index[index])}\n"
                f"  serial: {stable(reference)}"
            )
    print(f"[{arguments.phase}] {len(okay)} streamed results match serve-batch")

    if arguments.phase == "warm":
        for index, result in sorted(by_index.items()):
            assert result["from_cache"], f"warm request {index} was recomputed"
            assert result["cache_tier"] == "disk", (
                f"warm request {index} served from {result['cache_tier']!r}, "
                f"expected the disk tier"
            )
        print(f"[warm] all {len(by_index)} results served from the disk tier")

    # /v1/metrics must agree exactly with the NDJSON stream the client just
    # consumed: one served request per ok record, one /v1/batch HTTP hit,
    # and per-tier counters matching the results' cache_tier fields (a
    # freshly computed unit counts under the "computed" tier).
    samples = scrape_samples(client)
    served = sample_value(samples, "repro_serve_requests_total")
    assert served == len(okay), (
        f"repro_serve_requests_total is {served}, expected {len(okay)}"
    )
    batches = sample_value(
        samples, "repro_http_requests_total", route="/v1/batch", status=200
    )
    assert batches == 1, f"expected one 200 /v1/batch hit, metrics report {batches}"
    expected_tiers = Counter(
        record["result"]["cache_tier"]
        if record["result"].get("from_cache")
        else "computed"
        for record in okay
    )
    for tier, expected in sorted(expected_tiers.items()):
        observed = sample_value(samples, "repro_serve_cache_tier_total", tier=tier)
        assert observed == expected, (
            f"cache tier {tier!r}: metrics report {observed}, "
            f"NDJSON results show {expected}"
        )
    if arguments.phase == "warm":
        assert expected_tiers == {"disk": len(okay)}, expected_tiers
    print(
        f"[{arguments.phase}] /v1/metrics agrees with the stream: "
        f"{int(served)} served, tiers {dict(expected_tiers)}"
    )

    check_evolve(client, arguments.phase)

    stats = client.stats()
    assert stats["serve"]["in_flight"] == 0, "batches left in flight"
    assert stats["service"]["batches_completed"] >= 1
    assert stats["service"]["evolve_completed"] >= 1
    assert stats["service"]["snapshots_streamed"] >= 2
    print(
        f"[{arguments.phase}] stats consistent: "
        f"store hits memory={stats['store']['stats']['memory_hits']} "
        f"disk={stats['store']['stats']['disk_hits']}, "
        f"pool={stats['pool']}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
