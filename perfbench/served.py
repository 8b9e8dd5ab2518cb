"""The two served workloads, ``hit`` and ``sample``.

The HTTP server runs in its own process (default serial backend,
``max_engines=8``) over a fresh store directory. Load comes from this
process: a closed loop of client threads, each holding one
``ServiceClient`` with ``retries=0`` so failures are counted, never
retried away. Each request is a one-unit ``POST /v1/batch``.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import harness

#: Closed-loop clients per workload. hit has one: with today's ~40 ms
#: delayed-ACK stall, two clients rebuilding engines at once under the GIL
#: take about as long as the stall, so each latency quantile flips between
#: "stall" and "contended rebuild" from run to run (README, Findings).
CLIENTS = {"hit": 1, "sample": 2}
MAX_ENGINES = 8
#: Set-ups per run (``setup_s`` is their median); hit's fills a store with
#: 11 exact counts (about 7 s), so it gets two.
SETUP_REPEATS = {"hit": 2, "sample": 3}
#: Batches one set-up sends: hit's fill; sample's exact count and warm-up.
SETUP_BATCHES = {"hit": 1, "sample": 2}
SAMPLE_DATASET = "threads-math-like"
SAMPLE_SAMPLES = 1000
#: A+ seeds of sample's set-up warm-up and of the ``aplus_s`` probe: fixed,
#: so every run times the same draws. Loop seeds come from the workload
#: seed and never collide with these.
WARMUP_SEED = 0
PROBE_SEEDS = (1, 2, 3, 4, 5)


def exact_request(dataset: str) -> Dict:
    return {"source": dataset, "spec": {"type": "count"}}


def aplus_request(seed: int) -> Dict:
    return {
        "source": SAMPLE_DATASET,
        "spec": {
            "type": "count",
            "algorithm": "mochy-a+",
            "num_samples": SAMPLE_SAMPLES,
            "seed": seed,
        },
    }


class WrongOutput(Exception):
    """A response that arrived but is not a correct answer."""


class ServerProcess:
    """``repro-mochy serve`` in a child process, on a free port."""

    def __init__(self, root: Path, work: Path, store: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self._log = open(work / "server.log", "ab")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0",
                "--store", str(store),
                "--max-engines", str(MAX_ENGINES),
            ],
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            line = self.process.stdout.readline()
            if "serving on http://" not in line:
                raise RuntimeError(f"server did not start (see {work / 'server.log'})")
            self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


def call(client, request: Dict) -> Tuple[Dict, float, int]:
    """One one-unit batch: ``(result, seconds, NDJSON payload bytes)``."""
    started = time.perf_counter()
    records = list(client.batch_stream([request]))
    elapsed = time.perf_counter() - started
    size = sum(len(json.dumps(record)) + 1 for record in records)
    units = [record for record in records if record.get("index") == 0]
    if (
        len(units) != 1
        or units[0].get("status") != "ok"
        or not records
        or records[-1].get("status") != "done"
    ):
        raise WrongOutput(f"unexpected stream {records!r:.300}")
    return units[0]["result"], elapsed, size


def checked(outcomes: harness.Outcomes, check: Callable[[Dict], bool], client, request):
    """Send *request*, check its answer and tally it; ``None`` on failure."""
    from repro.store.client import ServiceError

    try:
        result, elapsed, size = call(client, request)
    except (ServiceError, OSError, ValueError, WrongOutput) as error:
        outcomes.record(False, type(error).__name__)
        return None
    ok = check(result)
    outcomes.record(ok)
    return (result, elapsed, size) if ok else None


class Workload:
    """Request generation and output checks of one served workload."""

    #: hit: client k starts this many datasets after client k-1.
    CLIENT_OFFSET = 5

    def __init__(self, name: str, seed: int, digests: Dict[str, str]) -> None:
        from repro.api.registry import TEMPORAL_DATASET_NAME, dataset_names

        self.name = name
        self.digests = digests
        self.datasets = [n for n in dataset_names() if n != TEMPORAL_DATASET_NAME]
        rng = random.Random(f"perfbench:{name}:{seed}")
        self.start = rng.randrange(len(self.datasets))
        self.seed_base = 1 + max(PROBE_SEEDS) + rng.randrange(1 << 30)
        self.clients = CLIENTS[name]
        self._sent = [0] * self.clients

    def next_request(self, client: int) -> Dict:
        """Client *client*'s next request.

        On hit each client cycles through the datasets from its own
        offset; on sample the clients draw disjoint seed sequences. A
        client's sequence continues across loops, so no seed repeats in a
        run.
        """
        i = self._sent[client]
        self._sent[client] += 1
        if self.name == "hit":
            index = self.start + client * self.CLIENT_OFFSET + i
            return exact_request(self.datasets[index % len(self.datasets)])
        return aplus_request(self.seed_base + self.clients * i + client)

    def check(self, request: Dict, result: Dict) -> bool:
        if result.get("dataset") != request["source"]:
            return False
        if request["spec"].get("algorithm") is None:
            return harness.exact_counts_ok(request["source"], result["counts"], self.digests)
        return harness.aplus_counts_ok(result, SAMPLE_SAMPLES)

    def setup(self, root: Path, work: Path, repeat: int, outcomes: harness.Outcomes):
        """Start a server over a fresh store and warm it; returns
        ``(server, setup seconds, exact phase seconds)``.

        hit fills the store with every static dataset's exact counts in one
        batch. sample counts only its own dataset exactly, which builds the
        projection, then makes one A+ request, which builds the hyperwedge
        list.
        """
        from repro.store.client import ServiceClient

        store = work / f"store-{repeat}"
        shutil.rmtree(store, ignore_errors=True)
        started = time.perf_counter()
        server = ServerProcess(root, work, store)
        try:
            client = ServiceClient(port=server.port, retries=0)
            client.wait_until_healthy(timeout=60)
            names = self.datasets if self.name == "hit" else [SAMPLE_DATASET]
            exact_started = time.perf_counter()
            records = list(client.batch_stream([exact_request(n) for n in names]))
            exact_s = time.perf_counter() - exact_started
            units = {r["index"]: r for r in records if "index" in r}
            for index, dataset in enumerate(names):
                unit = units.get(index, {})
                outcomes.record(
                    unit.get("status") == "ok"
                    and harness.exact_counts_ok(dataset, unit["result"]["counts"], self.digests)
                )
            if self.name == "sample":
                aplus_probe(self, client, [WARMUP_SEED], outcomes)
            client.close()
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - started, exact_s


def aplus_probe(workload: Workload, client, seeds, outcomes) -> List[float]:
    """Send one A+ request per seed, one at a time; their latencies."""
    latencies = []
    for seed in seeds:
        request = aplus_request(seed)
        answer = checked(outcomes, lambda r: workload.check(request, r), client, request)
        if answer is None:
            raise RuntimeError(f"the A+ request with seed {seed} failed")
        latencies.append(answer[1])
    return latencies


def closed_loop(
    workload: Workload,
    port: int,
    seconds: float,
    outcomes: harness.Outcomes,
    tracer: Optional[harness.Tracer] = None,
):
    """Run the workload's closed-loop clients for *seconds*; returns
    ``(latencies, sizes, answers, wall)``. Each client sends its next
    request when the previous one completed."""
    from repro.store.client import ServiceClient

    latencies: List[float] = []
    sizes: List[int] = []
    answers: List[Tuple[Dict, Dict]] = []
    lock = threading.Lock()
    started = time.perf_counter()
    stop = started + seconds

    def run(k: int) -> None:
        client = ServiceClient(port=port, retries=0)
        while time.perf_counter() < stop:
            request = workload.next_request(k)
            if tracer is not None:
                with tracer.span("request", client=k) as span:
                    answer = checked(
                        outcomes, lambda r: workload.check(request, r), client, request
                    )
                    span["bytes"] = answer[2] if answer else 0
            else:
                answer = checked(
                    outcomes, lambda r: workload.check(request, r), client, request
                )
            if answer is not None:
                with lock:
                    latencies.append(answer[1])
                    sizes.append(answer[2])
                    answers.append((request, answer[0]))
        client.close()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(workload.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies, sizes, answers, time.perf_counter() - started


def run_measured(workload: Workload, root: Path, work: Path, seconds: float, outcomes):
    """The untraced run: end-to-end metrics plus the run-record extras.

    After the loop, one client sends a warm-up A+ request and then one per
    probe seed; ``aplus_s`` is their median (the served A+ latency without
    contention, its engine, projection and hyperwedge list built).
    """
    from repro.store.client import ServiceClient

    setups, exact = [], []
    server = None
    try:
        for repeat in range(SETUP_REPEATS[workload.name]):
            if server is not None:
                server.stop()
            server, setup_s, exact_s = workload.setup(root, work, repeat, outcomes)
            setups.append(setup_s)
            exact.append(exact_s)
        latencies, _, _, wall = closed_loop(workload, server.port, seconds, outcomes)
        peak_rss = server.peak_rss_mb()
        client = ServiceClient(port=server.port, retries=0)
        aplus = aplus_probe(workload, client, (WARMUP_SEED,) + PROBE_SEEDS, outcomes)[1:]
        client.close()
    finally:
        if server is not None:
            server.stop()
    metrics, extras = harness.latency_summary(latencies)
    metrics.update(
        {
            "setup_s": harness.median(setups),
            "throughput_rps": len(latencies) / wall,
            "peak_rss_mb": peak_rss,
            "exact_s": harness.median(exact),
            "aplus_s": harness.median(aplus),
        }
    )
    extras["loop_seconds"] = wall
    return metrics, extras


def settled_metrics(client, batches: int, timeout: float = 10.0) -> str:
    """Scrape ``/v1/metrics`` once the server has finished accounting for
    *batches* answered batches. A handler records its stream timing after
    the last chunk is sent, so a scrape right after the client read that
    chunk could miss the batch and charge it to the next window."""
    deadline = time.monotonic() + timeout
    while True:
        text = client.metrics()
        answered = harness.MetricsDelta("", text).counter(
            "repro_http_requests", route="/v1/batch", status="200"
        )
        if answered >= batches or time.monotonic() >= deadline:
            return text
        time.sleep(0.01)


def store_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def run_traced(workload: Workload, root: Path, work: Path, seconds: float, outcomes):
    """The traced run: per-layer metrics for one served workload.

    One set-up, then an untraced loop and a traced loop of ``seconds / 2``
    each (their mean latencies give the tracing overhead). ``/v1/metrics``
    is scraped around the traced loop, and the store directory measured.
    After the server stops, the loop's operations are replayed in this
    process with a span around each public layer call.
    """
    from repro.store.client import ServiceClient

    tracer = harness.Tracer()
    half = seconds / 2.0
    server, _, _ = workload.setup(root, work, 0, outcomes)
    store = work / "store-0"
    try:
        plain, _, _, _ = closed_loop(workload, server.port, half, outcomes)
        scraper = ServiceClient(port=server.port, retries=0)
        setup = SETUP_BATCHES[workload.name]
        before = settled_metrics(scraper, setup + len(plain))
        bytes_before = store_bytes(store)
        traced, sizes, answers, _ = closed_loop(
            workload, server.port, half, outcomes, tracer
        )
        after = settled_metrics(scraper, setup + len(plain) + len(traced))
        bytes_after = store_bytes(store)
        scraper.close()
    finally:
        server.stop()
    n = len(traced)
    delta = harness.MetricsDelta(before, after)
    per = {key: value / n for key, value in harness.server_layer_seconds(delta).items()}
    wall = sum(traced) / n
    rate = {
        "engines": delta.counter("repro_serve_engines_built") / n,
        "computed": delta.counter("repro_serve_cache_tier", tier="computed") / n,
        "hits": (
            delta.counter("repro_store_gets", outcome="memory_hit")
            + delta.counter("repro_store_gets", outcome="disk_hit")
        ) / n,
        "gets": delta.counter("repro_store_gets") / n,
        "puts": delta.counter("repro_store_puts") / n,
    }
    layers: Dict[str, float] = {
        "server.transport_ms": 1e3 * (wall - per["handler"]),
        "server.parse_ms": 1e3 * per["parse"],
        "server.handler_ms": 1e3 * per["handler"],
        "server.write_ms": 1e3 * per["write"],
        "server.response_bytes": sum(sizes) / n,
        "serve.unit_ms": 1e3 * per["unit"],
        "serve.engines_built": rate["engines"],
        "executors.queue_wait_ms": 1e3 * per["dispatch"],
        "artifacts.hit_ratio": rate["hits"] / rate["gets"] if rate["gets"] else 0.0,
        "lsm.get_ms": 1e3 * delta.hist_sum("repro_lsm_get_seconds") / n,
        "lsm.put_ms": 1e3 * delta.hist_sum("repro_lsm_put_seconds") / n,
        "lsm.bytes_written": (bytes_after - bytes_before) / n,
        "trace.overhead_pct": 100.0 * (wall / (sum(plain) / len(plain)) - 1.0),
        "reconcile.wall_ms": 1e3 * wall,
    }
    for tier in ("engine", "memory", "disk", "computed"):
        layers[f"serve.tier.{tier}"] = delta.counter("repro_serve_cache_tier", tier=tier) / n
    for outcome in ("memory_hit", "disk_hit", "miss"):
        layers[f"artifacts.gets.{outcome}"] = (
            delta.counter("repro_store_gets", outcome=outcome) / n
        )
    for outcome in ("ok", "memory_only", "contention", "error"):
        layers[f"artifacts.puts.{outcome}"] = (
            delta.counter("repro_store_puts", outcome=outcome) / n
        )

    # Compute layers, replayed in-process and scaled by how often the
    # server made each call per request, read from its own counters.
    replay = harness.Tracer()
    if workload.name == "hit":
        replay_hit(workload, store, replay, outcomes)
    else:
        replay_sample(workload, work, answers, replay, outcomes)
    calls = {
        "load": rate["engines"],
        "csr": rate["engines"],
        "fingerprint": rate["engines"],
        "store_get": rate["gets"],
        "decode": rate["hits"],
        "wedge_sampling": rate["computed"],
        "encode": rate["puts"],
        "store_put": rate["puts"],
    }
    own = replay.self_times()

    def per_request(name: str, attr: Optional[str] = None) -> float:
        count = replay.count(name)
        if not count:
            return 0.0
        total = own[name] if attr is None else replay.total(name, attr)
        return total / count * calls[name]

    layers.update(
        {
            "registry.load_ms": 1e3 * per_request("load"),
            "csr.build_ms": 1e3 * per_request("csr"),
            "fingerprint.ms": 1e3 * per_request("fingerprint"),
            "codecs.decode_us": 1e6 * per_request("decode"),
            "codecs.encode_us": 1e6 * per_request("encode"),
            "codecs.bytes": per_request("decode", "bytes") + per_request("encode", "bytes"),
            "wedge_sampling.ms": 1e3 * per_request("wedge_sampling"),
        }
    )
    if replay.count("wedge_sampling"):
        layers["wedge_sampling.samples_per_s"] = (
            replay.total("wedge_sampling", "samples") / own["wedge_sampling"]
        )

    # Reconciliation against the client's wall time: the server's disjoint
    # pieces, with the replayed calls nested inside the piece that runs
    # them. The queue wait's self time is what its replayed calls leave;
    # the remainder not accounted for is the unit's.
    dispatch_calls = ("load", "csr", "fingerprint")
    unit_calls = ("store_get", "decode", "wedge_sampling", "encode", "store_put")
    parts = [
        ("transport", layers["server.transport_ms"]),
        ("parse", 1e3 * per["parse"]),
        ("write", 1e3 * per["write"]),
        (
            "queue_wait",
            1e3 * (per["dispatch"] - sum(per_request(name) for name in dispatch_calls)),
        ),
    ]
    parts += [(name, 1e3 * per_request(name)) for name in dispatch_calls + unit_calls]
    unaccounted = layers["reconcile.wall_ms"] - sum(ms for _, ms in parts)
    parts.append(("unaccounted", unaccounted))
    layers["reconcile.unaccounted_ms"] = unaccounted
    layers["reconcile.unaccounted_pct"] = 100.0 * unaccounted / layers["reconcile.wall_ms"]
    body = " + ".join(f"{name} {ms:.3f}" for name, ms in parts)
    extras = {
        "requests": n,
        "reconcile": f"wall {layers['reconcile.wall_ms']:.3f} ms/request = {body}",
        "spans": tracer.spans + replay.spans,
    }
    return layers, extras


def replay_hit(workload: Workload, store_dir: Path, tracer: harness.Tracer, outcomes):
    """One engine rebuild and cached count per static dataset, as the
    server runs them, after one untimed pass that warms the memory tier."""
    from repro.api.config import CountSpec
    from repro.api.registry import load
    from repro.store import codecs
    from repro.store.artifacts import ArtifactStore

    store = ArtifactStore(store_dir)
    params = codecs.count_params(CountSpec())
    for timed in (harness.Tracer(enabled=False), tracer):
        for dataset in workload.datasets:
            with timed.span("request", dataset=dataset):
                with timed.span("load"):
                    hypergraph = load(dataset)
                with timed.span("csr"):
                    hypergraph.csr()
                with timed.span("fingerprint"):
                    fingerprint = hypergraph.fingerprint()
                with timed.span("store_get"):
                    hit = store.get(codecs.KIND_COUNT, fingerprint, params)
                if hit is None:
                    outcomes.record(False, "replay store miss")
                    continue
                with timed.span("decode", bytes=sum(a.nbytes for a in hit[0].values())):
                    counts = codecs.decode_counts(hit[0])
            if timed.enabled:
                outcomes.record(
                    harness.exact_counts_ok(dataset, counts.to_array(), workload.digests)
                )


def replay_sample(workload: Workload, work: Path, answers, tracer: harness.Tracer, outcomes):
    """Recompute the traced loop's A+ requests in-process against a fresh
    store, and require results bit-identical to the server's answers. An
    untimed first recomputation warms the kernel's caches, as the server's
    set-up did."""
    from repro.api.config import CountSpec
    from repro.api.registry import load
    from repro.counting.wedge_sampling import count_approx_wedge_sampling
    from repro.projection.builder import project
    from repro.store import codecs
    from repro.store.artifacts import ArtifactStore

    directory = work / "replay-store"
    shutil.rmtree(directory, ignore_errors=True)
    store = ArtifactStore(directory)
    hypergraph = load(SAMPLE_DATASET)
    projection = project(hypergraph)
    wedges = projection.hyperwedge_list()
    fingerprint = hypergraph.fingerprint()
    for index, (request, served) in enumerate(answers[:1] + answers):
        timed = tracer if index else harness.Tracer(enabled=False)
        spec = CountSpec(
            algorithm="mochy-a+", num_samples=SAMPLE_SAMPLES, seed=request["spec"]["seed"]
        )
        params = codecs.count_params(spec)
        with timed.span("request"):
            with timed.span("store_get"):
                store.get(codecs.KIND_COUNT, fingerprint, params)
            with timed.span("wedge_sampling", samples=SAMPLE_SAMPLES):
                counts = count_approx_wedge_sampling(
                    hypergraph, SAMPLE_SAMPLES, projection, seed=spec.seed, hyperwedges=wedges
                )
            with timed.span("encode") as span:
                arrays, meta = codecs.encode_counts(counts, {"num_samples": SAMPLE_SAMPLES})
            if span is not None:
                span["bytes"] = sum(a.nbytes for a in arrays.values())
            with timed.span("store_put"):
                store.put(codecs.KIND_COUNT, fingerprint, params, arrays, meta)
        outcomes.record(
            harness.canonical_counts(served["counts"]) == counts.to_array().tolist(),
            "replayed A+ differs",
        )
    shutil.rmtree(directory, ignore_errors=True)
