"""Server throughput — warm-cache HTTP round-trip QPS and latency.

The process-level front end puts a socket, HTTP framing and JSON codec in
front of the `QueryEngine`; this benchmark measures what that costs when
every answer is already cached, and how it scales with concurrent
clients.  It boots the :mod:`selectors` event-loop ``AsyncSemTreeServer``
with its wire-byte cache on (as the single-node CLI deploys it) on an
ephemeral loopback port, replays a mixed k-NN/range wire workload through
the :func:`~repro.workloads.http_client.generate_load` driver and
reports, per client-thread count (1 / 4 / 8):

* aggregate QPS over the whole run,
* client-observed latency percentiles (p50/p90/p99, ms),
* the engine result-cache and wire-cache hit rates.

Methodology: the server gets one untimed warmup pass, then the sweep
measures *steady state* — caches stay warm between points, so every
measured request is a wire-cache hit (``wire_cache_hit_rate`` 1.0) and
the numbers are a cache result, not the cost of a cold query.  For cold
numbers (novel queries, both caches missing) run the serving-path
benchmark's ``query-novel`` workload (``perfbench/README.md``).  The
driver pre-encodes every payload and never decodes success bodies, so
client CPU stays out of the measurement.

Shape expectations encoded below: answers served over HTTP are identical
to direct in-process engine calls, and the repeated queries are served
out of the wire cache.  Absolute numbers depend on the host; the JSON
twin (``BENCH_server_throughput.json``) records the trajectory in git.

Quick mode (``SERVER_BENCH_QUICK=1``, used by the CI perf-smoke job)
shrinks the workload and the thread sweep so the file doubles as a smoke
test that the server works under concurrent HTTP load.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.core import SemTreeConfig, SemTreeIndex
from repro.evaluation import Experiment
from repro.ingest import IngestingIndex
from repro.requirements import (GeneratorConfig, RequirementsGenerator,
                                build_requirement_distance,
                                build_requirement_vocabularies)
from repro.server import AsyncSemTreeServer, ServerApp
from repro.service.planner import QuerySpec
from repro.workloads import generate_load, query_payloads

from .conftest import write_report

QUICK = bool(os.environ.get("SERVER_BENCH_QUICK"))

THREAD_COUNTS: Tuple[int, ...] = (1, 2) if QUICK else (1, 4, 8)
REQUEST_COUNT = 64 if QUICK else 512
ENGINE_WORKERS = 4



def _build_corpus_index() -> Tuple[SemTreeIndex, List]:
    config = GeneratorConfig(
        documents=4 if QUICK else 8, requirements_per_document=6,
        sentences_per_requirement=3, actors=16, inconsistency_rate=0.2,
        restatement_rate=0.2, seed=29,
    )
    corpus = RequirementsGenerator(config).generate()
    vocabularies = build_requirement_vocabularies(
        corpus.actor_names, corpus.parameter_values
    )
    distance = build_requirement_distance(vocabularies)
    index = SemTreeIndex(distance, SemTreeConfig(
        dimensions=4, bucket_size=8, max_partitions=4, partition_capacity=48,
    ))
    for document in corpus.documents:
        index.add_document(document.to_rdf_document())
    index.build()
    triples = list(dict.fromkeys(corpus.all_triples()))
    return index, triples


def _boot_server(tmp_path, index: SemTreeIndex) -> AsyncSemTreeServer:
    live = IngestingIndex(index, tmp_path / "bench-wal.jsonl")
    app = ServerApp(live, workers=ENGINE_WORKERS, background_compaction=False)
    # The wire cache is on, matching the single-node CLI's default.
    return AsyncSemTreeServer(app, wire_cache=True).serve_background()


def _measure(server, payloads, threads: int) -> Dict[str, float]:
    """One steady-state run: QPS, latency and the per-run cache hit rates."""
    engine_before = server.app.engine.cache.stats
    wire_before = server.wire_cache_stats()
    summary = generate_load(server.url, payloads, threads=threads)
    engine_after = server.app.engine.cache.stats
    wire_after = server.wire_cache_stats()
    lookups = engine_after.lookups - engine_before.lookups
    summary["cache_hit_rate"] = (
        (engine_after.hits - engine_before.hits) / lookups if lookups else 0.0
    )
    wire_total = (wire_after["hits"] - wire_before["hits"] +
                  wire_after["misses"] - wire_before["misses"])
    summary["wire_cache_hit_rate"] = (
        (wire_after["hits"] - wire_before["hits"]) / wire_total
        if wire_total else 0.0
    )
    return summary


# -- pytest-benchmark cases ---------------------------------------------------------------

@pytest.mark.benchmark(group="server-throughput")
def test_http_round_trips(benchmark, tmp_path):
    index, triples = _build_corpus_index()
    server = _boot_server(tmp_path, index)
    payloads = query_payloads(triples, REQUEST_COUNT, k=3, radius=0.15,
                              repeat_fraction=0.3, seed=17)
    with server:
        generate_load(server.url, payloads, threads=2)  # warm caches
        benchmark.pedantic(
            lambda: generate_load(server.url, payloads, threads=4),
            rounds=2 if QUICK else 3, iterations=1,
        )


# -- the report itself --------------------------------------------------------------------

def test_report_server_throughput(results_dir, tmp_path):
    index, triples = _build_corpus_index()
    payloads = query_payloads(triples, REQUEST_COUNT, k=3, radius=0.15,
                              repeat_fraction=0.3, seed=17)

    experiment = Experiment(
        experiment_id="server_throughput",
        description="HTTP front-end throughput with warm caches (every "
                    "measured request a wire-cache hit; cold numbers: "
                    "perfbench query-novel): QPS and client-observed "
                    f"latency over {REQUEST_COUNT} mixed k-NN/range "
                    "requests, vs concurrent client threads",
        swept_parameter="client_threads",
    )

    with _boot_server(tmp_path, index) as server:
        _assert_wire_matches_engine(server, payloads, triples)
        generate_load(server.url, payloads, threads=2)  # warmup pass
        experiment.run_sweep(
            "async", THREAD_COUNTS,
            lambda threads: _measure(server, payloads, int(threads)),
        )

    series = experiment.series["async"]
    # Every sweep point must have completed the full workload ...
    assert all(count == len(payloads) for count in series.values("requests"))
    # ... with the repeated queries served out of the wire cache.
    assert all(rate > 0.5 for rate in series.values("wire_cache_hit_rate"))

    write_report(results_dir, experiment,
                 ["qps", "latency_ms_p50", "latency_ms_p90", "latency_ms_p99",
                  "cache_hit_rate", "wire_cache_hit_rate"])


def _assert_wire_matches_engine(server, payloads, triples) -> None:
    """Correctness preamble: HTTP answers equal direct engine answers."""
    from repro.workloads import ServerClient

    client = ServerClient(server.url)
    engine = server.app.engine
    for path, body in payloads[:16]:
        wire = client.request("POST", path, body)
        triple = next(t for t in triples if str(t) == wire_text(body))
        if path.endswith("knn"):
            spec = QuerySpec.k_nearest(triple, body["k"])
        else:
            spec = QuerySpec.range_query(triple, body["radius"])
        direct = engine.execute_sequential([spec])[0]
        assert [m["distance"] for m in wire["matches"]] == pytest.approx(
            [m.distance for m in direct.matches]
        )
    client.close_all()


def wire_text(body) -> str:
    """Reconstruct the Turtle-ish text of a wire triple payload (test helper)."""
    from repro.io.serialization import triple_from_dict

    return str(triple_from_dict(body["triple"]))
