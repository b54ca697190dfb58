"""Sharded throughput — coordinator QPS/latency vs shard count, vs one server.

The real-deployment question of the sharded story: what does scattering
partition scans across per-partition HTTP shard servers cost (an extra
network hop per partition per query), and what does it buy (parallel leaf
scans, per-partition processes)?  For each shard count this benchmark

1. builds the requirements corpus index with ``max_partitions`` equal to
   the shard count and checkpoints it,
2. boots a **real fleet**: one ``python -m repro.server --shard`` process
   per data-bearing partition plus one ``python -m repro.coordinator``
   process (the acceptance deployment, not an in-process stand-in),
3. replays the same mixed k-NN/range wire workload against the coordinator
   and against a single-process server over the same index (the baseline),
   through :func:`~repro.workloads.http_client.generate_load`.

Shape expectations encoded below: the coordinator's answers carry exactly
the baseline's distances, and every sweep point completes the workload.
Absolute numbers depend on the host; the JSON twin
(``BENCH_sharded_throughput.json``) records the trajectory in git.

Quick mode (``SHARDED_BENCH_QUICK=1``, used by the CI perf-smoke job)
shrinks the corpus, the workload and the shard-count sweep so the file
doubles as a smoke test of the whole fleet — subprocess boot included.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

import pytest

from repro.core import SemTreeConfig, SemTreeIndex
from repro.coordinator import launch_coordinator, launch_shards, shutdown_processes
from repro.evaluation import Experiment
from repro.ingest import IngestingIndex
from repro.requirements import (GeneratorConfig, RequirementsGenerator,
                                build_requirement_distance,
                                build_requirement_vocabularies)
from repro.server import AsyncSemTreeServer, ServerApp
from repro.server.bootstrap import vocabulary_hints
from repro.workloads import ServerClient, generate_load, query_payloads

from .conftest import write_report

QUICK = bool(os.environ.get("SHARDED_BENCH_QUICK"))

SHARD_COUNTS: Tuple[int, ...] = (2,) if QUICK else (2, 4, 8)
REQUEST_COUNT = 48 if QUICK else 384
CLIENT_THREADS = 4


def _build_corpus_index(max_partitions: int) -> Tuple[SemTreeIndex, List]:
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
        dimensions=4, bucket_size=8, max_partitions=max_partitions,
        partition_capacity=max(16, 192 // max_partitions),
    ))
    for document in corpus.documents:
        index.add_document(document.to_rdf_document())
    index.build()
    triples = list(dict.fromkeys(corpus.all_triples()))
    return index, triples


def _checkpoint(index: SemTreeIndex, triples, tmp_path, tag: str):
    actors, parameters = vocabulary_hints(triples)
    live = IngestingIndex(
        index, tmp_path / f"wal-{tag}.jsonl",
        vocabulary_hints={"actors": actors, "parameters": parameters},
    )
    snapshot = tmp_path / f"snapshot-{tag}.json"
    live.checkpoint(snapshot)
    live.close()
    return snapshot


def _measure_fleet(snapshot, index, payloads) -> Dict[str, float]:
    """QPS/latency of a real coordinator + shard subprocess fleet."""
    data_partitions = [
        partition.partition_id for partition in index.tree.partitions
        if partition.point_count > 0
    ]
    fleet = []
    try:
        shards = launch_shards(snapshot, data_partitions)
        fleet.extend(shards)
        coordinator = launch_coordinator(
            snapshot, {shard.partition_id: shard.url for shard in shards}
        )
        fleet.append(coordinator)
        summary = generate_load(coordinator.url, payloads, threads=CLIENT_THREADS)
        summary["shard_processes"] = float(len(shards))
        return summary
    finally:
        shutdown_processes(fleet)


def _measure_single(index, tmp_path, tag: str, payloads) -> Dict[str, float]:
    """The baseline: the same index behind one in-process full server."""
    live = IngestingIndex(index, tmp_path / f"baseline-wal-{tag}.jsonl")
    app = ServerApp(live, workers=4, background_compaction=False)
    with AsyncSemTreeServer(app).serve_background() as server:
        summary = generate_load(server.url, payloads, threads=CLIENT_THREADS)
    summary["shard_processes"] = 0.0
    return summary


def _assert_same_answers(snapshot, index, payloads) -> None:
    """The fleet's distances must equal the single server's, payload by payload."""
    data_partitions = [
        partition.partition_id for partition in index.tree.partitions
        if partition.point_count > 0
    ]
    fleet = []
    try:
        shards = launch_shards(snapshot, data_partitions)
        fleet.extend(shards)
        coordinator = launch_coordinator(
            snapshot, {shard.partition_id: shard.url for shard in shards}
        )
        fleet.append(coordinator)
        live = IngestingIndex(index, snapshot.parent / "oracle-wal.jsonl")
        app = ServerApp(live, workers=2, background_compaction=False)
        with AsyncSemTreeServer(app).serve_background() as baseline:
            sharded_client = ServerClient(coordinator.url)
            baseline_client = ServerClient(baseline.url)
            for path, body in payloads[:16]:
                sharded = sharded_client.request("POST", path, body)
                single = baseline_client.request("POST", path, body)
                assert sharded["error"] is None and single["error"] is None
                got = [round(m["distance"], 9) for m in sharded["matches"]]
                want = [round(m["distance"], 9) for m in single["matches"]]
                assert got == want, (path, body, got, want)
    finally:
        shutdown_processes(fleet)


# -- pytest-benchmark case ----------------------------------------------------------------

@pytest.mark.benchmark(group="sharded-throughput")
def test_fleet_round_trips(benchmark, tmp_path):
    index, triples = _build_corpus_index(SHARD_COUNTS[0])
    snapshot = _checkpoint(index, triples, tmp_path, "bench")
    payloads = query_payloads(triples, REQUEST_COUNT, k=3, radius=0.15,
                              repeat_fraction=0.3, seed=17)
    data_partitions = [
        partition.partition_id for partition in index.tree.partitions
        if partition.point_count > 0
    ]
    fleet = []
    try:
        shards = launch_shards(snapshot, data_partitions)
        fleet.extend(shards)
        coordinator = launch_coordinator(
            snapshot, {shard.partition_id: shard.url for shard in shards}
        )
        fleet.append(coordinator)
        benchmark.pedantic(
            lambda: generate_load(coordinator.url, payloads, threads=CLIENT_THREADS),
            rounds=2 if QUICK else 3, iterations=1,
        )
    finally:
        shutdown_processes(fleet)


# -- the report itself --------------------------------------------------------------------

def test_report_sharded_throughput(results_dir, tmp_path):
    experiment = Experiment(
        experiment_id="sharded_throughput",
        description="Scatter-gather deployment: coordinator + per-partition "
                    f"shard processes vs one server, over {REQUEST_COUNT} mixed "
                    "k-NN/range requests, vs shard count",
        swept_parameter="shard_count",
    )

    prepared = {}
    for shard_count in SHARD_COUNTS:
        index, triples = _build_corpus_index(shard_count)
        snapshot = _checkpoint(index, triples, tmp_path, f"n{shard_count}")
        payloads = query_payloads(triples, REQUEST_COUNT, k=3, radius=0.15,
                                  repeat_fraction=0.3, seed=17)
        prepared[shard_count] = (index, snapshot, payloads)

    # Correctness first: the fleet answers exactly like the single server.
    index, snapshot, payloads = prepared[SHARD_COUNTS[0]]
    _assert_same_answers(snapshot, index, payloads)

    experiment.run_sweep(
        "coordinator", SHARD_COUNTS,
        lambda count: _measure_fleet(prepared[int(count)][1],
                                     prepared[int(count)][0],
                                     prepared[int(count)][2]),
    )
    experiment.run_sweep(
        "single_server", SHARD_COUNTS,
        lambda count: _measure_single(prepared[int(count)][0], tmp_path,
                                      f"n{int(count)}",
                                      prepared[int(count)][2]),
    )

    for series_name in ("coordinator", "single_server"):
        series = experiment.series[series_name]
        assert all(count == REQUEST_COUNT for count in series.values("requests"))
        assert all(qps > 0 for qps in series.values("qps"))

    write_report(results_dir, experiment,
                 ["qps", "latency_ms_p50", "latency_ms_p99", "shard_processes"])
