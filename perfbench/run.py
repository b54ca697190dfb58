"""One benchmark for the SemTree serving path.

Usage::

    python3 perfbench/run.py --workload query-novel --seed 1 --seconds 30 --trace 0

Each run builds the corpus index, checkpoints it, boots the real server CLI
(or a coordinator + shard fleet) from the checkpoint, drives it closed-loop
from this process, checks answers against an in-process oracle and prints
its metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer ledger with ``--trace 1``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import pathlib
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

SETUP_REPEATS = 2
WARMUP_S = 1.0
COUNT_PASS = 200
ORACLE_SAMPLE = 100
ZIPF_DRAWS = 60000
#: Before timing, the Zipf pool's most popular requests are sent once each,
#: least popular first, so the caches hold the hot set when the clock starts
#: (they cover ~83% of the draws).  Without it a 15 s phase is still warming
#: its caches: throughput rose 2-3x from the first slice to the last.
ZIPF_WARM = 2048
#: Laps of the novel request design per connection (~1250 requests each):
#: more than a connection sends in a run at today's speed.
NOVEL_LAPS = 12
#: The timed phase is reported as the median over this many equal slices.
WINDOWS = 5
#: Slices in which the hypervisor took more than this share of the host's
#: CPU time are left out of the medians.  Under the benchmark's own load
#: steal reads ~0.005-0.03 on a shared 2-core VM; slices at 0.05-0.07 ran
#: ~30% slower, and episodes of 0.1-0.3 halved throughput for minutes.
STEAL_LIMIT = 0.04
#: Traced runs of read-only workloads end with this many sequential inserts,
#: so the ingest layer (insert, WAL append, one compaction) is measured on
#: every workload.
PROBE_INSERTS = 300


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is in BENCHMARK.json and the README."""

    name: str
    readers: int
    stream: str  # "novel" or "zipf"
    writer: bool = False
    sharded: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("query-novel", 2, "novel"),
    Workload("query-zipf", 2, "zipf"),
    Workload("ingest-mixed", 1, "zipf", writer=True),
    Workload("sharded-novel", 1, "novel", sharded=True),
)}

END_TO_END_UNITS = {
    "setup_s": "s", "query_qps": "1/s", "knn_p50_ms": "ms", "knn_p99_ms": "ms",
    "range_p50_ms": "ms", "range_p99_ms": "ms", "server_rss_mb": "MiB",
}
LAYER_UNITS = {
    "server.edge_us": "us", "server.app_us": "us", "server.parse_us": "us",
    "server.render_us": "us", "server.response_bytes_per_query": "bytes",
    "server.wire_cache_hit_ratio": "ratio",
    "service.batch_us": "us", "service.plan_us": "us", "service.queue_wait_us": "us",
    "service.cache_hit_ratio": "ratio", "service.cache_evictions": "count",
    "service.overlay_retries": "count",
    "embedding.project_us": "us", "embedding.distance_evals_per_query": "count",
    "embedding.fit_s": "s", "embedding.fit_distance_evals": "count",
    "core.search_us.knn": "us", "core.search_us.range": "us", "core.build_s": "s",
    "core.distance_computations": "count", "core.buckets_scanned": "count",
    "core.scalar_fallbacks": "count", "core.nodes_visited": "count",
    "core.partitions_visited": "count",
    "cluster.messages_per_query": "count", "cluster.bus_us": "us",
    "ingest.insert_us": "us", "ingest.wal_append_us": "us",
    "ingest.wal_bytes_per_insert": "bytes", "ingest.compactions": "count",
    "ingest.compact_ms": "ms", "ingest.overlay_us": "us",
    "ingest.delta_points_mean": "count", "ingest.insert_ips": "1/s",
    "ingest.insert_p50_ms": "ms", "ingest.insert_p99_ms": "ms",
    "coordinator.partitions_contacted_per_query": "count",
    "coordinator.scatter_us": "us", "coordinator.scan_us": "us",
    "coordinator.shard_server_us": "us", "coordinator.retries": "count",
    "workloads.client_cpu_ratio": "ratio", "workloads.failed_ratio": "ratio",
    "obs.tracing_overhead_ratio": "ratio", "obs.ledger_coverage": "ratio",
    "obs.spans_joined_ratio": "ratio",
}


def fail_setup(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    fail_setup(f"no repro sources under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import client  # noqa: E402
import corpus  # noqa: E402
import fleet  # noqa: E402
import ledger  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402


# -- server-side counters ------------------------------------------------------------------

def scrape(url: str) -> Dict[str, object]:
    """The exported counters: Prometheus samples plus the JSON metrics payload."""
    samples: Dict[str, float] = {}
    for line in client.fetch(url, "/v1/metrics?format=prometheus").decode().splitlines():
        if line and not line.startswith("#"):
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
    return {"prom": samples, "json": json.loads(client.fetch(url, "/v1/metrics"))}


def delta(before: Dict, after: Dict, name: str) -> float:
    return after["prom"].get(name, 0.0) - before["prom"].get(name, 0.0)


def cost_deltas(before: Dict, after: Dict) -> Dict[str, float]:
    prefix = "repro_query_cost_total{counter=\""
    return {key[len(prefix):-2]: value - before["prom"].get(key, 0.0)
            for key, value in after["prom"].items() if key.startswith(prefix)}


def fanout(before: Dict, after: Dict) -> Dict[str, float]:
    """Coordinator scatter counts (queries, partition scans, retries) between scrapes."""
    def read(scrape_: Dict) -> Dict[str, float]:
        shards = scrape_["json"].get("shards") or {}
        failover = shards.get("failover") or {}
        return {"queries": shards.get("queries", 0), "scans": shards.get("scans", 0),
                "retries": sum(p.get("retries", 0) for p in failover.values())}
    first, second = read(before), read(after)
    return {key: second[key] - first[key] for key in second}


# -- the phases of a run -------------------------------------------------------------------

@dataclass
class Fleet:
    processes: List[fleet.ServerProcess]

    @property
    def url(self) -> str:
        return self.processes[-1].url

    def rss_mb(self) -> float:
        return sum(process.peak_rss_mb() for process in self.processes)

    def stop(self) -> None:
        fleet.stop_all(self.processes)


def boot(workload: Workload, setup: corpus.Setup,
         spans_dir: Optional[pathlib.Path]) -> Fleet:
    if workload.sharded:
        partitions = [p.partition_id for p in setup.index.tree.partitions
                      if p.point_count > 0]
        return Fleet(fleet.boot_sharded(setup.snapshot, partitions, spans_dir))
    spans = spans_dir / "spans-server.jsonl" if spans_dir else None
    return Fleet([fleet.boot_server(setup.snapshot, setup.wal, spans)])


class Streams:
    """Every operation a run sends, derived from the seed alone.

    Every server of a run gets the same operations: its count pass is the
    first ``COUNT_PASS`` of them, one at a time, and its connections go on
    from there (:meth:`rewind`).
    """

    def __init__(self, workload: Workload, setup: corpus.Setup, seed: int,
                 groups: List[List]):
        self.seed = seed
        rng = random.Random(seed)
        self.warm_ops: List[List[client.Operation]] = []
        if workload.stream == "novel":
            readers = [client.as_operations(stream) for stream in corpus.novel_streams(
                groups, seed, workload.readers, NOVEL_LAPS)]
            self.working_set = {"requests": None, "keys": 2 * len(groups)}
        else:
            # The pool and its popularity ranks are the same for every seed,
            # which only draws from it: a seed-drawn hot set moved qps by 20%.
            pool = corpus.novel_streams(groups, corpus.CORPUS_SEED, 1, 2)[0]
            group_of = {triple: g for g, members in enumerate(groups) for triple in members}
            pool_ops = client.as_operations(pool)
            zipf = corpus.ZipfStream(pool_ops, rng.randrange(1 << 30))
            readers = [zipf.draw(ZIPF_DRAWS) for _ in range(workload.readers)]
            self.working_set = {
                "requests": len(pool),
                "keys": len({(kind, group_of[triple]) for kind, triple in pool}),
            }
            warm = pool_ops[:ZIPF_WARM][::-1]
            self.warm_ops = [warm[i::workload.readers] for i in range(workload.readers)]
        count = COUNT_PASS // 2 if workload.writer else COUNT_PASS
        start = count // workload.readers
        self.count_ops: List[client.Operation] = [
            op for ops in zip(*(stream[:start] for stream in readers)) for op in ops]
        self.readers = [client.Stream(stream, start) for stream in readers]
        triples = list(setup.corpus.novel)
        rng.shuffle(triples)
        inserts = [client.Operation.of("insert", t) for t in triples]
        self.probe_ops = [] if workload.writer or workload.sharded \
            else inserts[:PROBE_INSERTS]
        self.writer: Optional[client.Stream] = None
        if workload.writer:
            self.count_ops = [op for pair in zip(inserts[:count], self.count_ops)
                              for op in pair]
            self.writer = client.Stream(inserts, count)

    def rewind(self) -> None:
        for stream in self.readers + ([self.writer] if self.writer else []):
            stream.rewind()

    @property
    def wraps(self) -> int:
        streams = self.readers + ([self.writer] if self.writer else [])
        return sum(stream.wraps for stream in streams)


def normalised_bytes(body: bytes) -> int:
    """Response bytes without the server-measured ``latency_ms`` digits."""
    match = re.search(rb'"latency_ms": ([-0-9.eE+]+)', body)
    return len(body) - (len(match.group(1)) if match else 0)


@dataclass
class Phase:
    warmup: client.Outcome
    outcome: client.Outcome
    rss_mb: float
    before: Dict
    after: Dict


def count_pass(fleet_: Fleet, streams: Streams, tag: str):
    before = scrape(fleet_.url)
    outcome, bodies = client.sequential(fleet_.url, streams.count_ops, tag)
    after = scrape(fleet_.url)
    return outcome, bodies, before, after


def timed(fleet_: Fleet, workload: Workload, streams: Streams, seconds: float,
          tag: str) -> Phase:
    warmup = client.closed_loop(fleet_.url, streams.readers, WARMUP_S, f"w{tag}",
                                writer=streams.writer)
    before = scrape(fleet_.url)
    outcome = client.closed_loop(fleet_.url, streams.readers, seconds, tag,
                                 writer=streams.writer, windows=WINDOWS)
    rss = fleet_.rss_mb()
    after = scrape(fleet_.url)
    return Phase(warmup, outcome, rss, before, after)


def latency_metrics(*outcomes: client.Outcome) -> Dict[str, float]:
    """Rates and latency percentiles of closed-loop phases.

    Each phase is cut into ``WINDOWS`` equal slices (a sample belongs to the
    slice its reply arrived in).  Slices in which the host's CPU steal
    exceeded ``STEAL_LIMIT`` are left out; when that leaves fewer than half,
    the least-stolen half is used and ``host_steady`` reads 0.  Rates are
    the median over the slices kept, so a burst of interference from
    outside the benchmark moves a slice, not the run; percentiles are taken
    over all samples of the slices kept, so that p99 has ~30 samples beyond
    it on the slowest workload.
    """
    slices: List[Tuple[List[client.Sample], float, float]] = []
    for outcome in outcomes:
        times = [moment for moment, _ in outcome.boundaries]
        parts: List[List[client.Sample]] = [[] for _ in times[1:]]
        for sample in outcome.samples:
            slot = bisect.bisect_right(times, sample.ended) - 1
            parts[min(max(slot, 0), len(parts) - 1)].append(sample)
        for part, (start, ticks), (end, later) in zip(
                parts, outcome.boundaries, outcome.boundaries[1:]):
            steal = client.steal_ratio(ticks, later)
            slices.append((part, end - start, 0.0 if steal is None else steal))
    kept = [part for part in slices if part[2] <= STEAL_LIMIT]
    steady = 2 * len(kept) >= len(slices)
    if not steady:
        kept = sorted(slices, key=lambda part: part[2])[:(len(slices) + 1) // 2]
    metrics: Dict[str, float] = {}
    for kind in ("knn", "range", "insert"):
        values = [(s.ended - s.started) * 1e3 for part, _, _ in kept
                  for s in part if s.kind == kind]
        if values:
            for name, fraction in (("p50", 0.50), ("p90", 0.90), ("p99", 0.99)):
                metrics[f"{kind}_{name}_ms"] = client.percentile(values, fraction)
            metrics[f"{kind}_samples"] = len(values)
    metrics["query_qps"] = statistics.median(
        sum(1 for s in part if s.kind != "insert") / width for part, width, _ in kept)
    metrics["insert_ips"] = statistics.median(
        sum(1 for s in part if s.kind == "insert") / width for part, width, _ in kept)
    metrics["slices_kept"] = len(kept)
    metrics["slices_stolen"] = sum(1 for part in slices if part[2] > STEAL_LIMIT)
    metrics["slices"] = len(slices)
    metrics["host_steady"] = int(steady)
    metrics["host_steal_ratio"] = statistics.median(part[2] for part in slices)
    metrics["slice_steal"] = [round(part[2], 4) for part in slices]
    metrics["slice_qps"] = [round(sum(1 for s in part if s.kind != "insert") / width, 1)
                            for part, width, _ in slices]
    return metrics


def deterministic_counts(workload: Workload, operations, outcome, bodies, before,
                         after, wal: Optional[pathlib.Path]) -> Dict[str, float]:
    """Counts of the sequential count pass, normalised per query (or insert)."""
    queries = sum(1 for s in outcome.samples if s.kind != "insert")
    inserts = len(outcome.samples) - queries
    counts: Dict[str, float] = {"queries": queries, "inserts": inserts}
    for name, value in cost_deltas(before, after).items():
        counts[f"cost.{name}"] = value / queries
    counts["executed_per_query"] = delta(before, after,
                                         "repro_queries_executed_total") / queries
    counts["cache_hits"] = delta(before, after, "repro_cache_hits_total")
    counts["wire_cache_hits"] = delta(before, after, "repro_wire_cache_hits_total")
    query_bodies = [body for op, body in zip(operations, bodies)
                    if op.kind != "insert" and body is not None]
    counts["response_bytes_per_query"] = (
        sum(normalised_bytes(body) for body in query_bodies) / queries)
    if workload.sharded:
        scatter = fanout(before, after)
        counts["partitions_contacted_per_query"] = scatter["scans"] / queries
    if wal is not None and inserts:
        counts["wal_bytes_per_insert"] = wal.stat().st_size / inserts
    return counts


def compare_counts(workload: Workload, first: Dict[str, float],
                   second: Dict[str, float]) -> Optional[str]:
    """Read-only workloads: two fresh servers must count the same for one seed."""
    if workload.writer:
        return None
    differing = {key: (first[key], second[key]) for key in first
                 if key in second and first[key] != second[key]}
    if differing:
        return f"host-independent counts did not repeat across servers: {differing}"
    return None


def source_digest(*directories: str) -> str:
    """SHA-256 over every Python file under the given directories of the checkout."""
    digest = hashlib.sha256()
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def key_groups(setup: corpus.Setup) -> List[List]:
    """:func:`corpus.key_groups`, kept under ``.perfbench/cache`` per version of
    the program and of the benchmark: its ~2200 projections take ~4.5 s."""
    from repro.io.serialization import triple_from_dict, triple_to_dict

    path = STATE / "cache" / f"groups-{source_digest('src', 'perfbench')}.json"
    if path.is_file():
        return [[triple_from_dict(triple) for triple in group]
                for group in json.loads(path.read_text())]
    groups = corpus.key_groups(setup.corpus, setup.index)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.{os.getpid()}")
    partial.write_text(json.dumps([[triple_to_dict(triple) for triple in group]
                                   for group in groups]))
    partial.replace(path)
    return groups


# -- provenance ------------------------------------------------------------------------------

def provenance(workload: Workload, seed: int, setup: corpus.Setup) -> Dict[str, object]:
    import inspect

    import numpy

    from repro.ingest.wal import WriteAheadLog
    from repro.server.__main__ import build_parser
    from repro.server.async_http import AsyncSemTreeServer
    from repro.server.factory import resolve_transport

    defaults = build_parser().parse_args(["--snapshot", "-"])
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    fsync = inspect.signature(WriteAheadLog).parameters["fsync"].default
    wire_capacity = inspect.signature(AsyncSemTreeServer).parameters[
        "wire_cache_capacity"].default
    return {
        "workload": workload.name, "seed": seed, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_sha": sha, "source_sha256": source_digest("src"),
        "transport": resolve_transport(None),
        "engine_workers": defaults.workers,
        "engine_cache_capacity": defaults.cache_capacity,
        "wire_cache": not defaults.no_wire_cache and not workload.sharded,
        "wire_cache_capacity": wire_capacity,
        "wal_fsync": fsync,
        "durability": "fsync" if fsync else "process-crash only",
        "compaction_threshold": defaults.compaction_threshold,
        "corpus_points": len(setup.index),
        "novel_triples": len(setup.corpus.novel),
        "connections": workload.readers + (1 if workload.writer else 0),
        "shard_processes": 2 if workload.sharded else 0,
    }


# -- the run ----------------------------------------------------------------------------------

def set_up(workload: Workload, directory: pathlib.Path,
           spans_dir: Optional[pathlib.Path]):
    started = time.perf_counter()
    setup = corpus.prepare(directory)
    fleet_ = boot(workload, setup, spans_dir)
    return setup, fleet_, time.perf_counter() - started


@dataclass
class Measured:
    """One booted server instance, measured: count pass, timed phase, checks."""

    counts: Dict[str, float]
    count_outcome: client.Outcome
    phase: Phase
    phases: List[client.Outcome]
    problems: List[str]


def measure(fleet_: Fleet, workload: Workload, setup: corpus.Setup,
            streams: Streams, seconds: float) -> Measured:
    """Count pass (oracle-checked on read-only workloads), warm-up, timed phase."""
    problems: List[str] = []
    streams.rewind()
    outcome, bodies, before, after = count_pass(fleet_, streams, "count")
    counts = deterministic_counts(workload, streams.count_ops, outcome, bodies,
                                  before, after,
                                  None if workload.sharded else setup.wal)
    if not workload.writer:
        checks = [(op.kind, op.triple, body)
                  for op, body in zip(streams.count_ops, bodies)]
        problems += oracle.check_all(oracle.Oracle(setup.index), checks)
    warm = client.concurrent(fleet_.url, streams.warm_ops, "warm")
    phase = timed(fleet_, workload, streams, seconds, "t")
    phases = [outcome, warm, phase.warmup, phase.outcome]
    if workload.writer:
        problems += ingest_oracle(fleet_, setup, streams, phases, streams.seed)
    return Measured(counts, outcome, phase, phases, problems)


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        work: pathlib.Path) -> int:
    """Untraced: set up ``SETUP_REPEATS`` times and measure every server for an
    equal share of ``seconds``.  Traced: set up once, measure it untraced for
    ``seconds``, then a traced server from a fresh checkpoint for ``seconds``."""
    build_recorder = None
    if trace:
        build_recorder = tracer.SpanRecorder()
        tracer.install_build(build_recorder)
    repeats = 1 if trace else SETUP_REPEATS
    setup_times: List[float] = []
    measured: List[Measured] = []
    streams = prov = None
    for repeat in range(repeats):
        setup, fleet_, elapsed = set_up(workload, work / f"setup{repeat}", None)
        setup_times.append(elapsed)
        try:
            if streams is None:
                streams = Streams(workload, setup, seed, key_groups(setup))
                prov = provenance(workload, seed, setup)
            measured.append(measure(fleet_, workload, setup, streams,
                                    seconds / repeats))
        finally:
            fleet_.stop()

    timed_outcomes = [m.phase.outcome for m in measured]
    e2e = latency_metrics(*timed_outcomes)
    e2e["setup_s"] = statistics.median(setup_times)
    e2e["server_rss_mb"] = max(m.phase.rss_mb for m in measured)
    e2e["client_cpu_ratio"] = (sum(o.client_cpu_seconds for o in timed_outcomes)
                               / sum(o.seconds for o in timed_outcomes))
    phases = [outcome for m in measured for outcome in m.phases]
    totals = client.merge(*phases)
    e2e["failed_ratio"] = totals.failed / max(totals.attempted, 1)
    prov.update(cache_ratios(*(m.phase for m in measured)))
    prov["working_set"] = streams.working_set
    prov["stream_wraps"] = streams.wraps
    for name in ("host_steal_ratio", "host_steady", "slices_kept", "slices_stolen", "slices",
                 "slice_steal", "slice_qps"):
        prov[name] = e2e[name]
    if not e2e["host_steady"]:
        print(f"warning: host CPU steal above {STEAL_LIMIT:.0%} in "
              f"{e2e['slices_stolen']} of {e2e['slices']} slices; "
              "this run measures the host more than the program")
    problems = [problem for m in measured for problem in m.problems]
    counts = measured[0].counts

    report: Dict[str, object] = {}
    if trace:
        metrics, ledger_summary, traced, traced_phases, traced_problems = traced_phase(
            workload, setup, streams, seconds, work, e2e, build_recorder, counts)
        problems += traced_problems
        repeat_check = compare_counts(workload, counts, traced.counts)
        totals = client.merge(*phases, *traced_phases)
        report["per_layer"] = metrics
        report["ledger"] = ledger_summary
    else:
        metrics = {name: e2e[name] for name in END_TO_END_UNITS}
        repeat_check = compare_counts(workload, counts, measured[-1].counts)
    if repeat_check:
        problems.append(repeat_check)
    report.update(provenance=prov, end_to_end=e2e, counts=counts,
                  setup_times_s=setup_times,
                  failures={k: vars(v) for k, v in totals.tallies.items()},
                  problems=problems)
    emit(workload, seed, trace, report, metrics, totals, problems)
    return 1 if problems else 0


def cache_ratios(*phases: Phase) -> Dict[str, float]:
    def total(name: str) -> float:
        return sum(delta(phase.before, phase.after, name) for phase in phases)

    hits, misses = total("repro_cache_hits_total"), total("repro_cache_misses_total")
    wire_hits = total("repro_wire_cache_hits_total")
    wire_misses = total("repro_wire_cache_misses_total")
    return {
        "engine_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "engine_cache_evictions": total("repro_cache_evictions_total"),
        "wire_cache_hit_ratio": (wire_hits / (wire_hits + wire_misses)
                                 if wire_hits + wire_misses else 0.0),
    }


def ingest_oracle(fleet_: Fleet, setup: corpus.Setup, streams: Streams,
                  phases: List[client.Outcome], seed: int) -> List[str]:
    """After the timed phase: sampled answers over the index plus every acknowledged insert."""
    acknowledged = [triple for outcome in phases for _, triple in outcome.acknowledged]
    rng = random.Random(seed ^ 0x5EED)
    sample = rng.sample(acknowledged, min(len(acknowledged), ORACLE_SAMPLE // 2))
    operations = [client.Operation.of("knn" if i % 2 else "range", triple)
                  for i, triple in enumerate(sample)]
    operations += rng.sample(streams.readers[0].operations, ORACLE_SAMPLE // 2)
    outcome, bodies = client.sequential(fleet_.url, operations, "oracle")
    phases.append(outcome)
    checks = [(op.kind, op.triple, body) for op, body in zip(operations, bodies)]
    return oracle.check_all(oracle.Oracle(setup.index, acknowledged), checks)


def coordinator_pass(setup: corpus.Setup, streams: Streams, work: pathlib.Path,
                     spans_dir: pathlib.Path):
    """The count pass once more, through a traced coordinator over one traced
    shard process per partition booted from a fresh checkpoint, oracle-checked.

    It ends the traced run of every single-node workload, so the coordinator
    layer is measured on the workloads ``BENCHMARK.json`` runs.
    """
    operations = [op for op in streams.count_ops if op.kind != "insert"]
    snapshot, _ = corpus.checkpoint(setup.index, setup.corpus, work / "sharded")
    partitions = [p.partition_id for p in setup.index.tree.partitions if p.point_count > 0]
    processes = fleet.boot_sharded(snapshot, partitions, spans_dir)
    try:
        url = processes[-1].url
        before = scrape(url)
        outcome, bodies = client.sequential(url, operations, "shard")
        after = scrape(url)
    finally:
        fleet.stop_all(processes)
    checks = [(op.kind, op.triple, body) for op, body in zip(operations, bodies)]
    problems = oracle.check_all(oracle.Oracle(setup.index), checks)
    return outcome, fanout(before, after), problems


def traced_phase(workload, setup, streams, seconds, work, e2e, build_recorder, counts):
    """Boot the traced fleet from a fresh checkpoint and measure the ledger."""
    fresh = corpus.Setup(setup.corpus, setup.index, *corpus.checkpoint(
        setup.index, setup.corpus, work / "traced"), setup.build_seconds)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    fleet_ = boot(workload, fresh, spans_dir)
    try:
        traced = measure(fleet_, workload, fresh, streams, seconds)
        probe, _ = client.sequential(fleet_.url, streams.probe_ops, "probe")
        wal_bytes = counts.get("wal_bytes_per_insert", 0.0)
        if probe.samples:
            wal_bytes = fresh.wal.stat().st_size / len(probe.samples)
    finally:
        fleet_.stop()
    problems = list(traced.problems)
    sharded = None
    if not workload.sharded:
        sharded = coordinator_pass(setup, streams, work, spans_dir)
        problems += sharded[2]
    phase, outcome = traced.phase, traced.count_outcome
    spans = ledger.load_spans(sorted(spans_dir.glob("spans-*.jsonl")))
    layers = ledger.build(phase.outcome.samples + probe.samples, spans)
    query_ids = [s.request_id for s in outcome.samples if s.kind != "insert"]
    from_spans = ledger.span_counts(spans, query_ids)
    queries = max(len(query_ids), 1)
    build_spans = [s for s in build_recorder.spans if s[3] == "embedding.fit"]
    ratios = cache_ratios(phase)
    traced_e2e = latency_metrics(phase.outcome)
    writes = phase.outcome if workload.writer else probe
    window = (min(s.started for s in writes.samples),
              max(s.ended for s in writes.samples)) if writes.samples else (0.0, 0.0)
    compactions = ledger.compactions(spans, window)
    inserts = e2e if workload.writer else latency_metrics(probe)
    overlay = [s[6].get("delta", 0) for s in spans if s[3] == "ingest.overlay"
               and s[2] is not None and s[2].startswith("t-")]
    timed_queries = sum(1 for s in phase.outcome.samples if s.kind != "insert")
    # Every query that reached the server's handler (not answered by the wire
    # cache in front of it) must have its spans joined to its request id.
    reached = timed_queries if workload.sharded else delta(
        phase.before, phase.after, "repro_wire_cache_misses_total")
    joined = layers["handled_queries"] / reached if reached else 0.0
    metrics = dict(layers["metrics"])
    metrics.update({
        "server.response_bytes_per_query": counts["response_bytes_per_query"],
        "server.wire_cache_hit_ratio": ratios["wire_cache_hit_ratio"],
        "service.queue_wait_us": _mean_us(phase, "repro_queue_wait_seconds"),
        "service.cache_hit_ratio": ratios["engine_cache_hit_ratio"],
        "service.cache_evictions": ratios["engine_cache_evictions"],
        "service.overlay_retries": delta(phase.before, phase.after,
                                         "repro_overlay_retries_total"),
        "embedding.distance_evals_per_query": from_spans.get("distance_evals", 0) / queries,
        "embedding.fit_s": sum(s[5] - s[4] for s in build_spans),
        "embedding.fit_distance_evals": sum((s[7] or {}).get("distance_evals", 0)
                                            for s in build_spans),
        "core.build_s": setup.build_seconds,
        "core.distance_computations": counts.get("cost.distance_computations", 0.0),
        "core.buckets_scanned": counts.get("cost.buckets_scanned", 0.0),
        "core.scalar_fallbacks": counts.get("cost.scalar_fallbacks", 0.0),
        "core.nodes_visited": from_spans.get("nodes_visited", 0) / queries,
        "core.partitions_visited": from_spans.get("partitions_visited", 0) / queries,
        "cluster.messages_per_query": from_spans.get("bus_messages", 0) / queries,
        "ingest.wal_bytes_per_insert": wal_bytes,
        "ingest.compactions": len(compactions),
        "ingest.compact_ms": statistics.mean(compactions) * 1e3 if compactions else 0.0,
        "ingest.delta_points_mean": statistics.mean(overlay) if overlay else 0.0,
        "ingest.insert_ips": inserts.get("insert_ips", 0.0),
        "ingest.insert_p50_ms": inserts.get("insert_p50_ms", 0.0),
        "ingest.insert_p99_ms": inserts.get("insert_p99_ms", 0.0),
        "workloads.client_cpu_ratio": e2e["client_cpu_ratio"],
        "workloads.failed_ratio": e2e["failed_ratio"],
        "obs.tracing_overhead_ratio": traced_e2e["query_qps"] / e2e["query_qps"],
        "obs.ledger_coverage": layers["handler_coverage"],
        "obs.spans_joined_ratio": joined,
    })
    if workload.sharded:
        scatter = fanout(phase.before, phase.after)
        metrics["coordinator.partitions_contacted_per_query"] = \
            counts["partitions_contacted_per_query"]
        passes = [layers]
    else:
        pass_outcome, scatter, _ = sharded
        pass_layers = ledger.build(pass_outcome.samples, spans)
        pass_queries = max(len(pass_outcome.samples), 1)
        metrics.update({name: value for name, value in pass_layers["metrics"].items()
                        if name.startswith("coordinator.")})
        metrics["coordinator.partitions_contacted_per_query"] = \
            scatter["scans"] / pass_queries
        if pass_layers["handled_queries"] != len(pass_outcome.samples):
            problems.append(f"coordinator pass: {pass_layers['handled_queries']} of "
                            f"{len(pass_outcome.samples)} queries have joined spans")
        passes = [layers, pass_layers]
    metrics["coordinator.retries"] = scatter["retries"]
    if joined < 1.0:
        problems.append(f"only {layers['handled_queries']} of {reached:.0f} queries that "
                        "reached the handler have spans joined to their request id")
    for name, part in zip(("timed phase", "coordinator pass"), passes):
        if part["handler_coverage"] < ledger.HANDLER_COVERAGE_MIN:
            problems.append(
                f"{name}: the named layers explain {part['handler_coverage']:.1%} of the "
                f"median handler time, below {ledger.HANDLER_COVERAGE_MIN:.0%}")
    spans_out = STATE / "trace" / workload.name
    if spans_out.exists():
        shutil.rmtree(spans_out)
    shutil.copytree(spans_dir, spans_out)
    summary = {key: layers[key] for key in
               ("handler_coverage", "handled_queries", "sum_within_tolerance", "requests")}
    summary["sum_tolerance"] = ledger.SUM_TOLERANCE
    summary["handler_coverage_min"] = ledger.HANDLER_COVERAGE_MIN
    if sharded is not None:
        summary["coordinator_pass"] = {key: pass_layers[key] for key in
                                       ("handler_coverage", "handled_queries", "requests")}
    phases = traced.phases + [probe] + ([sharded[0]] if sharded else [])
    return metrics, summary, traced, phases, problems


def _mean_us(phase: Phase, histogram: str) -> float:
    count = delta(phase.before, phase.after, f"{histogram}_count")
    total = delta(phase.before, phase.after, f"{histogram}_sum")
    return total / count * 1e6 if count else 0.0


def emit(workload: Workload, seed: int, trace: bool, report: Dict, metrics: Dict,
         totals: client.Outcome, problems: List[str]) -> None:
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))
    print("provenance " + json.dumps(report["provenance"], sort_keys=True))
    print("counts " + json.dumps(report["counts"], sort_keys=True))
    print("failures " + json.dumps(report["failures"], sort_keys=True))
    e2e = report["end_to_end"]
    for name in ("knn_p90_ms", "range_p90_ms", "insert_ips", "insert_p50_ms",
                 "insert_p99_ms", "failed_ratio", "client_cpu_ratio", "knn_samples",
                 "range_samples", "insert_samples", "host_steal_ratio", "slices_kept"):
        if name in e2e:
            print(f"info {name} {e2e[name]:.6g}")
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    print(f"report {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Unwind through the finally blocks, which stop every server process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = STATE / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return run(WORKLOADS[args.workload], args.seed, args.seconds,
                   bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
