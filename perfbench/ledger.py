"""The per-layer ledger: spans joined with client latency, self time per layer.

Every traced request gets a tree: its root is the client-side span (send →
last response byte), below it the server-side spans recorded under the same
request id, from every process the request touched.  A span's parent is
the enclosing recorded span on its own thread; a span opened on another
thread (engine worker, scatter pool, shard process) hangs under the
smallest span of the same request whose interval contains it.  A layer's
self time is its span's duration minus the union of its children's
intervals, so the self times of one request add up to its client latency
(exactly, unless sibling spans overlap in parallel, as the per-partition
scans of a sharded query do).

Because that sum holds by construction, the check that can fail is made
inside the server: the share of each ``server.handle`` span that the
named layers below it explain.  Time in code no span wraps stays in the
handler's self time and lowers it; a request whose spans lost their
request id has no handler span at all and is counted as not joined.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: Span name → per-layer metric its self time is reported as.
SELF_TIME_METRICS = {
    "client": "server.edge_us",
    "server.handle": "server.app_us",
    "server.parse": "server.parse_us",
    "server.render": "server.render_us",
    "service.batch": "service.batch_us",
    "service.plan": "service.plan_us",
    "embedding.project": "embedding.project_us",
    "cluster.bus": "cluster.bus_us",
    "ingest.overlay": "ingest.overlay_us",
    "coordinator.scatter": "coordinator.scatter_us",
    "coordinator.scan": "coordinator.scan_us",
    "shard.handle": "coordinator.shard_server_us",
}
#: Self times averaged over the requests of one kind only.
KIND_METRICS = {
    "core.search.knn": ("knn", "core.search_us.knn"),
    "core.search.range": ("range", "core.search_us.range"),
    "ingest.insert": ("insert", "ingest.insert_us"),
    "ingest.wal_append": ("insert", "ingest.wal_append_us"),
}
#: Tolerance of the per-request sum: self times add up to client latency.
SUM_TOLERANCE = 0.05
#: A traced run fails when the named layers explain less than this share of
#: the median request's handler time.
HANDLER_COVERAGE_MIN = 0.9


def load_spans(paths: Iterable) -> List[tuple]:
    """Every recorded span, keyed ``(file index, span id)`` to keep processes apart."""
    spans = []
    for process, path in enumerate(paths):
        with open(path) as source:
            for line in source:
                span_id, parent, request, name, start, end, _thread, extra = json.loads(line)
                spans.append(((process, span_id),
                              (process, parent) if parent is not None else None,
                              request, name, start, end, extra or {}))
    return spans


def _union(intervals: List[Tuple[float, float]]) -> float:
    total, current_start, current_end = 0.0, None, None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def request_tree(root: Tuple[float, float], spans: Sequence[tuple]) -> Dict[str, float]:
    """Self time (seconds) per span name for one request, the root named ``client``."""
    keys = {span[0] for span in spans}
    by_size = sorted(spans, key=lambda span: span[5] - span[4])
    children: Dict[object, List[Tuple[float, float]]] = defaultdict(list)
    for key, parent, _request, _name, start, end, _extra in spans:
        if parent is None or parent not in keys:
            parent = "client"
            for other in by_size:
                if (other[0] != key and other[4] <= start and end <= other[5]
                        and other[5] - other[4] > end - start):
                    parent = other[0]
                    break
        children[parent].append((start, end))
    selves: Dict[str, float] = defaultdict(float)
    for key, _parent, _request, name, start, end, _extra in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(key, ())]
        selves[name] += (end - start) - _union([c for c in clipped if c[1] > c[0]])
    start, end = root
    clipped = [(max(s, start), min(e, end)) for s, e in children["client"]]
    selves["client"] = (end - start) - _union([c for c in clipped if c[1] > c[0]])
    return selves


def build(samples: Sequence, spans: Sequence[tuple]) -> Dict[str, object]:
    """Per-layer self times (µs per request) and the coverage checks."""
    by_request: Dict[str, List[tuple]] = defaultdict(list)
    for span in spans:
        if span[2] is not None:
            by_request[span[2]].append(span)
    totals: Dict[str, float] = defaultdict(float)
    per_kind: Dict[str, int] = defaultdict(int)
    sums: List[float] = []
    handler: List[float] = []
    for sample in samples:
        own = by_request.get(sample.request_id, ())
        tree = request_tree((sample.started, sample.ended), own)
        kind = sample.kind
        per_kind[kind] += 1
        for name, seconds in tree.items():
            totals[(kind, name)] += seconds
        if kind == "insert":
            continue
        sums.append(sum(tree.values()) / (sample.ended - sample.started))
        handled = sum(span[5] - span[4] for span in own if span[3] == "server.handle")
        if handled > 0:
            handler.append(1.0 - tree["server.handle"] / handled)
    queries = per_kind["knn"] + per_kind["range"]
    metrics: Dict[str, float] = {}
    for name, metric in SELF_TIME_METRICS.items():
        seconds = totals[("knn", name)] + totals[("range", name)]
        metrics[metric] = seconds / queries * 1e6 if queries else 0.0
    for name, (kind, metric) in KIND_METRICS.items():
        count = per_kind[kind]
        metrics[metric] = totals[(kind, name)] / count * 1e6 if count else 0.0
    within = sum(1 for ratio in sums if abs(ratio - 1.0) <= SUM_TOLERANCE)
    return {
        "metrics": metrics,
        "handler_coverage": statistics.median(handler) if handler else 0.0,
        "handled_queries": len(handler),
        "sum_within_tolerance": within / len(sums) if sums else 0.0,
        "requests": dict(per_kind),
    }


def compactions(spans: Sequence[tuple], window: Tuple[float, float]) -> List[float]:
    """Durations (seconds) of the compactions that folded points inside ``window``."""
    start, end = window
    return [span[5] - span[4] for span in spans
            if span[3] == "ingest.compact" and span[6].get("folded")
            and start <= span[4] <= end]


def span_counts(spans: Sequence[tuple], requests: Sequence[str]) -> Dict[str, float]:
    """Host-independent counts from the spans of the given requests."""
    wanted = set(requests)
    counts: Dict[str, float] = defaultdict(float)
    for _key, _parent, request, name, _start, _end, extra in spans:
        if request not in wanted:
            continue
        if name == "embedding.project":
            counts["distance_evals"] += extra.get("distance_evals", 0)
        elif name.startswith("core.search."):
            counts["nodes_visited"] += extra.get("nodes", 0)
            counts["partitions_visited"] += extra.get("partitions", 0)
        elif name == "cluster.bus":
            counts["bus_messages"] += 1
    return dict(counts)
