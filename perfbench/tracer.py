"""Span recording around calls into the program's layers, from outside the program.

:class:`SpanRecorder` replaces a public function or method with a wrapper
that records one span per call: ``(id, parent, request, name, start, end,
thread, extras)``.  The parent is the enclosing recorded span on the same
thread; spans that start on another thread (engine workers, scatter pool)
are attached to their enclosing span later, by time containment within the
same request (:mod:`ledger`).  The request id is the trace id the program
already carries per request (``repro.obs.tracing.current_trace``), which the
benchmark's client sets through ``X-Trace-Id``.  Spans stay in memory and
are written out once, when the process ends.

``TripleDistance.__call__`` is wrapped as a counter, not a span: each span
records how many semantic-distance evaluations its thread made inside it.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.tracing import current_trace

Extras = Callable[[tuple, Any], Optional[Dict[str, Any]]]


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count_distance_calls(self, owner: type) -> None:
        original = owner.__call__
        local = self._local

        def counted(this, a, b):
            local.evaluations = getattr(local, "evaluations", 0) + 1
            return original(this, a, b)

        owner.__call__ = counted

    def wrap(self, owner: Any, attribute: str, name: str,
             extras: Optional[Extras] = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attribute``."""
        original = getattr(owner, attribute)
        spans, ids, local = self.spans, self._ids, self._local
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            span_id = next(ids)
            stack.append(span_id)
            trace = current_trace()
            evaluations = getattr(local, "evaluations", 0)
            result = None
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                ended = time.perf_counter()
                stack.pop()
                extra = extras(args, result) if extras is not None else None
                used = getattr(local, "evaluations", 0) - evaluations
                if used:
                    extra = dict(extra or {}, distance_evals=used)
                spans.append((span_id, parent, trace.trace_id if trace else None,
                              name, started, ended, threading.get_ident(), extra))

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)

    def dump(self, path) -> None:
        with open(path, "w") as out:
            for record in self.spans:
                out.write(json.dumps(record))
                out.write("\n")


# -- what the benchmark traces, per process ----------------------------------------------

def _search_extras(args, state) -> Optional[Dict[str, Any]]:
    if state is None:
        return None
    return {"nodes": state.nodes_visited,
            "partitions": len(state.visited_partition_ids)}


def _subtree_extras(args, result) -> Optional[Dict[str, Any]]:
    state = args[1]
    return {"nodes": state.nodes_visited, "partitions": 1}


def _overlay_extras(args, result) -> Dict[str, Any]:
    return {"delta": len(args[0].delta)}


def _compact_extras(args, folded) -> Dict[str, Any]:
    return {"folded": folded or 0}


def install_server(recorder: SpanRecorder) -> None:
    """Wrap every layer a single-node server, shard or coordinator runs."""
    from repro.cluster.cluster import SimulatedCluster
    from repro.coordinator import app as coordinator_app
    from repro.coordinator.sharded import ShardedIndex
    from repro.coordinator.transport import HttpShardTransport
    from repro.core.distributed import DistributedSemTree
    from repro.core.semtree import SemTreeIndex
    from repro.ingest.ingesting import IngestingIndex
    from repro.ingest.wal import WriteAheadLog
    from repro.semantics.triple_distance import TripleDistance
    from repro.server import app as server_app
    from repro.server import shard as shard_app
    from repro.service.engine import QueryEngine
    from repro.service.planner import QueryPlanner

    wrap = recorder.wrap
    recorder.count_distance_calls(TripleDistance)
    for app in (server_app.ServerApp, coordinator_app.CoordinatorApp):
        wrap(app, "handle_knn", "server.handle")
        wrap(app, "handle_range", "server.handle")
    wrap(server_app.ServerApp, "handle_insert", "server.handle")
    for module in (server_app, coordinator_app):
        wrap(module, "parse_query_request", "server.parse")
        wrap(module, "render_results", "server.render")
    wrap(shard_app.ShardApp, "handle_shard_knn", "shard.handle")
    wrap(shard_app.ShardApp, "handle_shard_range", "shard.handle")
    wrap(QueryEngine, "execute_batch", "service.batch")
    wrap(QueryPlanner, "plan_batch", "service.plan")
    wrap(SemTreeIndex, "embed_query", "embedding.project")
    wrap(DistributedSemTree, "k_nearest_state", "core.search.knn", _search_extras)
    wrap(DistributedSemTree, "range_query_state", "core.search.range", _search_extras)
    wrap(shard_app, "scan_subtree_knn", "core.search.knn", _subtree_extras)
    wrap(shard_app, "scan_subtree_range", "core.search.range", _subtree_extras)
    wrap(SimulatedCluster, "send", "cluster.bus")
    wrap(IngestingIndex, "insert", "ingest.insert")
    wrap(IngestingIndex, "compact", "ingest.compact", _compact_extras)
    wrap(IngestingIndex, "overlay_matches", "ingest.overlay", _overlay_extras)
    wrap(WriteAheadLog, "append", "ingest.wal_append")
    wrap(ShardedIndex, "search_k_nearest", "coordinator.scatter")
    wrap(ShardedIndex, "search_range", "coordinator.scatter")
    wrap(HttpShardTransport, "scan_knn", "coordinator.scan")
    wrap(HttpShardTransport, "scan_range", "coordinator.scan")


def install_build(recorder: SpanRecorder) -> None:
    """Wrap the in-process set-up's FastMap fit (the build is timed directly)."""
    from repro.embedding.triple_embedder import TripleEmbedder
    from repro.semantics.triple_distance import TripleDistance

    recorder.count_distance_calls(TripleDistance)
    recorder.wrap(TripleEmbedder, "fit", "embedding.fit")
