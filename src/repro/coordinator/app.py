"""The coordinator application: endpoint logic of the scatter-gather front end.

:class:`CoordinatorApp` is the sharded twin of
:class:`~repro.server.app.ServerApp`: the same query endpoints
(``POST /v1/knn`` / ``/v1/range``, single and batched, with the same wire
schemas), served by the same :class:`~repro.service.engine.QueryEngine` —
batching, result cache, deadlines and serving metrics work unchanged —
except the engine searches a :class:`~repro.coordinator.sharded.ShardedIndex`
that fans every tree scan out to shard servers.

The coordinator is read-only (``/v1/insert`` does not exist here): inserts
go to a full server, which checkpoints, and the shards re-boot from the new
snapshot.  See ``docs/cluster.md`` for the deployment story and the failure
semantics (a lost shard fails queries with a structured 502-style error
rather than returning silently-partial answers).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, Optional

from repro import __version__
from repro.coordinator.sharded import ShardedIndex
from repro.errors import ServerClosingError, ShardError
from repro.io.serialization import json_ready
from repro.obs import export as obs_export
from repro.obs.history import MetricsHistory
from repro.obs.logging import SlowQueryLog
from repro.obs.profile import SamplingProfiler, profile_endpoint
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import span
from repro.server.app import _observe_slow_queries, _strictest_deadline
from repro.server.context import current_context
from repro.server.schemas import parse_query_request, render_results
from repro.service.admission import AdmissionController
from repro.service.engine import QueryEngine
from repro.service.planner import QueryKind

__all__ = ["CoordinatorApp"]

_EMPTY_LATENCY = {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}


class CoordinatorApp:
    """Endpoint logic over one :class:`ShardedIndex`.

    Parameters
    ----------
    index:
        The sharded index to serve.
    workers / cache_capacity / cache_ttl / cache_segmented / default_deadline:
        Passed through to :class:`QueryEngine` (worker threads here issue
        scatters; the scatter pool inside the sharded index bounds the
        total scan concurrency).
    max_queue_depth / client_rate / client_burst:
        Admission control, same semantics as :class:`ServerApp`'s (bound on
        outstanding scatters, per-``X-Client-Id`` rate limits); off by
        default.
    """

    def __init__(self, index: ShardedIndex, *, workers: int = 4,
                 cache_capacity: int = 1024, cache_ttl: float | None = None,
                 cache_segmented: bool = False,
                 default_deadline: float | None = None,
                 registry: MetricsRegistry | None = None,
                 slow_query_ms: float | None = None,
                 profiler: SamplingProfiler | None = None,
                 history_interval: float = 5.0,
                 max_queue_depth: int | None = None,
                 client_rate: float | None = None,
                 client_burst: int = 10):
        self.index = index
        self.engine = QueryEngine(
            index, workers=workers, cache_capacity=cache_capacity,
            cache_ttl=cache_ttl, cache_segmented=cache_segmented,
            default_deadline=default_deadline,
        )
        self.admission = AdmissionController(
            self.engine, max_queue_depth=max_queue_depth,
            client_rate=client_rate, client_burst=client_burst,
        )
        self._started = time.monotonic()
        self._requests: Counter = Counter()
        self._requests_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self.slow_query_log = SlowQueryLog(slow_query_ms)
        self.registry = registry or MetricsRegistry()
        self._bind_registry()
        self.profiler = profiler
        self.history = MetricsHistory(
            self.registry, interval=history_interval).start()

    def _bind_registry(self) -> None:
        """Same contract as :meth:`ServerApp._bind_registry`: the exposition
        reads the identical locked counters the JSON payload reports."""
        self.engine.metrics.bind_registry(self.registry)
        obs_export.bind_cache(self.registry, self.engine.cache)
        obs_export.bind_runtime(self.registry, role="coordinator",
                                version=__version__)
        obs_export.bind_http_requests(self.registry, self.request_counts)
        self.index.bind_registry(self.registry)
        self.admission.bind_registry(self.registry)
        self.registry.gauge(
            "repro_engine_workers", "Query-engine worker threads.",
        ).set(float(self.engine.workers))

    def request_counts(self) -> Dict[str, int]:
        """Requests received so far, by endpoint (a stable read surface)."""
        with self._requests_lock:
            return dict(self._requests)

    # -- routing (consumed by repro.server.protocol) ------------------------------------

    def post_routes(self) -> Dict[str, Callable[[Any], Dict[str, Any]]]:
        return {
            "/v1/knn": self.handle_knn,
            "/v1/range": self.handle_range,
        }

    def get_routes(self) -> Dict[str, Callable[[], Dict[str, Any]]]:
        return {
            "/v1/metrics": self.metrics,
            "/v1/healthz": self.health,
            "/v1/topology": self.topology,
        }

    def get_param_routes(self) -> Dict[str, Callable[[Dict[str, str]], Any]]:
        return {
            "/v1/debug/profile": self.debug_profile,
            "/v1/history": self.history_payload,
        }

    def debug_profile(self, params: Dict[str, str]):
        """``GET /v1/debug/profile`` — sample the coordinator, render the profile."""
        self._count("debug_profile")
        return profile_endpoint(params, self.profiler)

    def history_payload(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/history`` — the coordinator's metrics history ring buffer."""
        self._count("history")
        return self.history.payload()

    # -- bookkeeping --------------------------------------------------------------------

    def _count(self, endpoint: str) -> None:
        with self._requests_lock:
            self._requests[endpoint] += 1

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; endpoints refuse further work."""
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise ServerClosingError("the coordinator is shutting down")

    # -- query endpoints ----------------------------------------------------------------

    def handle_knn(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/knn`` — single or batched k-NN, scattered across shards."""
        return self._handle_query(QueryKind.KNN, body, "knn")

    def handle_range(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/range`` — single or batched range, scattered across shards."""
        return self._handle_query(QueryKind.RANGE, body, "range")

    def _handle_query(self, kind: QueryKind, body: Any, endpoint: str) -> Dict[str, Any]:
        self._check_open()
        self._count(endpoint)
        with span("parse"):
            specs, batched = parse_query_request(body, kind)
        if self.admission.enabled:
            self.admission.admit(
                queries=len(specs),
                deadline=_strictest_deadline(specs, self.engine.default_deadline),
                client_id=current_context().client_id,
            )
        results = self.engine.execute_batch(specs)
        if self.slow_query_log.enabled:
            _observe_slow_queries(self.slow_query_log, results)
        if not batched and isinstance(results[0].exception, ShardError):
            # A lost shard on a single query is a backend failure, not a
            # result: surface it as HTTP 502 with the structured
            # failed/completed details, so status-checking clients and load
            # balancers never mistake it for a successful empty answer.
            # (Batched responses keep per-result error fields — one dead
            # shard must not discard the batch's healthy answers.)
            raise results[0].exception
        with span("render"):
            return render_results(results, batched)

    # -- observability endpoints --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the fan-out vitals.

        When the transport tracks replica circuit breakers, the payload
        carries per-partition replica health and the overall ``status``
        downgrades to ``"degraded"`` while any partition has no replica
        with a closed circuit — a load balancer can pull a coordinator
        whose answers would start failing (or going partial), without
        waiting for a query to hit the dead partition.
        """
        self._count("healthz")
        status = "closing" if self._closed else "ok"
        payload: Dict[str, Any] = {
            "status": status,
            "role": "coordinator",
            "points": len(self.index.base),
            "generation": self.index.generation,
            "shards": len(self.index.transport.partition_ids()),
            "uptime_seconds": time.monotonic() - self._started,
        }
        replica_health = getattr(self.index.transport, "replica_health", None)
        if callable(replica_health):
            health = replica_health()
            payload["partitions"] = health
            if status == "ok" and any(
                    entry.get("healthy", 0) == 0 for entry in health.values()):
                payload["status"] = "degraded"
        return json_ready(payload)

    def topology(self) -> Dict[str, Any]:
        """``GET /v1/topology`` — which replicas serve which partition."""
        self._check_open()
        self._count("topology")
        transport = self.index.transport
        topology = getattr(transport, "topology", None)
        shards = getattr(topology, "shards", None)
        tree = self.index.base.tree
        payload: Dict[str, Any] = {
            "partitions": list(transport.partition_ids()),
            "shards": dict(shards) if shards is not None else {},
            "points_per_partition": {
                partition.partition_id: partition.point_count
                for partition in tree.partitions
            },
        }
        replicas_of = getattr(topology, "replicas_of", None)
        if callable(replicas_of):
            payload["replicas_per_partition"] = {
                partition_id: len(replicas_of(partition_id))
                for partition_id in transport.partition_ids()
            }
        return json_ready(payload)

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` — serving + cache + scatter-gather payload.

        The ``serving`` and ``cache`` sections are schema-identical to a
        full server's (same engine); ``shards`` replaces the single-process
        ``ingest``/``index`` sections with fan-out counts and per-shard
        latency.
        """
        self._count("metrics")
        serving = self.engine.statistics()
        cache = serving.pop("cache")
        serving.setdefault("latency_ms", dict(_EMPTY_LATENCY))
        with self._requests_lock:
            requests = dict(self._requests)
        return json_ready({
            "serving": serving,
            "cache": cache,
            "shards": self.index.statistics(),
            "coordinator": {
                "uptime_seconds": time.monotonic() - self._started,
                "requests": requests,
                "points": len(self.index.base),
                "generation": self.index.generation,
                "admission": self.admission.snapshot(),
            },
        })

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — text exposition v0.0.4.

        Rendered from the same registry whose callbacks read the counters
        behind :meth:`metrics`, so the two formats cannot disagree.
        """
        self._count("metrics")
        return self.registry.render()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self, *, checkpoint: bool | None = None) -> Optional[int]:
        """Drain the engine, shut the scatter pool down.  Idempotent.

        ``checkpoint`` is accepted (and ignored — the coordinator owns no
        durable state) so the HTTP transport closes any app type uniformly.
        """
        with self._close_lock:
            if self._closed:
                return None
            self._closed = True
        self.history.stop()
        if self.profiler is not None:
            self.profiler.stop()
        self.engine.close(wait=True)
        self.index.close()
        return None

    def __enter__(self) -> "CoordinatorApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"CoordinatorApp(index={self.index!r}, closed={self._closed})"
