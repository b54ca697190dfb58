"""The server application: endpoint logic, transport-free.

:class:`ServerApp` owns the serving stack of one process — an
:class:`~repro.ingest.ingesting.IngestingIndex` (write-ahead log + delta
segment), a :class:`~repro.service.engine.QueryEngine` (batching, result
cache, deadlines) and an optional
:class:`~repro.ingest.compactor.BackgroundCompactor` — and exposes one
method per HTTP endpoint, taking and returning plain JSON-native
dictionaries.  The HTTP layer (:mod:`repro.server.protocol`) is a thin adapter
over it; tests and benchmarks can drive the app directly.

The unified metrics payload
---------------------------
``/v1/metrics`` merges counters from three subsystems that historically
named their fields each their own way (``qps`` vs ``ingest_qps``, a
hand-picked subset of the cache counters).  :meth:`ServerApp.metrics`
publishes one stable, fully snake_case schema instead — four sections
(``serving`` / ``cache`` / ``ingest`` / ``index``) plus ``server``, with the
shared conventions ``qps``, ``wall_seconds`` and ``*_ms`` sub-dictionaries
that are *always present* (zeroed before the first sample).  The exact key
sets are documented in ``docs/server.md`` and locked down by
``tests/server/test_metrics_schema.py``.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import Counter, OrderedDict
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.errors import QueryError, ServerClosingError
from repro.ingest.compactor import BackgroundCompactor
from repro.ingest.ingesting import IngestingIndex
from repro.io.serialization import json_ready
from repro.obs import export as obs_export
from repro.obs.history import MetricsHistory
from repro.obs.logging import SlowQueryLog
from repro.obs.profile import SamplingProfiler, profile_endpoint
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import current_trace, span
from repro.server.context import current_context
from repro.server.schemas import (PartialInsertError, parse_insert_request,
                                  parse_query_request, render_results)
from repro.service.admission import AdmissionController
from repro.service.engine import QueryEngine
from repro.service.planner import QueryKind, QuerySpec
from repro.service.snapshot import config_to_dict

__all__ = ["ServerApp"]

#: Most remembered ``Idempotency-Key`` → response replays; least recently
#: used keys fall out first.  Sized for the retry window the keys exist to
#: cover (seconds, not sessions).
IDEMPOTENCY_CACHE_LIMIT = 1024

#: Zeroed latency sub-dictionaries, so the metrics schema is stable before
#: the first sample lands.
_EMPTY_LATENCY = {"mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}
_EMPTY_COMPACTION = {"mean": 0.0, "max": 0.0, "last": 0.0}


def _query_shape(spec) -> Dict[str, Any]:
    """The slow-query log's description of one query (no payload data)."""
    shape: Dict[str, Any] = {"kind": spec.kind.value}
    if spec.kind is QueryKind.KNN:
        shape["k"] = spec.k
    else:
        shape["radius"] = spec.radius
    if spec.pattern is not None:
        shape["pattern"] = repr(spec.pattern)
    if spec.deadline is not None:
        shape["deadline"] = spec.deadline
    return shape


def _strictest_deadline(specs: List[QuerySpec],
                        default: Optional[float]) -> Optional[float]:
    """The tightest deadline in a batch (what admission judges the wait by)."""
    deadlines = [spec.deadline if spec.deadline is not None else default
                 for spec in specs]
    bounded = [deadline for deadline in deadlines if deadline is not None]
    return min(bounded) if bounded else None


def _observe_slow_queries(log: SlowQueryLog, results) -> None:
    """Feed executed results through the slow-query log (shared by apps)."""
    trace = current_trace()
    for result in results:
        if result.cached:
            continue
        log.observe(
            kind=result.spec.kind.value,
            latency_seconds=result.latency_seconds,
            query=_query_shape(result.spec),
            visited_partitions=result.visited_partitions,
            cached=result.cached,
            trace=trace,
            cost=result.cost.to_dict() if result.cost is not None else None,
        )


class ServerApp:
    """Endpoint logic over one live-ingesting index.

    Parameters
    ----------
    index:
        The :class:`IngestingIndex` to serve.  The server requires the
        ingesting wrapper (not a bare ``SemTreeIndex``) because ``/v1/insert``
        writes through the WAL + delta path and the shutdown checkpoint
        needs the WAL's applied sequence number.
    workers / cache_capacity / cache_ttl / cache_segmented / default_deadline:
        Passed through to :class:`QueryEngine`.
    checkpoint_path:
        Where :meth:`close` writes the shutdown checkpoint (``None`` skips
        checkpoint-on-exit).
    background_compaction:
        Run a :class:`BackgroundCompactor` so folds happen off the serving
        path (on by default, like a production deployment).
    max_queue_depth / client_rate / client_burst:
        Admission control (see :class:`AdmissionController`): bound on
        outstanding searches, and per-``X-Client-Id`` token-bucket rate
        limits.  Both default off — admission is opt-in.
    """

    def __init__(self, index: IngestingIndex, *, workers: int = 4,
                 cache_capacity: int = 1024, cache_ttl: float | None = None,
                 cache_segmented: bool = False,
                 default_deadline: float | None = None,
                 checkpoint_path: str | pathlib.Path | None = None,
                 background_compaction: bool = True,
                 registry: MetricsRegistry | None = None,
                 slow_query_ms: float | None = None,
                 profiler: SamplingProfiler | None = None,
                 history_interval: float = 5.0,
                 max_queue_depth: int | None = None,
                 client_rate: float | None = None,
                 client_burst: int = 10):
        if not isinstance(index, IngestingIndex):
            raise QueryError(
                "ServerApp serves an IngestingIndex (wrap the built index so "
                f"inserts hit the WAL + delta path), got {type(index).__name__}"
            )
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
        self._idempotency_lock = threading.Lock()
        self._idempotency: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.checkpoint_path = (
            pathlib.Path(checkpoint_path) if checkpoint_path is not None else None
        )
        self.compactor: Optional[BackgroundCompactor] = None
        if background_compaction:
            self.compactor = BackgroundCompactor(index).start()
        self._started = time.monotonic()
        self._requests: Counter = Counter()
        self._requests_lock = threading.Lock()
        self._close_lock = threading.Lock()
        self._closed = False
        self.slow_query_log = SlowQueryLog(slow_query_ms)
        self.registry = registry or MetricsRegistry()
        self._bind_registry()
        # A continuously running profiler (--profile) is optional; the
        # on-demand /v1/debug/profile endpoint works without one.
        self.profiler = profiler
        self.history = MetricsHistory(
            self.registry, interval=history_interval).start()

    def _bind_registry(self) -> None:
        """Expose every subsystem through the Prometheus registry.

        The JSON payload and the exposition read the same locked counters
        (callback-backed instruments), so the two formats cannot disagree.
        """
        self.engine.metrics.bind_registry(self.registry)
        self.admission.bind_registry(self.registry)
        self.index.metrics.bind_registry(self.registry)
        obs_export.bind_cache(self.registry, self.engine.cache)
        obs_export.bind_runtime(self.registry, role="server", version=__version__)
        obs_export.bind_http_requests(self.registry, self.request_counts)
        self.registry.gauge(
            "repro_index_points", "Points currently queryable (tree + delta).",
        ).set_function(lambda: float(len(self.index)))
        self.registry.gauge(
            "repro_index_delta_points", "Points in the live delta segment.",
        ).set_function(lambda: float(len(self.index.delta)))
        self.registry.gauge(
            "repro_index_generation", "Index epoch (bumped by every mutation).",
        ).set_function(lambda: float(self.index.generation))
        self.registry.gauge(
            "repro_engine_workers", "Query-engine worker threads.",
        ).set(float(self.engine.workers))

    def request_counts(self) -> Dict[str, int]:
        """Requests received so far, by endpoint (a stable read surface)."""
        with self._requests_lock:
            return dict(self._requests)

    # -- routing (consumed by repro.server.protocol) ------------------------------------

    def post_routes(self) -> Dict[str, Any]:
        """Path → handler for POST endpoints (the transport's routing table)."""
        return {
            "/v1/knn": self.handle_knn,
            "/v1/range": self.handle_range,
            "/v1/insert": self.handle_insert,
        }

    def get_routes(self) -> Dict[str, Any]:
        """Path → handler for GET endpoints."""
        return {
            "/v1/metrics": self.metrics,
            "/v1/healthz": self.health,
            "/v1/index": self.index_info,
        }

    def get_param_routes(self) -> Dict[str, Any]:
        """Path → handler for GET endpoints that consume the query string."""
        return {
            "/v1/debug/profile": self.debug_profile,
            "/v1/history": self.history_payload,
        }

    # -- wire-cache hooks (consumed by repro.server.async_http) -------------------------

    def wire_cacheable_routes(self) -> frozenset:
        """Read-only endpoints whose byte-identical answers may be cached
        at the transport layer (same request body → same response body,
        for as long as :meth:`wire_cache_epoch` holds still)."""
        return frozenset({"/v1/knn", "/v1/range"})

    def wire_cache_epoch(self) -> tuple:
        """A value that changes whenever any cached answer could change.

        ``(tree generation, delta sequence)``: the generation moves per
        compaction; the delta sequence is the WAL sequence of the newest
        insert a query can see, set when the point becomes visible (not
        when it is logged, which happens first) and kept across
        compactions — so a wire-cached answer is valid exactly while both
        stand still.  (The engine's own result cache can survive inserts
        by overlaying delta matches; a cache of serialised response bytes
        cannot, hence the stricter key.)
        """
        return (self.index.generation, self.index.delta.last_seq)

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
            raise ServerClosingError("the server is shutting down")

    # -- query endpoints ----------------------------------------------------------------

    def handle_knn(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/knn`` — single or batched k-NN queries."""
        return self._handle_query(QueryKind.KNN, body, "knn")

    def handle_range(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/range`` — single or batched range queries."""
        return self._handle_query(QueryKind.RANGE, body, "range")

    def _handle_query(self, kind: QueryKind, body: Any, endpoint: str) -> Dict[str, Any]:
        self._check_open()
        self._count(endpoint)
        with span("parse"):
            specs, batched = parse_query_request(body, kind)
        if self.admission.enabled:
            # After parsing (a malformed body should stay 400), before any
            # engine work: a shed request must not consume a worker.
            self.admission.admit(
                queries=len(specs),
                deadline=_strictest_deadline(specs, self.engine.default_deadline),
                client_id=current_context().client_id,
            )
        results = self.engine.execute_batch(specs)
        if self.slow_query_log.enabled:
            _observe_slow_queries(self.slow_query_log, results)
        with span("render"):
            return render_results(results, batched)

    # -- the write endpoint -------------------------------------------------------------

    def handle_insert(self, body: Any) -> Dict[str, Any]:
        """``POST /v1/insert`` — write one or many triples through WAL + delta.

        Every accepted triple is durable (WAL-appended) and queryable before
        the response is sent.  The response reports the WAL sequence numbers
        so a client can correlate with checkpoints.

        Sending an ``Idempotency-Key`` header makes the write safely
        retryable: a replayed key returns the original response (flagged
        ``"deduplicated": true``) instead of applying the batch again.
        That is what lets the HTTP client retry an insert whose first
        attempt died on a stale keep-alive socket *after* the server may
        already have applied it.
        """
        self._check_open()
        self._count("insert")
        idempotency_key = current_context().idempotency_key
        if idempotency_key is not None:
            with self._idempotency_lock:
                replay = self._idempotency.get(idempotency_key)
                if replay is not None:
                    self._idempotency.move_to_end(idempotency_key)
                    return {**replay, "deduplicated": True}
        inserts, batched = parse_insert_request(body)
        sequences: list = []
        try:
            for triple, document_id in inserts:
                sequences.append(self.index.insert(triple, document_id=document_id))
        except Exception as error:
            if sequences:
                # The applied prefix is WAL-durable and queryable; tell the
                # client exactly what landed so a retry can skip it.
                raise PartialInsertError(
                    f"insert {len(sequences) + 1} of {len(inserts)} failed: "
                    f"{type(error).__name__}: {error}",
                    accepted=len(sequences),
                    first_seq=sequences[0], last_seq=sequences[-1],
                ) from error
            raise
        if batched:
            response = {
                "accepted": len(sequences),
                "first_seq": sequences[0],
                "last_seq": sequences[-1],
            }
        else:
            response = {"seq": sequences[0], "delta_points": len(self.index.delta)}
        if idempotency_key is not None:
            # Remember only fully applied batches: a partial failure must
            # surface on the retry too, not replay as a success.
            with self._idempotency_lock:
                self._idempotency[idempotency_key] = response
                while len(self._idempotency) > IDEMPOTENCY_CACHE_LIMIT:
                    self._idempotency.popitem(last=False)
        return response

    # -- observability endpoints --------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the vitals a probe wants."""
        self._count("healthz")
        return {
            "status": "closing" if self._closed else "ok",
            "generation": self.index.generation,
            "points": len(self.index),
            "uptime_seconds": time.monotonic() - self._started,
        }

    def index_info(self) -> Dict[str, Any]:
        """``GET /v1/index`` — what is being served: shape, config, kernel."""
        self._check_open()
        self._count("index")
        config = self.index.base.config
        return {
            "generation": self.index.generation,
            "points": len(self.index),
            "tree_points": len(self.index.base),
            "delta_points": len(self.index.delta),
            "applied_seq": self.index.applied_seq,
            "last_seq": self.index.wal.last_seq,
            "kernel": config.scan_kernel,
            "config": config_to_dict(config),
        }

    def metrics(self) -> Dict[str, Any]:
        """``GET /v1/metrics`` — the unified serving + cache + ingest payload."""
        self._count("metrics")
        # One source for serving + cache: QueryEngine.statistics() (its
        # cache section is CacheStats.to_dict() verbatim); the server only
        # splits the sections apart and zero-fills the latency block.
        serving = self.engine.statistics()
        cache = serving.pop("cache")
        serving.setdefault("latency_ms", dict(_EMPTY_LATENCY))

        raw_ingest = self.index.statistics()
        compaction_ms = raw_ingest.get("compaction_ms", dict(_EMPTY_COMPACTION))
        ingest = {
            "inserts": raw_ingest["inserts"],
            "replayed": raw_ingest["replayed"],
            "wall_seconds": raw_ingest["ingest_wall_seconds"],
            "qps": raw_ingest["ingest_qps"],
            "compactions": raw_ingest["compactions"],
            "points_compacted": raw_ingest["points_compacted"],
            "compaction_ms": compaction_ms,
            "compaction_threshold": raw_ingest["compaction_threshold"],
            "delta_points": raw_ingest["delta_points"],
            "wal_records": raw_ingest["wal_records"],
            "applied_seq": raw_ingest["applied_seq"],
            "last_seq": raw_ingest["last_seq"],
        }

        index = {
            "generation": self.index.generation,
            "points": len(self.index),
            "tree_points": len(self.index.base),
            "kernel": self.index.base.config.scan_kernel,
            "dimensions": self.index.base.config.dimensions,
        }

        with self._requests_lock:
            requests = dict(self._requests)
        server = {
            "uptime_seconds": time.monotonic() - self._started,
            "requests": requests,
            "background_compaction": self.compactor is not None,
            "admission": self.admission.snapshot(),
        }

        return json_ready({
            "serving": serving,
            "cache": cache,
            "ingest": ingest,
            "index": index,
            "server": server,
        })

    def debug_profile(self, params: Dict[str, str]):
        """``GET /v1/debug/profile`` — sample the process and render the profile."""
        self._count("debug_profile")
        return profile_endpoint(params, self.profiler)

    def history_payload(self, params: Dict[str, str]) -> Dict[str, Any]:
        """``GET /v1/history`` — the in-process metrics history ring buffer."""
        self._count("history")
        return self.history.payload()

    def metrics_prometheus(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — text exposition v0.0.4.

        Rendered from the same registry whose callbacks read the counters
        behind :meth:`metrics`, so the two formats cannot disagree.
        """
        self._count("metrics")
        return self.registry.render()

    # -- lifecycle ----------------------------------------------------------------------

    def close(self, *, checkpoint: bool | None = None) -> Optional[int]:
        """Graceful shutdown: drain workers, checkpoint, close the WAL.

        ``checkpoint`` defaults to "yes iff a ``checkpoint_path`` was
        configured".  Returns the checkpointed ``wal_seq`` (``None`` when no
        checkpoint was written).  Idempotent.
        """
        if checkpoint is None:
            checkpoint = self.checkpoint_path is not None
        # Validate before any teardown: raising mid-close would leave the
        # app half shut down (closed flag set, WAL still open) with every
        # retry a no-op.
        if checkpoint and self.checkpoint_path is None:
            raise QueryError("cannot checkpoint: no checkpoint_path configured")
        # Atomic test-and-set: a signal handler and a context-manager exit
        # may race to close; exactly one caller runs the teardown.
        with self._close_lock:
            if self._closed:
                return None
            self._closed = True
        self.history.stop()
        if self.profiler is not None:
            self.profiler.stop()
        if self.compactor is not None:
            self.compactor.stop()
        self.engine.close(wait=True)
        wal_seq: Optional[int] = None
        if checkpoint:
            wal_seq = self.index.checkpoint(self.checkpoint_path)
        self.index.close()
        return wal_seq

    def __enter__(self) -> "ServerApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ServerApp(index={self.index!r}, engine={self.engine!r}, "
            f"closed={self._closed})"
        )
