"""``python -m repro.server`` — boot a SemTree server from durable state.

Boot sequence (full server, the default):

1. the checkpoint snapshot is parsed once; the semantic distance is rebuilt
   from its persisted vocabulary hints (or harvested from the stored
   triples for older snapshots) — :func:`~repro.server.bootstrap.recover_index`;
2. the tree is restored from the snapshot and the WAL records after its
   ``wal_seq`` are replayed into the delta;
3. a :class:`~repro.server.app.ServerApp` (query engine + background
   compactor) is bound to an
   :class:`~repro.server.async_http.AsyncSemTreeServer` (one
   :mod:`selectors` event loop + a worker pool);
4. on SIGINT/SIGTERM the server stops accepting, drains in-flight queries,
   folds the delta, writes a checkpoint back to ``--snapshot`` and
   truncates the WAL (disable with ``--no-checkpoint-on-exit``).

Shard mode (``--shard P3``) boots the same process as a *partition shard*
instead: only partition ``P3``'s subtree is loaded from the snapshot and
the server exposes the raw scan endpoints ``/v1/shard/knn`` /
``/v1/shard/range`` a :mod:`repro.coordinator` front end fans out to.  A
shard holds no delta, so boot refuses a WAL whose tail is newer than the
snapshot — checkpoint first, then launch the shards.

Examples::

    python -m repro.server --snapshot snap.json --wal wal.jsonl --port 8080
    python -m repro.server --snapshot snap.json --shard P1 --port 9001

See ``docs/server.md`` for the endpoint reference and ``docs/cluster.md``
for the sharded deployment topology.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from typing import Optional, Sequence, Tuple

from repro.errors import IndexError_
from repro.faults import FaultPlan
from repro.obs.logging import configure_logging
from repro.obs.profile import SamplingProfiler
from repro.server.app import ServerApp
from repro.server.async_http import AsyncSemTreeServer
from repro.server.bootstrap import load_shard, recover_index, wal_tail_seq
from repro.server.shard import ShardApp

__all__ = ["build_parser", "build_server", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a SemTree index over HTTP, recovering from a "
                    "checkpoint snapshot + write-ahead-log tail.",
    )
    parser.add_argument("--snapshot", required=True,
                        help="checkpoint snapshot to boot from (and to write the "
                             "shutdown checkpoint back to)")
    parser.add_argument("--wal", default=None,
                        help="write-ahead log; its tail (records after the snapshot's "
                             "wal_seq) is replayed on boot, and live inserts append to "
                             "it (required unless --shard)")
    parser.add_argument("--shard", default=None, metavar="PARTITION_ID",
                        help="serve one partition of the snapshot as a read-only "
                             "shard (/v1/shard/knn, /v1/shard/range) instead of the "
                             "full query API")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port (0 picks an ephemeral port)")
    parser.add_argument("--idle-timeout", type=float, default=None,
                        help="drop keep-alive connections idle this many "
                             "seconds (default: the request timeout)")
    parser.add_argument("--no-wire-cache", action="store_true",
                        help="disable the event loop's response byte cache "
                             "(full servers only; shards and coordinators "
                             "never cache wire bytes)")
    parser.add_argument("--workers", type=int, default=4,
                        help="query-engine worker threads")
    parser.add_argument("--cache-capacity", type=int, default=1024,
                        help="result-cache entries")
    parser.add_argument("--cache-ttl", type=float, default=None,
                        help="result-cache TTL in seconds (default: no expiry)")
    parser.add_argument("--cache-segmented", action="store_true",
                        help="use SLRU (probationary/protected) cache admission")
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="per-query deadline in seconds applied when a request "
                             "carries none (default: wait for completion)")
    parser.add_argument("--compaction-threshold", type=int, default=256,
                        help="delta size that triggers a background compaction")
    parser.add_argument("--no-background-compaction", action="store_true",
                        help="disable the background compactor (folds then only "
                             "happen at the shutdown checkpoint)")
    parser.add_argument("--no-checkpoint-on-exit", action="store_true",
                        help="skip the shutdown checkpoint (the WAL alone stays "
                             "the recovery source)")
    parser.add_argument("--actors", default="",
                        help="comma-separated extra actor names future inserts may "
                             "mention (stored actors are read from the snapshot)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        help="log executed queries slower than this many "
                             "milliseconds as structured JSON on repro.slow_query "
                             "(default: REPRO_SLOW_QUERY_MS, unset = disabled)")
    parser.add_argument("--profile", action="store_true",
                        help="run a continuous sampling profiler; read it back "
                             "at GET /v1/debug/profile")
    parser.add_argument("--max-queue-depth", type=int, default=None,
                        help="admission control: reject queries with 503 + "
                             "Retry-After once this many are outstanding in the "
                             "engine (default: unbounded)")
    parser.add_argument("--client-rate", type=float, default=None,
                        help="admission control: per-client (X-Client-Id header) "
                             "sustained queries/second (default: unlimited)")
    parser.add_argument("--client-burst", type=int, default=10,
                        help="per-client token-bucket burst size (with "
                             "--client-rate)")
    parser.add_argument("--faults", default=None,
                        help="fault-injection plan: JSON text or a path to a "
                             "JSON file (default: $REPRO_FAULTS; testing only)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request log lines")
    return parser


def build_server(argv: Optional[Sequence[str]] = None,
                 ) -> Tuple[AsyncSemTreeServer, argparse.Namespace]:
    """Parse arguments, recover the index (or load the shard), return a bound server."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.shard is not None:
        server = _build_shard_server(args)
        return server, args
    if args.wal is None:
        parser.error("--wal is required (unless booting a --shard)")
    extra_actors = [name.strip() for name in args.actors.split(",") if name.strip()]
    index = recover_index(
        args.snapshot, args.wal, extra_actors=extra_actors,
        compaction_threshold=args.compaction_threshold,
    )
    app = ServerApp(
        index,
        workers=args.workers,
        cache_capacity=args.cache_capacity,
        cache_ttl=args.cache_ttl,
        cache_segmented=args.cache_segmented,
        default_deadline=args.default_deadline,
        checkpoint_path=None if args.no_checkpoint_on_exit else args.snapshot,
        background_compaction=not args.no_background_compaction,
        slow_query_ms=args.slow_query_ms,
        profiler=SamplingProfiler().start() if args.profile else None,
        max_queue_depth=args.max_queue_depth,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
    )
    server = AsyncSemTreeServer(
        app, host=args.host, port=args.port,
        quiet=args.quiet, fault_plan=_fault_plan(args),
        idle_timeout=args.idle_timeout,
        wire_cache=not args.no_wire_cache,
    )
    return server, args


def _fault_plan(args: argparse.Namespace) -> Optional[FaultPlan]:
    """The ``--faults`` plan when given, else whatever $REPRO_FAULTS says."""
    if getattr(args, "faults", None) is not None:
        return FaultPlan.from_source(args.faults)
    return FaultPlan.from_env()


def _build_shard_server(args: argparse.Namespace) -> AsyncSemTreeServer:
    """Boot the process as a read-only partition shard."""
    tail = wal_tail_seq(args.wal)
    boot = load_shard(args.snapshot, args.shard)
    if tail > boot.wal_seq:
        raise IndexError_(
            f"the WAL tail reaches seq {tail} but the snapshot only covers "
            f"seq {boot.wal_seq}: a shard has no delta to replay into — "
            "checkpoint the full server first, then boot the shards"
        )
    app = ShardApp(
        boot, slow_query_ms=args.slow_query_ms,
        profiler=SamplingProfiler().start() if args.profile else None,
    )
    return AsyncSemTreeServer(
        app, host=args.host, port=args.port,
        quiet=args.quiet, fault_plan=_fault_plan(args),
        idle_timeout=args.idle_timeout,
        # A shard's scan results depend only on its immutable boot snapshot,
        # but ShardApp exposes no cacheable routes anyway — keep it off.
        wire_cache=False,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    server, args = build_server(argv)
    # Structured JSON logs on stderr: access lines, slow queries, warnings.
    # --quiet keeps warnings only (matching the old silent default).
    # Configured here, not in build_server, so embedding the builder (tests,
    # notebooks) never rewires the process's logging.
    configure_logging(level=30 if args.quiet else 20)
    if args.shard is not None:
        app = server.app
        print(f"shard {app.partition_id}: {app.boot.points} points "
              f"(generation {app.boot.generation}, "
              f"snapshot partitions {', '.join(app.boot.partition_ids)})", flush=True)
        return _serve_until_signalled(server, args)
    index = server.app.index
    replayed = index.statistics()["replayed"]
    print(f"recovered {len(index)} points "
          f"(generation {index.generation}, applied_seq {index.applied_seq}, "
          f"replayed {replayed} WAL records)", flush=True)
    return _serve_until_signalled(server, args)


def _serve_until_signalled(server: AsyncSemTreeServer,
                           args: argparse.Namespace) -> int:
    stop = threading.Event()

    def request_stop(signum, frame) -> None:
        stop.set()

    previous = {
        signal.SIGINT: signal.signal(signal.SIGINT, request_stop),
        signal.SIGTERM: signal.signal(signal.SIGTERM, request_stop),
    }
    try:
        server.serve_background()
        print(f"listening on {server.url}", flush=True)
        stop.wait()
        print("shutting down ...", flush=True)
        wal_seq = server.close()
        if wal_seq is not None:
            print(f"checkpointed through wal_seq {wal_seq} to {args.snapshot}",
                  flush=True)
        elif getattr(args, "shard", None) is not None:
            print("shard stopped (read-only: nothing to checkpoint)", flush=True)
        elif getattr(args, "wal", None) is None:
            # The coordinator CLI reuses this loop; it owns no durable state.
            print("coordinator stopped (read-only: nothing to checkpoint)",
                  flush=True)
        else:
            print("stopped without a checkpoint (WAL remains the recovery source)",
                  flush=True)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
