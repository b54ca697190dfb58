"""The closed-loop client: a few keep-alive connections, per-operation accounting.

Each connection is one thread that sends its next request only after the
previous reply arrived.  Bodies are encoded before the clock starts and
success bodies are not decoded, so client CPU stays small (its share is
reported as ``workloads.client_cpu_ratio``).  Every request carries an
``X-Trace-Id`` the server adopts as its trace id, which is how a traced run
joins client-side latency with the server-side spans of the same request.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.io.serialization import triple_to_dict

from corpus import K, RADIUS, Query

REQUEST_TIMEOUT_S = 30.0
PATHS = {"knn": "/v1/knn", "range": "/v1/range", "insert": "/v1/insert"}


def encode(kind: str, triple) -> bytes:
    body: Dict[str, object] = {"triple": triple_to_dict(triple)}
    if kind == "knn":
        body["k"] = K
    elif kind == "range":
        body["radius"] = RADIUS
    return json.dumps(body).encode("utf-8")


@dataclass
class Operation:
    """One prepared request: its kind, wire body and the triple it carries."""

    kind: str
    body: bytes
    triple: object

    @classmethod
    def of(cls, kind: str, triple) -> "Operation":
        return cls(kind, encode(kind, triple), triple)


@dataclass
class Tally:
    """Failure accounting for one operation type."""

    attempts: int = 0
    ok: int = 0
    http_errors: int = 0
    shed_503: int = 0
    timeouts: int = 0
    resets: int = 0

    @property
    def failed(self) -> int:
        return self.http_errors + self.shed_503 + self.timeouts + self.resets


@dataclass
class Sample:
    request_id: str
    kind: str
    started: float
    ended: float
    response_bytes: int


@dataclass
class Outcome:
    """What one closed-loop phase produced."""

    seconds: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    tallies: Dict[str, Tally] = field(default_factory=dict)
    acknowledged: List[Tuple[int, object]] = field(default_factory=list)
    client_cpu_seconds: float = 0.0
    #: ``(perf_counter time, host CPU ticks)`` at the start, at every slice
    #: boundary and at the end of a closed-loop phase.
    boundaries: List[Tuple[float, Optional[List[int]]]] = field(default_factory=list)

    def tally(self, kind: str) -> Tally:
        return self.tallies.setdefault(kind, Tally())

    @property
    def attempted(self) -> int:
        return sum(t.attempts for t in self.tallies.values())

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies.values())


class Connection:
    """One keep-alive HTTP/1.1 connection with TCP_NODELAY."""

    def __init__(self, url: str):
        host, port = url.split("://", 1)[1].rstrip("/").split(":")
        self._address = (host, int(port))
        self._http: Optional[http.client.HTTPConnection] = None

    def _open(self) -> http.client.HTTPConnection:
        if self._http is None:
            self._http = http.client.HTTPConnection(*self._address,
                                                    timeout=REQUEST_TIMEOUT_S)
            self._http.connect()
            self._http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self._http

    def post(self, path: str, body: bytes, request_id: str) -> Tuple[int, bytes]:
        connection = self._open()
        connection.request("POST", path, body=body, headers={
            "Content-Type": "application/json", "X-Trace-Id": request_id})
        response = connection.getresponse()
        raw = response.read()
        if response.will_close:
            self.close()
        return response.status, raw

    def get(self, path: str) -> bytes:
        connection = self._open()
        connection.request("GET", path)
        response = connection.getresponse()
        raw = response.read()
        if response.status >= 400:
            raise RuntimeError(f"GET {path} -> {response.status}: {raw[:200]!r}")
        return raw

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


def issue(connection: Connection, operation: Operation, request_id: str,
          outcome: Outcome, lock: threading.Lock) -> Optional[bytes]:
    """Send one operation, account for it, return the body on success."""
    path = PATHS[operation.kind]
    started = time.perf_counter()
    status, raw, failure = 0, b"", None
    try:
        status, raw = connection.post(path, operation.body, request_id)
    except socket.timeout:
        failure = "timeouts"
    except (ConnectionError, http.client.HTTPException, OSError):
        failure = "resets"
    ended = time.perf_counter()
    if failure is None and status >= 400:
        failure = "shed_503" if status == 503 else "http_errors"
    if failure is not None:
        connection.close()
    with lock:
        tally = outcome.tally(operation.kind)
        tally.attempts += 1
        if failure is not None:
            setattr(tally, failure, getattr(tally, failure) + 1)
            return None
        tally.ok += 1
        outcome.samples.append(Sample(request_id, operation.kind, started, ended,
                                      len(raw)))
    return raw


def cpu_ticks() -> Optional[List[int]]:
    """Host-wide CPU time counters from /proc/stat; the eighth is steal."""
    try:
        with open("/proc/stat") as stat:
            return [int(value) for value in stat.readline().split()[1:]]
    except OSError:
        return None


def steal_ratio(before: Optional[List[int]], after: Optional[List[int]]) -> Optional[float]:
    """Share of host CPU time the hypervisor gave to other guests in between."""
    if not before or not after or len(after) < 8 or sum(after) <= sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


class Stream:
    """A connection's operations, consumed in order across phases; wraps when exhausted.

    ``start`` is where :meth:`rewind` puts the stream back: the operations
    before it belong to the count pass.
    """

    def __init__(self, operations: Sequence[Operation], start: int = 0):
        self.operations = list(operations)
        self.start = start
        self.position = start
        self.wraps = 0

    def rewind(self) -> None:
        self.position = self.start

    def next(self) -> Operation:
        if self.position == len(self.operations):
            self.position = 0
            self.wraps += 1
        operation = self.operations[self.position]
        self.position += 1
        return operation


def closed_loop(url: str, streams: Sequence[Stream], seconds: float, tag: str, *,
                writer: Optional[Stream] = None, windows: int = 1) -> Outcome:
    """Run every stream on its own connection for ``seconds``.

    The optional ``writer`` stream issues inserts on one more connection
    and records every acknowledged ``(seq, triple)``.  The phase is cut
    into ``windows`` equal slices; the host CPU counters are read at each
    boundary (:attr:`Outcome.boundaries`).
    """
    outcome = Outcome()
    lock = threading.Lock()
    deadline = [float("inf")]
    errors: List[BaseException] = []

    def run(index: int, stream: Stream, writes: bool) -> None:
        connection = Connection(url)
        sent = 0
        try:
            while time.perf_counter() < deadline[0]:
                operation = stream.next()
                raw = issue(connection, operation, f"{tag}-{index}-{sent}",
                            outcome, lock)
                sent += 1
                if writes and raw is not None:
                    with lock:
                        outcome.acknowledged.append(
                            (json.loads(raw)["seq"], operation.triple))
        except BaseException as error:  # noqa: BLE001 - re-raised by the caller
            errors.append(error)
        finally:
            connection.close()

    jobs = [(index, stream, False) for index, stream in enumerate(streams)]
    if writer is not None:
        jobs.append((len(jobs), writer, True))
    threads = [threading.Thread(target=run, args=job, name=f"client-{job[0]}")
               for job in jobs]
    cpu_before = time.process_time()
    started = time.perf_counter()
    outcome.boundaries.append((started, cpu_ticks()))
    try:
        for thread in threads:
            thread.start()
        for window in range(1, windows + 1):
            time.sleep(max(0.0, started + seconds * window / windows - time.perf_counter()))
            outcome.boundaries.append((time.perf_counter(), cpu_ticks()))
    finally:
        deadline[0] = time.perf_counter()
        for thread in threads:
            thread.join()
    outcome.seconds = time.perf_counter() - started
    outcome.client_cpu_seconds = time.process_time() - cpu_before
    if errors:
        raise errors[0]
    return outcome


def sequential(url: str, operations: Sequence[Operation], tag: str
               ) -> Tuple[Outcome, List[Optional[bytes]]]:
    """Issue ``operations`` one at a time on one connection, keeping the bodies."""
    outcome = Outcome()
    lock = threading.Lock()
    connection = Connection(url)
    bodies: List[Optional[bytes]] = []
    started = time.perf_counter()
    outcome.boundaries.append((started, cpu_ticks()))
    try:
        for position, operation in enumerate(operations):
            raw = issue(connection, operation, f"{tag}-{position}", outcome, lock)
            bodies.append(raw)
            if operation.kind == "insert" and raw is not None:
                outcome.acknowledged.append((json.loads(raw)["seq"], operation.triple))
    finally:
        connection.close()
    outcome.boundaries.append((time.perf_counter(), cpu_ticks()))
    outcome.seconds = outcome.boundaries[-1][0] - started
    return outcome, bodies


def concurrent(url: str, operations: Sequence[Sequence[Operation]], tag: str) -> Outcome:
    """Issue every list of operations on its own connection, one at a time, all at once."""
    outcomes: List[Outcome] = [Outcome() for _ in operations]

    def run(index: int) -> None:
        outcomes[index] = sequential(url, operations[index], f"{tag}{index}")[0]

    threads = [threading.Thread(target=run, args=(index,)) for index in range(len(operations))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return merge(*outcomes)


def fetch(url: str, path: str) -> bytes:
    connection = Connection(url)
    try:
        return connection.get(path)
    finally:
        connection.close()


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of an unsorted sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def as_operations(queries: Sequence[Query]) -> List[Operation]:
    return [Operation.of(kind, triple) for kind, triple in queries]


def merge(*outcomes: Outcome) -> Outcome:
    """Failure accounting and acknowledged writes of several phases together."""
    total = Outcome()
    for outcome in outcomes:
        total.acknowledged.extend(outcome.acknowledged)
        for kind, tally in outcome.tallies.items():
            into = total.tally(kind)
            for name in ("attempts", "ok", "http_errors", "shed_503", "timeouts",
                         "resets"):
                setattr(into, name, getattr(into, name) + getattr(tally, name))
    return total
