"""HTTP load generator: one process, at most ``nproc`` keep-alive connections.

Each connection is owned by one thread and keeps the default TCP
behaviour of ``http.client`` (no socket option is set), so what the
generator measures is what any stdlib client of ``repro serve`` gets.

Open loop: requests have due times on a schedule fixed before the phase
starts.  A free connection takes the next request, waits for its due
time and sends it; latency is timed from the due time, so a stall that
holds both connections is charged to the requests that wait behind it.
Closed loop: each connection sends its next request as soon as the
previous answer arrives.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

#: A connection that was free but sent this much after the due time
#: means the generator itself fell behind: the run is not valid.
MAX_GENERATOR_LATE_S = 0.050


@dataclass
class Request:
    """One ``/v1/link`` request; ``index`` is unique within a run."""

    query: str
    index: int
    k: int
    tenant: str = ""
    due: float = 0.0  # open loop: seconds after the phase start

    def body(self) -> bytes:
        return json.dumps({"query": self.query, "k": self.k}).encode()

    def headers(self) -> Dict[str, str]:
        headers = {
            "Content-Type": "application/json",
            "X-Request-ID": f"lb-{self.index}",
        }
        if self.tenant:
            headers["X-Tenant"] = self.tenant
        return headers


@dataclass
class Sample:
    """What happened to one request (``perf_counter`` seconds)."""

    request: Request
    due: float = 0.0
    free: float = 0.0  # when a connection became free to take it
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: Optional[dict] = None

    @property
    def answered(self) -> bool:
        return self.status == 200 and self.payload is not None

    @property
    def generator_late_s(self) -> float:
        """Send delay the generator caused while a connection was free."""
        return max(0.0, self.sent - max(self.due, self.free))


@dataclass
class Phase:
    """The samples of one load phase and its wall-clock window."""

    samples: List[Sample] = field(default_factory=list)
    started: float = 0.0
    elapsed: float = 0.0

    def latencies_s(self, ok: Callable[[Sample], bool]) -> List[float]:
        """Latency from due time; a request that failed counts as +inf."""
        return [
            sample.done - sample.due if ok(sample) else float("inf")
            for sample in self.samples
        ]

    def backlog_max(self) -> int:
        """Most requests ever due but not yet sent (open loop)."""
        sends = sorted(sample.sent for sample in self.samples)
        dues = sorted(sample.due for sample in self.samples)
        worst = 0
        sent = 0
        for index, due in enumerate(dues):
            while sent < len(sends) and sends[sent] <= due:
                sent += 1
            worst = max(worst, index + 1 - sent)
        return worst


class Connection:
    """One keep-alive HTTP/1.1 connection that reconnects after errors."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        headers: Optional[Dict[str, str]] = None,
    ):
        """``(status, parsed JSON or None)``; raises on transport errors."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
        try:
            self._conn.request(method, path, body=body, headers=headers or {})
            response = self._conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return response.status, payload

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def send(connection: Connection, sample: Sample) -> None:
    request = sample.request
    try:
        sample.status, sample.payload = connection.request(
            "POST", "/v1/link", request.body(), request.headers()
        )
    except (OSError, http.client.HTTPException):
        pass  # status stays 0: a failed request
    sample.done = time.perf_counter()


def _run_threads(target: Callable[[], None], count: int) -> None:
    threads = [threading.Thread(target=target) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(
    port: int,
    schedule: Sequence[Request],
    connections: int,
    start: float,
) -> Phase:
    """Send ``schedule`` (sorted by ``due``) from ``start`` on."""
    phase = Phase(
        samples=[Sample(request, due=start + request.due) for request in schedule],
        started=start,
    )
    cursor = [0]
    lock = threading.Lock()

    def worker() -> None:
        connection = Connection(port)
        try:
            while True:
                free = time.perf_counter()
                with lock:
                    index = cursor[0]
                    if index >= len(phase.samples):
                        return
                    cursor[0] += 1
                sample = phase.samples[index]
                sample.free = free
                delay = sample.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sample.sent = time.perf_counter()
                send(connection, sample)
        finally:
            connection.close()

    _run_threads(worker, connections)
    phase.elapsed = time.perf_counter() - start
    return phase


def closed_loop(
    port: int,
    next_request: Callable[[], Request],
    connections: int,
    seconds: float,
) -> Phase:
    """Back-to-back requests on ``connections`` threads for ``seconds``.

    Every request sent inside the window is waited for, so none is left
    in flight when the phase ends.
    """
    phase = Phase(started=time.perf_counter())
    lock = threading.Lock()
    stop_at = phase.started + seconds

    def worker() -> None:
        connection = Connection(port)
        try:
            while time.perf_counter() < stop_at:
                with lock:
                    request = next_request()
                now = time.perf_counter()
                sample = Sample(request, due=now, free=now, sent=now)
                send(connection, sample)
                with lock:
                    phase.samples.append(sample)
        finally:
            connection.close()

    _run_threads(worker, connections)
    phase.elapsed = time.perf_counter() - phase.started
    return phase


def wait_answer(port: int, request: Request, deadline: float) -> float:
    """Poll until ``request`` is answered 200; returns the answer time."""
    connection = Connection(port, timeout=5.0)
    try:
        while True:
            try:
                status, _ = connection.request(
                    "POST", "/v1/link", request.body(), request.headers()
                )
                if status == 200:
                    return time.perf_counter()
            except (OSError, http.client.HTTPException):
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("server never answered")
            time.sleep(0.005)
    finally:
        connection.close()
