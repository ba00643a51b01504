"""httperf-style HTTP load generation for the Jetty stand-in.

:class:`HttpConnectionClient` drives one keep-alive connection through N
serial GET requests, recording per-request latency and received bytes —
the measurement unit of the paper's Figure 5 ("Each connection makes 5
serial requests for a 40 Kbyte file").

:class:`HttperfLoad` opens connections at a fixed rate for a fixed
duration and aggregates reply throughput and latency, like httperf's
report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from ..obs.metrics import nearest_rank
from .loadgen import (
    FAILURE_PROTOCOL,
    FAILURE_REFUSED,
    FAILURE_TIMEOUT,
    SessionFailure,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM


class HttpConnectionClient:
    """One keep-alive connection issuing serial GET requests."""

    def __init__(
        self,
        vm: "VM",
        port: int,
        path: str,
        num_requests: int = 5,
        poll_ms: float = 1.0,
        timeout_ms: float = 4_000.0,
    ):
        self.vm = vm
        self.port = port
        self.path = path
        self.num_requests = num_requests
        self.poll_ms = poll_ms
        self.timeout_ms = timeout_ms
        self.latencies_ms: List[float] = []
        self.bytes_received = 0
        self.statuses: List[int] = []
        self.done = False
        self.failed: Optional[SessionFailure] = None
        self.finished_at: Optional[float] = None
        self._endpoint = None
        self._buffer = ""
        self._request_sent_at: Optional[float] = None
        self._requests_issued = 0
        self._started_at: Optional[float] = None

    def start(self, at_ms: float) -> "HttpConnectionClient":
        self.vm.events.schedule(at_ms, self._connect)
        return self

    # ------------------------------------------------------------------

    def _connect(self) -> None:
        try:
            self._endpoint = self.vm.network.client_connect(self.port)
        except ConnectionRefusedError as exc:
            self._started_at = self.vm.clock.now_ms
            self._fail(str(exc), kind=FAILURE_REFUSED)
            return
        self._started_at = self.vm.clock.now_ms
        self._send_next_request()
        self._schedule_poll()

    def _send_next_request(self) -> None:
        self._requests_issued += 1
        self._request_sent_at = self.vm.clock.now_ms
        self._endpoint.send(
            f"GET {self.path} HTTP/1.1\r\nHost: sim\r\n\r\n"
        )

    def _schedule_poll(self) -> None:
        self.vm.events.schedule(self.vm.clock.now_ms + self.poll_ms, self._poll)

    def _fail(self, reason: str, kind: str = FAILURE_PROTOCOL) -> None:
        self.failed = SessionFailure(kind, reason)
        self.done = True
        self.finished_at = self.vm.clock.now_ms
        if self._endpoint is not None:
            self._endpoint.close()

    def _poll(self) -> None:
        if self.done:
            return
        assert self._started_at is not None
        if self.vm.clock.now_ms - self._started_at > self.timeout_ms:
            self._fail(
                f"timeout after {len(self.latencies_ms)} responses",
                kind=FAILURE_TIMEOUT,
            )
            return
        self._buffer += self._endpoint.receive()
        response = self._try_parse_response()
        while response is not None:
            status, body_bytes, total_bytes = response
            self.statuses.append(status)
            self.bytes_received += total_bytes
            assert self._request_sent_at is not None
            self.latencies_ms.append(self.vm.clock.now_ms - self._request_sent_at)
            if self._requests_issued >= self.num_requests:
                self._endpoint.close()
                self.done = True
                self.finished_at = self.vm.clock.now_ms
                return
            self._send_next_request()
            response = self._try_parse_response()
        self._schedule_poll()

    def _try_parse_response(self):
        """Parse one complete response from the buffer, or return None."""
        separator = self._buffer.find("\r\n\r\n")
        if separator < 0:
            return None
        head = self._buffer[:separator]
        lines = head.split("\r\n")
        status_parts = lines[0].split(" ")
        if len(status_parts) < 2 or not status_parts[0].startswith("HTTP/"):
            self._fail(f"malformed status line {lines[0]!r}")
            return None
        status = int(status_parts[1])
        content_length = 0
        for line in lines[1:]:
            if line.lower().startswith("content-length:"):
                content_length = int(line.split(":", 1)[1].strip())
        body_start = separator + 4
        if len(self._buffer) < body_start + content_length:
            return None
        total = body_start + content_length
        self._buffer = self._buffer[total:]
        return status, content_length, total

    @property
    def succeeded(self) -> bool:
        return self.done and self.failed is None

    @property
    def failure_kind(self) -> str:
        return self.failed.kind if self.failed is not None else ""

    @property
    def started_at(self) -> Optional[float]:
        return self._started_at

    @property
    def duration_ms(self) -> Optional[float]:
        if self._started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self._started_at


class HttperfLoad:
    """Fixed-rate connection generator with an httperf-style report."""

    def __init__(
        self,
        vm: "VM",
        port: int,
        path: str,
        connections_per_second: float,
        duration_ms: float,
        start_ms: float = 0.0,
        requests_per_connection: int = 5,
        **client_kwargs,
    ):
        self.vm = vm
        self.clients: List[HttpConnectionClient] = []
        interval = 1000.0 / connections_per_second
        count = int(duration_ms / interval)
        for index in range(count):
            client = HttpConnectionClient(
                vm, port, path, num_requests=requests_per_connection, **client_kwargs
            )
            client.start(start_ms + index * interval)
            self.clients.append(client)
        self.start_ms = start_ms
        self.duration_ms = duration_ms

    # ------------------------------------------------------------------
    # report

    @property
    def completed_connections(self) -> int:
        return sum(1 for c in self.clients if c.succeeded)

    @property
    def failed_connections(self) -> List[HttpConnectionClient]:
        return [c for c in self.clients if c.done and c.failed]

    def total_bytes(self) -> int:
        return sum(c.bytes_received for c in self.clients)

    def latencies(self) -> List[float]:
        values: List[float] = []
        for client in self.clients:
            values.extend(client.latencies_ms)
        return values

    def throughput_mb_per_s(self) -> float:
        """Mean reply throughput over the run window (MB/s)."""
        elapsed_s = self.duration_ms / 1000.0
        return self.total_bytes() / (1024.0 * 1024.0) / elapsed_s if elapsed_s else 0.0

    def latency_summary(self):
        """(median, lower quartile, upper quartile) of per-request latency."""
        values = sorted(self.latencies())
        if not values:
            return (0.0, 0.0, 0.0)
        return tuple(nearest_rank(values, f) for f in (0.50, 0.25, 0.75))
