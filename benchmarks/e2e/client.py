"""The load generator and the server process it drives.

The server under test always runs out of process (``python -m repro.server``
or the traced wrapper), pinned to its own core where the machine has two, so
the numbers measure the program and not the generator sharing its GIL.  The
generator is one asyncio loop speaking the public line-JSON protocol over at
most ``nproc`` query connections.  Its rules:

* request lines are encoded before the clock starts;
* open-loop latency runs from the *scheduled* send time, so a server stall
  shows up in the latencies instead of silently thinning the offered load;
* the dispatcher yields through the event loop for the last milliseconds
  instead of trusting ``asyncio.sleep`` (and so keeps servicing reads);
* on the hot path a response is only substring-checked for ``"ok": true``;
  full JSON decoding happens after the phase, for the verified sample;
* raw latencies are kept as lists, so percentiles are exact.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from collections import deque
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Set, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SOURCE_ROOT = os.path.join(REPO_ROOT, "src")
TRACED_SERVER = os.path.join(HERE, "traced_server.py")

#: Seconds a request may stay unanswered before it counts as failed.
REQUEST_TIMEOUT = 15.0
#: The dispatcher sleeps until this long before a send is due, then spins.
SPIN_SECONDS = 0.002

_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
#: Connections per query class: at most ``nproc`` (a closed loop with more
#: clients than cores measures the scheduler).
QUERY_CONNECTIONS = max(1, min(2, len(_CPUS)))


def pin_generator() -> None:
    """Keep the generator off the server's core when there are two."""
    if len(_CPUS) >= 2:
        os.sched_setaffinity(0, {_CPUS[0]})


def response_ok(line: bytes) -> bool:
    head = line[:48]
    return b'"ok": true' in head or b'"ok":true' in head


class ServerProcess:
    """One server subprocess on an ephemeral port; always reaped."""

    def __init__(self, catalog_dir: str, trace_out: Optional[str] = None) -> None:
        argv = [sys.executable]
        if trace_out is None:
            argv += ["-m", "repro.server"]
        else:
            argv += [TRACED_SERVER, "--trace-out", trace_out]
        argv += [
            catalog_dir, "--port", "0",
            "--request-timeout", str(REQUEST_TIMEOUT),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = SOURCE_ROOT + os.pathsep + env.get("PYTHONPATH", "")
        self.trace_out = trace_out
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
        if len(_CPUS) >= 2:
            os.sched_setaffinity(self.process.pid, {_CPUS[1]})
        assert self.process.stdout is not None
        banner = self.process.stdout.readline().decode()
        if "serving catalog" not in banner:
            self.kill()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.rsplit(",", 1)[1].strip(" )\n"))

    def _proc_value(self, filename: str, key: str) -> int:
        with open(f"/proc/{self.process.pid}/{filename}") as handle:
            for line in handle:
                if line.startswith(key):
                    return int(line.split()[1])
        raise RuntimeError(f"no {key} in /proc/{self.process.pid}/{filename}")

    def peak_rss_mb(self) -> float:
        return self._proc_value("status", "VmHWM:") / 1024.0

    def disk_write_bytes(self) -> int:
        """Bytes this process has sent to the storage layer so far."""
        return self._proc_value("io", "write_bytes:")

    def dump_trace(self) -> None:
        """Ask a traced server to write its spans now (it keeps running)."""
        assert self.trace_out is not None
        marker = self.trace_out + ".done"
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + REQUEST_TIMEOUT
        while not os.path.exists(marker):
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not dump its spans")
            time.sleep(0.01)
        os.unlink(marker)

    def kill(self) -> None:
        """SIGKILL: the crash the durability checks are about."""
        self._finish(signal.SIGKILL)

    def stop(self) -> None:
        """SIGTERM (a traced server writes its spans on the way out)."""
        self._finish(signal.SIGTERM)

    def _finish(self, signum: int) -> None:
        process = self.process
        if process.poll() is None:
            process.send_signal(signum)
            try:
                process.wait(timeout=REQUEST_TIMEOUT)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


class Control:
    """A blocking one-request-at-a-time connection for set-up and probes."""

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(
            ("127.0.0.1", port), timeout=REQUEST_TIMEOUT
        )
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.socket.makefile("rwb")

    def call_raw(self, line: bytes) -> bytes:
        self.stream.write(line)
        self.stream.flush()
        answer = self.stream.readline()
        if not answer:
            raise ConnectionError("server closed the connection")
        return answer

    def call(self, request: Dict[str, Any]) -> Any:
        """The ``result`` of one request; raises when the server says no."""
        answer = json.loads(self.call_raw(json.dumps(request).encode() + b"\n"))
        if not answer.get("ok"):
            raise RuntimeError(f"{request.get('op')} failed: {answer.get('error')}")
        return answer["result"]

    def close(self) -> None:
        self.stream.close()
        self.socket.close()


class Recorder:
    """Per-request facts of one phase, kept raw (one list slot per request)."""

    def __init__(self, keep: Iterable[int] = ()) -> None:
        self.klass: List[str] = []
        #: When each request should have gone out (open loop) or did (closed).
        self.due: List[float] = []
        self.scheduled: List[bool] = []
        self.sent: List[float] = []
        self.done: List[float] = []
        self.ok: List[bool] = []
        self.size: List[int] = []
        self.keep: Set[int] = set(keep)
        self.kept: Dict[int, bytes] = {}
        self.outstanding = 0
        self.started = 0.0
        self.ended = 0.0

    def begin(self, klass: str, due: Optional[float], now: float) -> int:
        index = len(self.due)
        self.klass.append(klass)
        self.due.append(now if due is None else due)
        self.scheduled.append(due is not None)
        self.sent.append(now)
        self.done.append(0.0)
        self.ok.append(False)
        self.size.append(0)
        self.outstanding += 1
        return index

    def complete(self, index: int, line: bytes, now: float) -> None:
        self.done[index] = now
        self.ok[index] = response_ok(line)
        self.size[index] = len(line)
        self.outstanding -= 1
        if index in self.keep:
            self.kept[index] = line

    def indexes(self, klass: str) -> List[int]:
        return [index for index, name in enumerate(self.klass) if name == klass]

    def latencies(self, klass: str, since: float = 0.0,
                  until: float = float("inf")) -> List[float]:
        """Latencies (seconds, from the due time) of answered requests."""
        return [
            self.done[index] - self.due[index]
            for index in self.indexes(klass)
            if self.ok[index] and since <= self.due[index] < until
        ]

    def late(self) -> List[float]:
        """How late the dispatcher fired each scheduled request (seconds)."""
        return [
            sent - due
            for sent, due, scheduled in zip(self.sent, self.due, self.scheduled)
            if scheduled
        ]

    def failed(self, klass: str) -> int:
        """Requests with no answer in time, or an ``ok: false`` answer."""
        return sum(1 for index in self.indexes(klass) if not self.ok[index])

    def completed(self, klass: str) -> int:
        return sum(1 for index in self.indexes(klass) if self.ok[index])


class LineClient(asyncio.Protocol):
    """A pipelined line-JSON connection; answers arrive in request order."""

    def __init__(self) -> None:
        self.transport: Optional[asyncio.Transport] = None
        self.pending: Deque[int] = deque()
        self.recorder: Optional[Recorder] = None
        self.feeder = None
        self._buffer = b""

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        sock = transport.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def data_received(self, data: bytes) -> None:
        now = time.perf_counter()
        lines = (self._buffer + data).split(b"\n")
        self._buffer = lines.pop()
        recorder = self.recorder
        for line in lines:
            index = self.pending.popleft()
            if recorder is not None:
                recorder.complete(index, line, now)
            if self.feeder is not None:
                self.feeder(self)

    def request(self, klass: str, line: bytes, due: Optional[float]) -> None:
        assert self.recorder is not None and self.transport is not None
        self.pending.append(self.recorder.begin(klass, due, time.perf_counter()))
        self.transport.write(line)


class Generator:
    """Connections by traffic class, and the two loop disciplines over them."""

    def __init__(self, port: int, classes: Sequence[str]) -> None:
        self.port = port
        self.classes = classes
        self.clients: Dict[str, List[LineClient]] = {}

    async def __aenter__(self) -> Generator:
        loop = asyncio.get_running_loop()
        for klass in self.classes:
            if klass == "slice":
                continue
            count = QUERY_CONNECTIONS if klass == "query" else 1
            self.clients[klass] = [
                (await loop.create_connection(LineClient, "127.0.0.1", self.port))[1]
                for _ in range(count)
            ]
        # Multi-row reads are their own class in the books, but they share
        # the query connections: a reader sends both over one socket.
        self.clients["slice"] = self.clients["query"]
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        for clients in self.clients.values():
            for client in clients:
                if client.transport is not None:
                    client.transport.close()
        await asyncio.sleep(0)

    def _attach(self, recorder: Recorder) -> None:
        for clients in self.clients.values():
            for client in clients:
                client.recorder = recorder

    async def run(
        self,
        seconds: float,
        schedule: Sequence[Tuple[float, str, bytes]] = (),
        closed_lines: Sequence[bytes] = (),
        window: int = 0,
        connections: int = QUERY_CONNECTIONS,
        keep: Iterable[int] = (),
    ) -> Recorder:
        """One phase: an open-loop ``schedule`` and/or a closed query loop.

        ``schedule`` holds ``(offset, class, line)`` sorted by offset and is
        dispatched on time whatever the server does.  ``closed_lines`` are
        cycled over ``connections`` query connections with ``window`` requests
        in flight on each, the next sent only when an answer arrives, until
        ``seconds`` have passed.  ``keep`` names the request indexes whose
        raw answers are retained for verification.
        """
        recorder = Recorder(keep)
        self._attach(recorder)
        start = time.perf_counter() + 0.02
        end = start + seconds
        recorder.started = start
        cursor = 0

        def feed(client: LineClient) -> None:
            nonlocal cursor
            if time.perf_counter() < end:
                client.request("query", closed_lines[cursor % len(closed_lines)], None)
                cursor += 1

        if closed_lines:
            while time.perf_counter() < start:
                await asyncio.sleep(0)
            for client in self.clients["query"][:connections]:
                client.feeder = feed
                for _ in range(window):
                    feed(client)
        turn = 0
        for offset, klass, line in schedule:
            due = start + offset
            while True:
                remaining = due - time.perf_counter()
                if remaining <= 0:
                    break
                await asyncio.sleep(
                    remaining - SPIN_SECONDS if remaining > 2 * SPIN_SECONDS else 0
                )
            clients = self.clients[klass]
            clients[turn % len(clients)].request(klass, line, due)
            turn += 1
        while time.perf_counter() < end:
            await asyncio.sleep(0.001)
        recorder.ended = time.perf_counter()
        # The server answers ``ok: false`` by itself at REQUEST_TIMEOUT; allow
        # that answer to arrive before giving up on the connection.
        deadline = recorder.ended + REQUEST_TIMEOUT + 2.0
        while recorder.outstanding and time.perf_counter() < deadline:
            await asyncio.sleep(0.001)
        for clients in self.clients.values():
            for client in clients:
                client.feeder = None
        if recorder.outstanding:
            # A wedged server.  Fail the run loudly: carrying on would match a
            # late answer to a later phase's request.
            raise TimeoutError(
                f"{recorder.outstanding} requests unanswered after "
                f"{REQUEST_TIMEOUT}s"
            )
        return recorder
