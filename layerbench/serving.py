"""The ``serve_http`` workload: a server process and a closed-loop HTTP client.

The server is ``repro serve --model <flat artifact>`` at its defaults (the
traced run starts ``traced_server.py`` instead, which wraps the same command).
The client runs in the benchmark process: two keep-alive loopback
connections, each sending its next single-document ``POST /classify`` only
after the previous answer arrived.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import SHORT_MIX, short_slices

CONNECTIONS = 2
HOT_SET = 64
#: share of requests that repeat a hot-set document (the cache's work)
HOT_SHARE = 0.2
SEQUENCE = 50_000
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_BOUND = re.compile(r"on http://([\d.]+):(\d+)")


def request_documents(test, seed: int):
    """Distinct cold slices, a hot set, and the seeded request order.

    Returns ``(documents, order)``: ``documents`` is a list of ``(text,
    gold)``; ``order`` indexes it.  Cold documents are sent round-robin; one
    request in five (seeded) picks a hot-set document instead.  The cold
    cycle is longer than the server's 1024-entry cache, so cold documents
    always miss.
    """
    cold = short_slices(test, seed, SHORT_MIX)
    hot = short_slices(test, seed, HOT_SET, salt=2)
    rng = np.random.default_rng([seed, 3])
    is_hot = rng.random(SEQUENCE) < HOT_SHARE
    hot_pick = SHORT_MIX + rng.integers(0, HOT_SET, SEQUENCE)
    cold_pick = np.cumsum(~is_hot) % SHORT_MIX
    return cold + hot, np.where(is_hot, hot_pick, cold_pick)


def encode_request(text: str) -> bytes:
    body = json.dumps({"text": text}).encode("utf-8")
    head = (
        "POST /classify HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, str, bytes]:
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _sep, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.readexactly(int(headers.get("content-length", "0")))
    return status, headers.get("x-request-id", ""), body


@dataclass
class Exchange:
    """One request and its answer."""

    document: int
    sent_ns: int
    answered_ns: int
    status: int
    trace_id: str
    body: bytes


@dataclass
class Client:
    """Closed-loop load over keep-alive connections, shared request order."""

    port: int
    requests: list[bytes]
    order: np.ndarray
    position: int = 0
    exchanges: list[Exchange] = field(default_factory=list)

    async def _connection(self, deadline: float, record: bool) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            while time.perf_counter() < deadline:
                document = int(self.order[self.position % self.order.size])
                self.position += 1
                sent = time.perf_counter_ns()
                writer.write(self.requests[document])
                status, trace_id, body = await _read_response(reader)
                if record:
                    self.exchanges.append(
                        Exchange(document, sent, time.perf_counter_ns(), status, trace_id, body)
                    )
        finally:
            writer.close()
            await writer.wait_closed()

    def run(self, seconds: float, record: bool = True) -> None:
        deadline = time.perf_counter() + seconds

        async def main():
            await asyncio.gather(
                *(self._connection(deadline, record) for _ in range(CONNECTIONS))
            )

        asyncio.run(main())


def first_answer(port: int, request: bytes) -> int:
    """Send one request on a fresh connection; return the status."""

    async def main():
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(request)
            status, _trace_id, _body = await _read_response(reader)
            return status
        finally:
            writer.close()
            await writer.wait_closed()

    return asyncio.run(main())


class ServerProcess:
    """One server process on an ephemeral loopback port."""

    def __init__(self, argv: list[str], root: Path, log: Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self._log = log.open("ab")
        self.process = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self._log,
            stdin=subprocess.DEVNULL,
        )
        # a server that never prints its address is killed, ending the read
        watchdog = threading.Timer(START_TIMEOUT_S, self.process.kill)
        watchdog.start()
        try:
            self.port = self._read_port()
        finally:
            watchdog.cancel()

    def _read_port(self) -> int:
        for raw in self.process.stdout:
            match = _BOUND.search(raw.decode("utf-8", "replace"))
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError(f"server exited with {self.process.returncode} before binding")

    def stop(self) -> None:
        """Interrupt (the server drains and exits), then wait for it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._log.close()


def server_argv(model: Path, spans: Path | None = None) -> list[str]:
    serve = ["serve", "--model", str(model), "--port", "0"]
    if spans is None:
        return [sys.executable, "-m", "repro", *serve]
    traced = Path(__file__).resolve().parent / "traced_server.py"
    return [sys.executable, str(traced), str(spans), *serve]


def start_server(argv, root: Path, log: Path, probe: bytes) -> tuple[ServerProcess, float]:
    """Start a server; seconds from spawn to its first 200 from ``/classify``."""
    start = time.perf_counter()
    server = ServerProcess(argv, root, log)
    try:
        status = first_answer(server.port, probe)
    except BaseException:
        server.stop()
        raise
    if status != 200:
        server.stop()
        raise RuntimeError(f"first /classify answered {status}")
    return server, time.perf_counter() - start


def check_exchanges(exchanges, expected, golds, tally) -> None:
    """Each answer must equal direct ``classify_batch`` output for its document.

    Accuracy counts each distinct document once, so the repeated hot set
    does not outweigh the rest of the mix.
    """
    scored = set()
    for exchange in exchanges:
        tally.attempted += 1
        if exchange.status != 200:
            tally.fail(f"HTTP {exchange.status}: {exchange.body[:120]!r}")
            continue
        answer = json.loads(exchange.body)
        want = expected[exchange.document]
        if (
            answer.get("language") != want.language
            or answer.get("match_counts") != want.match_counts
            or answer.get("ngram_count") != want.ngram_count
        ):
            tally.fail(f"document {exchange.document}: {answer} != {want}")
            continue
        if exchange.document not in scored:
            scored.add(exchange.document)
            tally.correct += answer["language"] == golds[exchange.document]
            tally.scored += 1
