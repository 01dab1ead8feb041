"""Tests for the stdlib asyncio JSON/HTTP front-end of ``repro.serve``.

Drives the real server over a loopback socket: single and batched
classification, health and metrics endpoints, and the error mapping
(400 bad JSON, 404 unknown path, 405 wrong method, 413 oversized document).
"""

import asyncio
import io
import json

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.corpus import build_jrc_acquis_like
from repro.obs import JsonLogger
from repro.serve import ClassificationService, ServeConfig, http, serve_http


@pytest.fixture(scope="module")
def identifier():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=8, words_per_document=150, seed=23
    )
    config = ClassifierConfig(m_bits=8 * 1024, k=4, t=1200, seed=1)
    return LanguageIdentifier(config).train(corpus)


class _Client:
    """Minimal HTTP/1.1 client speaking over one keep-alive connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def request_full(self, method, path, payload=None):
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = f"{method} {path} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n"
        self.writer.write(head.encode("ascii") + body)
        await self.writer.drain()
        status_line = (await self.reader.readline()).decode("ascii")
        status = int(status_line.split(" ", 2)[1])
        headers = {}
        while True:
            line = (await self.reader.readline()).decode("ascii").strip()
            if not line:
                break
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        raw = await self.reader.readexactly(int(headers.get("content-length", 0)))
        return status, headers, raw

    async def request(self, method, path, payload=None):
        status, _headers, raw = await self.request_full(method, path, payload)
        return status, raw

    async def request_json(self, method, path, payload=None):
        status, raw = await self.request(method, path, payload)
        return status, json.loads(raw.decode("utf-8"))

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


def run_with_server(identifier, scenario, config=None):
    async def main():
        service = ClassificationService(identifier, config or ServeConfig(max_delay_ms=1.0))
        async with service:
            server = await serve_http(service, host="127.0.0.1", port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            client = _Client(reader, writer)
            try:
                return await scenario(client, service)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

    return asyncio.run(main())


class TestClassifyEndpoint:
    def test_single_document(self, identifier):
        async def scenario(client, _service):
            return await client.request_json(
                "POST", "/classify", {"text": "quel est ce document ?"}
            )

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        assert payload["language"] in identifier.languages
        assert set(payload) == {
            "language",
            "match_counts",
            "ngram_count",
            "margin",
            "confidence",
        }
        assert 0.0 <= payload["confidence"] <= 1.0
        direct = identifier.classify("quel est ce document ?")
        assert payload["match_counts"] == direct.match_counts

    def test_batched_documents(self, identifier):
        texts = [f"el documento numero {i} del lote" for i in range(5)]

        async def scenario(client, _service):
            return await client.request_json("POST", "/classify", {"texts": texts})

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        direct = identifier.classify_batch(texts)
        assert [r["language"] for r in payload["results"]] == [r.language for r in direct]

    def test_empty_document_over_http(self, identifier):
        async def scenario(client, _service):
            return await client.request_json("POST", "/classify", {"text": ""})

        status, payload = run_with_server(identifier, scenario)
        assert status == 200 and payload["ngram_count"] == 0

    def test_bad_json_is_400(self, identifier):
        async def scenario(client, _service):
            client.writer.write(
                b"POST /classify HTTP/1.1\r\nContent-Length: 9\r\n\r\nnot json!"
            )
            await client.writer.drain()
            status_line = (await client.reader.readline()).decode("ascii")
            # drain the rest of the response so the connection stays coherent
            while (await client.reader.readline()).strip():
                pass
            return int(status_line.split(" ", 2)[1])

        assert run_with_server(identifier, scenario) == 400

    @pytest.mark.parametrize(
        "payload", [{"text": 42}, {"texts": "not-a-list"}, {"texts": [1, 2]}, {}, []]
    )
    def test_invalid_payload_is_400(self, identifier, payload):
        async def scenario(client, _service):
            status, _body = await client.request_json("POST", "/classify", payload)
            return status

        assert run_with_server(identifier, scenario) == 400

    def test_oversized_document_is_413(self, identifier):
        config = ServeConfig(max_document_bytes=32, max_delay_ms=1.0)

        async def scenario(client, service):
            status, payload = await client.request_json(
                "POST", "/classify", {"text": "y" * 64}
            )
            return status, payload, service.metrics.rejected_too_large

        status, payload, rejected = run_with_server(identifier, scenario, config)
        assert status == 413 and "error" in payload and rejected == 1

    @pytest.mark.parametrize("body", [[1, 2, 3], "just a string", 42])
    def test_non_dict_json_body_is_400(self, identifier, body):
        async def scenario(client, _service):
            return await client.request_full("POST", "/classify", body)

        status, _headers, raw = run_with_server(identifier, scenario)
        assert status == 400
        assert "JSON object" in json.loads(raw)["error"]

    @pytest.mark.parametrize(
        "method,path,allow",
        [
            ("GET", "/classify", "POST"),
            ("GET", "/segment", "POST"),
            ("POST", "/healthz", "GET"),
            ("POST", "/metrics", "GET"),
        ],
    )
    def test_405_carries_allow_header(self, identifier, method, path, allow):
        async def scenario(client, _service):
            return await client.request_full(method, path, {})

        status, headers, _raw = run_with_server(identifier, scenario)
        assert status == 405
        assert headers.get("allow") == allow

    def test_unknown_path_is_404(self, identifier):
        async def scenario(client, _service):
            status, _body = await client.request_json("GET", "/nope")
            return status

        assert run_with_server(identifier, scenario) == 404


class TestInternalErrors:
    def test_500_body_does_not_echo_the_exception(self, identifier, monkeypatch):
        marker = "marker-7f3a9c /srv/models/private.bin"

        async def failing_dispatch(*_request):
            raise RuntimeError(marker)

        monkeypatch.setattr(http, "_dispatch", failing_dispatch)
        stream = io.StringIO()

        async def scenario(client, service):
            service.logger = JsonLogger(stream)
            return await client.request("POST", "/classify", {"text": "bonjour"})

        status, raw = run_with_server(identifier, scenario)
        assert status == 500
        assert marker not in raw.decode("utf-8")
        assert json.loads(raw) == {"error": "internal error"}
        # the operator still sees what went wrong
        assert marker in stream.getvalue()


class TestSegmentEndpoint:
    def test_single_document_spans_tile_text(self, identifier):
        text = "the quick brown fox " * 20

        async def scenario(client, _service):
            return await client.request_json("POST", "/segment", {"text": text})

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        assert set(payload) == {
            "spans",
            "languages",
            "dominant_language",
            "text_length",
            "ngram_count",
            "window_count",
        }
        assert payload["text_length"] == len(text)
        spans = payload["spans"]
        assert spans[0]["start"] == 0 and spans[-1]["end"] == len(text)
        for left, right in zip(spans, spans[1:]):
            assert left["end"] == right["start"]
        direct = identifier.segment(text)
        assert [s["language"] for s in spans] == [s.language for s in direct.spans]

    def test_batched_documents(self, identifier):
        texts = ["hello there my friend " * 10, "quel est ce document la " * 10]

        async def scenario(client, _service):
            return await client.request_json("POST", "/segment", {"texts": texts})

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        assert len(payload["results"]) == 2
        for text, result in zip(texts, payload["results"]):
            assert result["text_length"] == len(text)

    def test_invalid_payload_is_400(self, identifier):
        async def scenario(client, _service):
            status, _body = await client.request_json("POST", "/segment", {"text": 42})
            return status

        assert run_with_server(identifier, scenario) == 400

    def test_oversized_document_is_413(self, identifier):
        config = ServeConfig(max_document_bytes=32, max_delay_ms=1.0)

        async def scenario(client, _service):
            status, _body = await client.request_json(
                "POST", "/segment", {"text": "y" * 64}
            )
            return status

        assert run_with_server(identifier, scenario, config) == 413

    def test_segment_requests_counted_separately(self, identifier):
        async def scenario(client, service):
            await client.request_json("POST", "/segment", {"text": "some text here"})
            await client.request_json("POST", "/classify", {"text": "some text here"})
            return service.metrics.segment_requests_total, service.metrics.requests_total

        segment_total, total = run_with_server(identifier, scenario)
        assert segment_total == 1 and total == 2


class TestHealthAndMetrics:
    def test_healthz_reports_topology(self, identifier):
        async def scenario(client, _service):
            return await client.request_json("GET", "/healthz")

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["languages"] == identifier.languages

    def test_healthz_reports_saturation_and_liveness(self, identifier):
        async def scenario(client, _service):
            return await client.request_json("GET", "/healthz")

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        # queue-depth saturation signals: visible before overload rejections
        assert payload["queue_depth"] == 0
        assert payload["oldest_wait_ms"] == 0.0
        # replica liveness, per worker
        workers = payload["pool"]["workers"]
        assert len(workers) == 1
        assert workers[0] == {"index": 0, "alive": True}
        # tracing policy and ring occupancy ride along
        assert payload["tracing"]["ring_occupancy"] == 0
        assert 0.0 <= payload["tracing"]["sample_rate"] <= 1.0

    def test_metrics_json_counts_requests(self, identifier):
        async def scenario(client, _service):
            await client.request_json("POST", "/classify", {"text": "bonjour le monde"})
            await client.request_json("POST", "/classify", {"text": "bonjour le monde"})
            return await client.request_json("GET", "/metrics")

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        assert payload["requests_total"] == 2
        assert payload["cache_hits"] == 1  # identical document replayed from the LRU
        assert set(payload["latency_ms"]) == {"p50", "p95", "p99"}
        assert sum(payload["batch_size_histogram"].values()) == payload["batches_total"]

    def test_metrics_text_format(self, identifier):
        async def scenario(client, _service):
            await client.request_json("POST", "/classify", {"text": "hola mundo"})
            status, raw = await client.request("GET", "/metrics?format=text")
            return status, raw.decode("utf-8")

        status, text = run_with_server(identifier, scenario)
        assert status == 200
        assert "repro_serve_requests_total 1" in text
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_latency_seconds{quantile="0.99"}' in text
        assert 'repro_serve_stage_duration_seconds_bucket{stage="kernel",le="+Inf"} 1' in text


class TestTracingEndpoints:
    @staticmethod
    def _config():
        return ServeConfig(
            max_delay_ms=1.0, trace_sample_rate=1.0, trace_slow_ms=float("inf")
        )

    def test_classify_responses_carry_request_ids(self, identifier):
        async def scenario(client, service):
            status, headers, raw = await client.request_full(
                "POST", "/classify", {"text": "quel est ce document ?"}
            )
            return status, headers, json.loads(raw), service.tracer.export()

        status, headers, payload, traces = run_with_server(
            identifier, scenario, config=self._config()
        )
        assert status == 200 and payload["language"] in identifier.languages
        request_id = headers["x-request-id"]
        # the id names a retained trace whose waterfall includes the HTTP
        # serialize span appended after the service closed the trace
        trace = next(t for t in traces if t["request_id"] == request_id)
        stages = [s["stage"] for s in trace["spans"]]
        assert stages[-1] == "serialize"
        assert "kernel" in stages
        assert trace["duration_ms"] == pytest.approx(
            sum(s["duration_ms"] for s in trace["spans"])
        )

    def test_batched_request_reports_first_trace_id(self, identifier):
        async def scenario(client, _service):
            return await client.request_full(
                "POST", "/classify", {"texts": ["uno", "dos", "tres"]}
            )

        status, headers, _raw = run_with_server(
            identifier, scenario, config=self._config()
        )
        assert status == 200
        assert len(headers["x-request-id"]) == 16

    def test_rejection_error_carries_request_id(self, identifier):
        async def scenario(client, _service):
            return await client.request_full("POST", "/classify", {"text": "y" * 64})

        config = ServeConfig(
            max_delay_ms=1.0, max_document_bytes=16, trace_sample_rate=1.0
        )
        status, headers, _raw = run_with_server(identifier, scenario, config=config)
        assert status == 413
        assert len(headers["x-request-id"]) == 16

    def test_debug_traces_returns_waterfalls(self, identifier):
        async def scenario(client, _service):
            for text in ("primero", "segundo", "tercero"):
                await client.request_json("POST", "/classify", {"text": text})
            return await client.request_json("GET", "/debug/traces")

        status, payload = run_with_server(identifier, scenario, config=self._config())
        assert status == 200
        assert len(payload["traces"]) == 3
        newest = payload["traces"][0]
        assert {"stage", "offset_ms", "duration_ms"} <= set(newest["spans"][0])
        assert payload["config"]["sample_rate"] == 1.0
        assert payload["config"]["traces_retained"] == 3

    def test_debug_traces_limit_and_errors(self, identifier):
        async def scenario(client, _service):
            await client.request_json("POST", "/classify", {"text": "un documento"})
            await client.request_json("POST", "/classify", {"text": "otro documento"})
            limited = await client.request_json("GET", "/debug/traces?limit=1")
            bad = await client.request_json("GET", "/debug/traces?limit=frog")
            status_405, headers_405, _ = await client.request_full(
                "POST", "/debug/traces", {}
            )
            return limited, bad, status_405, headers_405

        limited, bad, status_405, headers_405 = run_with_server(
            identifier, scenario, config=self._config()
        )
        assert limited[0] == 200 and len(limited[1]["traces"]) == 1
        assert bad[0] == 400
        assert status_405 == 405 and headers_405["allow"] == "GET"


class TestBodyLimits:
    def test_oversized_body_rejected_before_buffering(self, identifier):
        """Content-Length beyond max_body_bytes gets 413 without reading the body."""

        async def main():
            service = ClassificationService(identifier, ServeConfig(max_delay_ms=1.0))
            async with service:
                server = await serve_http(
                    service, host="127.0.0.1", port=0, max_body_bytes=1024
                )
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    # claim a huge body but never send it: the server must
                    # answer from the headers alone
                    writer.write(
                        b"POST /classify HTTP/1.1\r\nContent-Length: 8000000000\r\n\r\n"
                    )
                    await writer.drain()
                    status_line = await asyncio.wait_for(reader.readline(), timeout=5)
                    status = int(status_line.split(b" ", 2)[1])
                    # the stream is unsynchronized, so the server closes it
                    remainder = await asyncio.wait_for(reader.read(), timeout=5)
                    return status, remainder
                finally:
                    writer.close()
                    await writer.wait_closed()
                    server.close()
                    await server.wait_closed()

        status, remainder = asyncio.run(main())
        assert status == 413
        assert b"error" in remainder  # the JSON body arrived before the close

    def test_negative_content_length_is_400(self, identifier):
        async def main():
            service = ClassificationService(identifier, ServeConfig(max_delay_ms=1.0))
            async with service:
                server = await serve_http(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(
                        b"POST /classify HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
                    )
                    await writer.drain()
                    status_line = await asyncio.wait_for(reader.readline(), timeout=5)
                    return int(status_line.split(b" ", 2)[1])
                finally:
                    writer.close()
                    await writer.wait_closed()
                    server.close()
                    await server.wait_closed()

        assert asyncio.run(main()) == 400

    def test_overload_rejections_do_not_inflate_throughput_bytes(self, identifier):
        """requests_total/bytes_total count only admitted documents."""

        async def main():
            config = ServeConfig(
                max_batch=512, max_delay_ms=10_000.0, max_pending=2, cache_size=0
            )
            service = ClassificationService(identifier, config)
            await service.start()
            waiters = [
                asyncio.ensure_future(service.classify(f"queued doc {i}")) for i in range(2)
            ]
            await asyncio.sleep(0)
            from repro.serve import ServiceOverloadedError

            try:
                await service.classify("rejected " * 50)
            except ServiceOverloadedError:
                pass
            snapshot = service.metrics.snapshot()
            await service.close()
            await asyncio.gather(*waiters)
            return snapshot

        snapshot = asyncio.run(main())
        assert snapshot["rejected_overload"] == 1
        assert snapshot["requests_total"] == 2
        assert snapshot["bytes_total"] == sum(len(f"queued doc {i}") for i in range(2))
