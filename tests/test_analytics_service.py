"""Live-serving tests for the traffic-analytics plane.

Covers the :class:`~repro.analytics.hook.AnalyticsHook` (quality sampling,
edge-triggered alarm logging), the ``GET /stats`` endpoint and the analytics /
cache / uptime gauges in ``GET /metrics`` + ``GET /healthz`` over a real
loopback server.
"""

import asyncio
import json

import pytest

from repro.analytics import DEFAULT_SOURCE, AnalyticsConfig, AnalyticsHook
from repro.analytics.hook import MAX_SOURCE_LENGTH, MAX_SOURCES, OVERFLOW_SOURCE
from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.corpus import build_jrc_acquis_like
from repro.serve import ClassificationService, ServeConfig, serve_http

CONFIG = ClassifierConfig(m_bits=8 * 1024, k=4, t=1200, seed=1)


@pytest.fixture(scope="module")
def identifier():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=8, words_per_document=150, seed=23
    )
    return LanguageIdentifier(CONFIG).train(corpus)


def make_result(language="en", confidence=0.5, ngrams=40):
    from repro.core.classifier import ClassificationResult

    top = 1000
    counts = {language: top}
    if confidence < 1.0:
        counts["zz"] = round(top * (1.0 - confidence))
    return ClassificationResult(language=language, match_counts=counts, ngram_count=ngrams)


class _Recorder:
    """A JsonLogger stand-in capturing (event, fields) pairs."""

    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append((name, fields))


# -- the hook ----------------------------------------------------------------------


class TestAnalyticsHook:
    def test_quality_sampling_scans_every_kth_document(self):
        hook = AnalyticsHook(quality_sample_every=4, clock=lambda: 0.0)
        for _ in range(8):
            hook.record(make_result("en"), "src", text="abcd efgh")
        stats = hook.aggregator.sources["src"]
        assert stats.docs_total == 8
        assert stats.quality_docs_total == 2  # documents 0 and 4
        assert stats.bytes_total == 8 * 9  # volume counted for every document

    def test_bytes_payloads_count_volume_without_scanning(self):
        hook = AnalyticsHook(clock=lambda: 0.0)
        hook.record(make_result("en"), "src", text=b"abcdefgh")
        stats = hook.aggregator.sources["src"]
        assert stats.bytes_total == 8
        assert stats.quality_docs_total == 0

    def test_rejects_nonpositive_sampling(self):
        with pytest.raises(ValueError, match="quality_sample_every"):
            AnalyticsHook(quality_sample_every=0)

    def test_alarm_edges_are_logged_once(self):
        now = [0.0]
        recorder = _Recorder()
        hook = AnalyticsHook(
            AnalyticsConfig(window_seconds=10.0, min_window_docs=1),
            logger=recorder,
            clock=lambda: now[0],
        )
        for _ in range(5):
            hook.record(make_result("en"), "feed", text="hello there")
        now[0] = 15.0  # second window: the mix flips entirely
        for _ in range(5):
            hook.record(make_result("fr"), "feed", text="bonjour ici")
        drift = hook.check_drift()
        assert drift["alarm"] is True
        hook.check_drift()  # still alarming: no second event
        assert [name for name, _ in recorder.events] == ["drift_alarm"]
        assert recorder.events[0][1]["sources"] == ["feed"]
        assert hook.drift_alarms_total == 1
        # third window back to the baseline mix -> one clear event
        now[0] = 25.0
        for _ in range(5):
            hook.record(make_result("en"), "feed", text="hello again")
        assert hook.check_drift()["alarm"] is False
        assert [name for name, _ in recorder.events] == ["drift_alarm", "drift_clear"]

    def test_snapshot_and_gauges_carry_counters(self):
        hook = AnalyticsHook(clock=lambda: 0.0)
        hook.record(make_result("en"), text="abc")
        snapshot = hook.snapshot()
        assert snapshot["records_total"] == 1
        assert snapshot["drift_alarms_total"] == 0
        gauges = hook.gauges()
        assert gauges["records_total"] == 1
        assert gauges["sources"]["_default"]["docs"] == 1

    def test_source_tags_past_the_bound_fold_into_one_overflow_source(self):
        # tags come from request bodies: 20,000 distinct ones must not grow
        # the hook's per-source state past the bound
        hook = AnalyticsHook(clock=lambda: 0.0)
        hook.record(make_result("en"), "x" * (MAX_SOURCE_LENGTH + 1), text="abcd")
        tags = [f"tag-{index}" for index in range(20_000)]
        for tag in tags:
            hook.record(make_result("en"), tag, text="abcd")
        hook.record(make_result("fr"), text="abcd")  # untagged keeps its own source
        kept = {DEFAULT_SOURCE, *tags[: MAX_SOURCES - 1]}
        snapshot = hook.snapshot()
        assert set(snapshot["sources"]) == kept | {OVERFLOW_SOURCE}
        assert set(hook.gauges()["sources"]) == kept | {OVERFLOW_SOURCE}
        assert set(hook._doc_counts) == kept | {OVERFLOW_SOURCE}
        assert snapshot["sources"][OVERFLOW_SOURCE]["docs"] == 1 + len(tags) - (MAX_SOURCES - 1)
        assert snapshot["records_total"] == len(tags) + 2

    def test_text_gauges_exposition_format(self):
        hook = AnalyticsHook(clock=lambda: 0.0)
        hook.record(make_result("en", 0.75), "wire", text="abcd")
        text = hook.render_text_gauges()
        assert 'repro_serve_source_docs_total{source="wire"} 1' in text
        assert 'repro_serve_language_mix{source="wire",language="en"} 1.0' in text
        assert "repro_serve_drift_alarm 0" in text
        # every non-comment line is "name{labels} value" or "name value"
        for line in text.strip().splitlines():
            if not line.startswith("#"):
                assert len(line.rsplit(" ", 1)) == 2


# -- the HTTP plane ----------------------------------------------------------------


class _Client:
    """Minimal HTTP/1.1 client speaking over one keep-alive connection."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    async def request_json(self, method, path, payload=None):
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
        return status, json.loads(raw.decode("utf-8")) if raw else None

    async def request_text(self, method, path):
        self.writer.write(f"{method} {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n".encode())
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
        return status, raw.decode("utf-8")

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


def run_with_server(identifier, scenario, config=None):
    async def main():
        service = ClassificationService(
            identifier, config or ServeConfig(max_delay_ms=1.0)
        )
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


class TestStatsEndpoint:
    def test_stats_reflects_served_traffic_by_source(self, identifier):
        async def scenario(client, _service):
            await client.request_json(
                "POST", "/classify", {"text": "the quick brown fox", "source": "wire"}
            )
            await client.request_json(
                "POST",
                "/classify",
                {"texts": ["bonjour le monde", "hola amigo mio"], "source": "blog"},
            )
            await client.request_json("POST", "/classify", {"text": "no source here"})
            return await client.request_json("GET", "/stats")

        status, payload = run_with_server(identifier, scenario)
        assert status == 200
        assert payload["enabled"] is True
        assert payload["records_total"] == 4
        assert payload["sources"]["wire"]["docs"] == 1
        assert payload["sources"]["blog"]["docs"] == 2
        assert payload["sources"]["_default"]["docs"] == 1
        assert "windows" in payload

    def test_cache_hits_are_recorded_as_effective_traffic(self, identifier):
        async def scenario(client, service):
            for _ in range(3):
                await client.request_json(
                    "POST", "/classify", {"text": "identical document", "source": "s"}
                )
            _status, stats = await client.request_json("GET", "/stats")
            _status, metrics = await client.request_json("GET", "/metrics")
            return stats, metrics, service.cache.stats()

        stats, metrics, cache_stats = run_with_server(identifier, scenario)
        assert stats["sources"]["s"]["docs"] == 3
        assert stats["sources"]["s"]["cached"] == 2
        assert metrics["cache_hits_total"] == {"classify": 2}
        assert metrics["cache_misses_total"] == {"classify": 1}
        assert cache_stats["by_op"]["classify"] == {"hits": 2, "misses": 1}

    def test_stats_windows_can_be_omitted(self, identifier):
        async def scenario(client, _service):
            await client.request_json("POST", "/classify", {"text": "abc"})
            return await client.request_json("GET", "/stats?windows=0")

        _status, payload = run_with_server(identifier, scenario)
        assert payload["enabled"] is True
        assert "windows" not in payload

    def test_stats_requires_get(self, identifier):
        async def scenario(client, _service):
            return await client.request_json("POST", "/stats", {})

        status, payload = run_with_server(identifier, scenario)
        assert status == 405
        assert "GET" in payload["error"]

    def test_stats_disabled_service_reports_disabled(self, identifier):
        async def scenario(client, _service):
            _status, stats = await client.request_json("GET", "/stats")
            _status, metrics = await client.request_json("GET", "/metrics")
            return stats, metrics

        stats, metrics = run_with_server(
            identifier, scenario, ServeConfig(max_delay_ms=1.0, analytics=False)
        )
        assert stats == {"enabled": False}
        assert "analytics" not in metrics

    def test_source_must_be_a_string(self, identifier):
        async def scenario(client, _service):
            return await client.request_json(
                "POST", "/classify", {"text": "abc", "source": 7}
            )

        status, payload = run_with_server(identifier, scenario)
        assert status == 400
        assert "source" in payload["error"]

    def test_metrics_carry_analytics_uptime_and_text_gauges(self, identifier):
        async def scenario(client, _service):
            await client.request_json(
                "POST", "/classify", {"text": "the quick brown fox", "source": "wire"}
            )
            _status, metrics = await client.request_json("GET", "/metrics")
            _status, text = await client.request_text("GET", "/metrics?format=text")
            _status, health = await client.request_json("GET", "/healthz")
            return metrics, text, health

        metrics, text, health = run_with_server(identifier, scenario)
        assert metrics["analytics"]["sources"]["wire"]["docs"] == 1
        assert metrics["requests_per_second"] > 0
        assert "repro_serve_requests_per_second" in text
        assert 'repro_serve_source_docs_total{source="wire"} 1' in text
        assert 'repro_serve_cache_misses_total{op="classify"} 1' in text
        assert health["analytics"] is True
        assert health["uptime_seconds"] > 0
        assert health["requests_per_second"] > 0
