"""Zero-downtime blue/green swap tests across the serving tier.

The acceptance criterion of the model-lifecycle PR: sustained classification
load through :class:`ClassificationService` while several consecutive
``swap_model`` calls roll versions underneath it — zero dropped requests,
zero mis-versioned responses (every answer is bit-identical to *some*
published version's direct batch output, never a blend), and post-swap
classification bit-identical to a cold-started service on the new version.
Also covers the fingerprint-prefix cache eviction satellite and the
``POST /admin/swap`` endpoint wired to a real registry.
"""

import asyncio
import json

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.api.persistence import model_fingerprint
from repro.corpus.corpus import build_jrc_acquis_like
from repro.registry import ModelRegistry, ModelSwitch
from repro.serve import (
    ClassificationService,
    ResultCache,
    ServeConfig,
    ServiceClosedError,
    serve_http,
)

CONFIG = ClassifierConfig(m_bits=8 * 1024, k=4, t=1000, seed=1)
N_MODELS = 4  # v1 (initial) + 3 consecutive swaps


def _train(seed: int, languages=("en", "fr", "es")) -> LanguageIdentifier:
    corpus = build_jrc_acquis_like(
        list(languages), docs_per_language=8, words_per_document=150, seed=seed
    )
    return LanguageIdentifier(CONFIG).train(corpus)


@pytest.fixture(scope="module")
def models():
    return [_train(seed) for seed in (5, 17, 29, 41)]


@pytest.fixture(scope="module")
def texts():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=3, words_per_document=100, seed=99
    )
    return [doc.text[:400] for doc in corpus.documents]


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- zero downtime


class TestZeroDowntimeSwap:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_sustained_load_across_three_swaps(self, models, texts, executor):
        """Load never stops while three swaps roll v1 -> v2 -> v3 -> v4."""
        # ground truth per version: what each model answers for each text
        allowed = [
            [result.match_counts for result in model.classify_batch(texts)]
            for model in models
        ]

        async def scenario():
            # cache off: every response must cost real engine work, so a
            # cache hit can never mask a mis-versioned replica (and the pump
            # coroutines always reach a true await point)
            config = ServeConfig(
                max_batch=8,
                max_delay_ms=1.0,
                replicas=1 if executor == "thread" else 2,
                executor=executor,
                cache_size=0,
            )
            service = ClassificationService(models[0], config, model_version="v000001")
            responses: list[tuple[int, object]] = []
            errors: list[BaseException] = []
            stop = asyncio.Event()

            async def pump():
                i = 0
                while not stop.is_set():
                    index = i % len(texts)
                    try:
                        result = await service.classify(texts[index])
                        responses.append((index, result.match_counts))
                    except BaseException as exc:  # noqa: BLE001 - recorded, not raised
                        errors.append(exc)
                    i += 1
                    await asyncio.sleep(0)  # never starve the event loop

            async def roll():
                for version in range(1, N_MODELS):
                    await asyncio.sleep(0.05)  # let load interleave with swaps
                    await service.swap_model(
                        models[version], version=f"v{version + 1:06d}"
                    )
                await asyncio.sleep(0.05)
                stop.set()

            async with service:
                pumps = [asyncio.create_task(pump()) for _ in range(4)]
                await roll()
                await asyncio.gather(*pumps)
                # post-swap differential: the live service answers exactly like
                # a cold-started service on the final version
                hot = await service.classify_many(texts)
                swaps_total = service.metrics.model_swaps_total
                final_version = service.model_version
            cold_service = ClassificationService(
                models[-1], ServeConfig(max_delay_ms=1.0, cache_size=0)
            )
            async with cold_service:
                cold = await cold_service.classify_many(texts)
            return responses, errors, hot, cold, swaps_total, final_version

        responses, errors, hot, cold, swaps_total, final_version = run(scenario())

        assert errors == []  # zero dropped requests
        assert swaps_total == N_MODELS - 1
        assert final_version == f"v{N_MODELS:06d}"
        assert len(responses) > 2 * len(texts)  # the load was genuinely sustained
        # zero mis-versioned responses: every answer is bit-identical to one
        # of the published versions' direct output — never a half-swapped blend
        for index, match_counts in responses:
            assert any(
                match_counts == allowed[version][index] for version in range(N_MODELS)
            ), f"response for text {index} matches no published version"
        assert [r.match_counts for r in hot] == [r.match_counts for r in cold]

    def test_swap_rejected_on_stopped_service(self, models):
        service = ClassificationService(models[0], ServeConfig())

        async def scenario():
            with pytest.raises(ServiceClosedError):
                await service.swap_model(models[1])

        run(scenario())

    def test_swap_rejects_untrained_model(self, models):
        async def scenario():
            async with ClassificationService(models[0], ServeConfig()) as service:
                with pytest.raises(RuntimeError, match="untrained"):
                    await service.swap_model(LanguageIdentifier(CONFIG))

        run(scenario())


# ------------------------------------------------------------------- cache eviction


class TestSwapCacheEviction:
    def test_evict_fingerprint_removes_only_that_prefix(self):
        cache = ResultCache(capacity=16)
        cache.put(b"A" * 16 + b"classify:x", "old-1")
        cache.put(b"A" * 16 + b"segment:y", "old-2")
        cache.put(b"B" * 16 + b"classify:x", "new-1")
        assert cache.evict_fingerprint(b"A" * 16) == 2
        assert cache.get(b"A" * 16 + b"classify:x") is None
        assert cache.get(b"A" * 16 + b"segment:y") is None
        assert cache.get(b"B" * 16 + b"classify:x") == "new-1"
        assert cache.evict_fingerprint(b"A" * 16) == 0

    def test_swap_evicts_retired_model_entries(self, models, texts):
        async def scenario():
            config = ServeConfig(max_delay_ms=1.0, cache_size=64)
            async with ClassificationService(models[0], config) as service:
                old_fingerprint = model_fingerprint(models[0])
                for text in texts[:4]:
                    await service.classify(text)
                assert service.cache.stats()["size"] == 4
                report = await service.swap_model(models[1])
                assert report["cache_entries_evicted"] == 4
                assert service.cache.stats()["size"] == 0
                # a replay of the same text must miss and re-classify on green
                hits_before = service.metrics.cache_hits
                result = await service.classify(texts[0])
                assert service.metrics.cache_hits == hits_before
                assert result.match_counts == models[1].classify_batch(
                    [texts[0]]
                )[0].match_counts
                # the retired fingerprint's keys are structurally gone
                stale_key = old_fingerprint + b"classify:" + b"\x00" * 32
                assert service.cache.get(stale_key) is None

        run(scenario())

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_answer_queued_across_a_swap_is_not_cached_under_the_old_model(
        self, models, texts, executor
    ):
        blue = models[0]
        green = _train(7, languages=("en", "fi", "pt"))
        text = texts[0]

        async def scenario():
            config = ServeConfig(executor=executor, cache_size=64)
            async with ClassificationService(blue, config) as service:
                # admitted, and keyed, under blue; the swap below starts before
                # its batch runs, so green answers it
                queued = asyncio.ensure_future(service.classify(text))
                await asyncio.sleep(0)
                await service.swap_model(green)
                assert sorted((await queued).match_counts) == sorted(green.languages)
                # rolling back must not replay green's answer from blue's key
                await service.swap_model(blue)
                hits_before = service.metrics.cache_hits
                result = await service.classify(text)
                return result, service.metrics.cache_hits - hits_before

        result, hits = run(scenario())
        assert sorted(result.match_counts) == sorted(blue.languages)
        assert result.match_counts == blue.classify(text).match_counts
        assert hits == 0


# ------------------------------------------------------------------- admin endpoint


class _Client:
    """Minimal HTTP/1.1 client over one keep-alive connection."""

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

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


class TestAdminSwapEndpoint:
    def _run_with_registry(self, models, scenario, tmp_path, attach_switch=True):
        registry = ModelRegistry(tmp_path / "registry")
        v1 = registry.publish(models[0])
        registry.publish(models[1], parent=v1.version)

        async def main():
            record = registry.resolve(1)
            service = ClassificationService(
                registry.load(1), ServeConfig(max_delay_ms=1.0), model_version=record.name
            )
            if attach_switch:
                service.switch = ModelSwitch(service, registry)
            async with service:
                server = await serve_http(service, host="127.0.0.1", port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                client = _Client(reader, writer)
                try:
                    return await scenario(client, service, registry)
                finally:
                    await client.close()
                    server.close()
                    await server.wait_closed()

        return run(main())

    def test_swap_healthz_and_metrics_report_version(self, models, tmp_path):
        async def scenario(client, service, registry):
            status, health = await client.request_json("GET", "/healthz")
            assert status == 200
            assert health["model_version"] == "v000001"
            assert health["model_fingerprint"] == model_fingerprint(models[0]).hex()
            assert health["model_swaps_total"] == 0

            status, report = await client.request_json(
                "POST", "/admin/swap", {"version": 2}
            )
            assert status == 200
            assert report["to"]["version"] == "v000002"
            assert report["from"]["version"] == "v000001"

            status, health = await client.request_json("GET", "/healthz")
            assert health["model_version"] == "v000002"
            assert health["model_fingerprint"] == model_fingerprint(models[1]).hex()

            status, metrics = await client.request_json("GET", "/metrics")
            assert metrics["model_swaps_total"] == 1
            assert metrics["model_version"] == "v000002"
            assert metrics["model_fingerprint"] == model_fingerprint(models[1]).hex()
            text = service.metrics.render_text()
            assert "repro_serve_model_swaps_total 1" in text
            assert 'version="v000002"' in text

            # swapping repoints the registry's LATEST at the serving version
            assert registry.latest().version == 2

            # swapping to the already-serving version is a no-op
            status, report = await client.request_json(
                "POST", "/admin/swap", {"version": "v000002"}
            )
            assert status == 200 and report.get("noop") is True

        self._run_with_registry(models, scenario, tmp_path)

    def test_unknown_version_is_400(self, models, tmp_path):
        async def scenario(client, _service, _registry):
            status, body = await client.request_json(
                "POST", "/admin/swap", {"version": 99}
            )
            assert status == 400
            assert "no published version" in body["error"]
            status, body = await client.request_json(
                "POST", "/admin/swap", {"version": [1]}
            )
            assert status == 400

        self._run_with_registry(models, scenario, tmp_path)

    def test_no_registry_is_409(self, models, tmp_path):
        async def scenario(client, _service, _registry):
            status, body = await client.request_json(
                "POST", "/admin/swap", {"version": 2}
            )
            assert status == 409
            assert "registry" in body["error"]

        self._run_with_registry(models, scenario, tmp_path, attach_switch=False)

    def test_get_is_405(self, models, tmp_path):
        async def scenario(client, _service, _registry):
            status, _body = await client.request_json("GET", "/admin/swap")
            assert status == 405

        self._run_with_registry(models, scenario, tmp_path)
