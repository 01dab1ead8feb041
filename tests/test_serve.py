"""Tests for the ``repro.serve`` subsystem.

Covers the acceptance edge cases of the serving layer — empty documents,
oversized requests rejected up front, backpressure rejections once the
bounded queue fills, cache hits replaying identical results, and graceful
shutdown draining every in-flight request — plus unit coverage of the
micro-batcher triggers, the replica pool, the LRU cache, and the metrics.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.api.persistence import flat_model_bytes, load_model_from_buffer
from repro.core.classifier import UNDETERMINED_LANGUAGE, ClassificationResult
from repro.corpus.corpus import build_jrc_acquis_like
from repro.serve import (
    ClassificationService,
    MicroBatcher,
    RequestTooLargeError,
    ResultCache,
    ServeConfig,
    ServiceClosedError,
    ServiceMetrics,
    ServiceOverloadedError,
    ThreadReplicaPool,
    model_fingerprint,
    text_digest,
)


@pytest.fixture(scope="module")
def identifier():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=10, words_per_document=200, seed=11
    )
    config = ClassifierConfig(m_bits=8 * 1024, k=4, t=1500, seed=1)
    return LanguageIdentifier(config).train(corpus)


def run(coro):
    return asyncio.run(coro)


# ------------------------------------------------------------------- cache


class TestResultCache:
    def _result(self, language="en", count=3):
        return ClassificationResult(
            language=language, match_counts={"en": count, "fr": 1}, ngram_count=10
        )

    def test_every_result_field_round_trips_through_the_cache(self):
        """Auto-failing guard against hard-coded copy constructors.

        Builds a result with *every* declared field set to a non-default
        sentinel (generically, via ``dataclasses.fields``), so the moment a
        field is added to ``ClassificationResult`` without being carried
        through the cache's defensive copy, this test fails — the historical
        bug was a 3-field constructor that silently dropped everything newer.
        """
        import dataclasses

        sentinels = {
            "str": "xx",
            "int": 7,
            "float": 0.25,
            "dict[str, int]": {"en": 3, "fr": 1},
            "dict[str, dict]": {"bloom": {"language": "en", "weight": 0.5}},
        }
        kwargs = {}
        for field in dataclasses.fields(ClassificationResult):
            if not field.init:
                continue
            base = field.type.replace(" | None", "")
            assert base in sentinels, (
                f"no cache round-trip sentinel for new field "
                f"{field.name!r}: {field.type!r} — extend this test AND check "
                "_defensive_copy handles it"
            )
            kwargs[field.name] = sentinels[base]
        original = ClassificationResult(**kwargs)
        cache = ResultCache(4)
        digest = text_digest("all fields")
        cache.put(digest, original)
        hit = cache.get(digest)
        for field in dataclasses.fields(ClassificationResult):
            assert getattr(hit, field.name) == getattr(original, field.name), (
                f"field {field.name!r} was dropped or altered by the cache"
            )
        # nested containers are independent copies, not shared references
        hit.member_votes["bloom"]["language"] = "corrupted"
        hit.match_counts["en"] = 999
        replay = cache.get(digest)
        assert replay.member_votes == original.member_votes
        assert replay.match_counts == original.match_counts

    def test_hit_returns_equal_but_independent_result(self):
        cache = ResultCache(4)
        digest = text_digest("hello world")
        cache.put(digest, self._result())
        hit = cache.get(digest)
        assert hit == self._result()
        hit.match_counts["en"] = 999  # caller-side mutation must not corrupt the cache
        assert cache.get(digest) == self._result()

    def test_miss_and_stats(self):
        cache = ResultCache(4)
        assert cache.get(text_digest("nope")) is None
        cache.put(text_digest("yes"), self._result())
        assert cache.get(text_digest("yes")) is not None
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["size"]) == (1, 1, 1)

    def test_lru_eviction_order(self):
        cache = ResultCache(2)
        a, b, c = (text_digest(t) for t in "abc")
        cache.put(a, self._result("en"))
        cache.put(b, self._result("fr"))
        assert cache.get(a) is not None  # refresh a: b becomes LRU
        cache.put(c, self._result("es"))
        assert cache.get(b) is None
        assert cache.get(a) is not None and cache.get(c) is not None

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(0)
        digest = text_digest("x")
        cache.put(digest, self._result())
        assert cache.get(digest) is None and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(-1)

    def test_digest_distinguishes_str_and_values(self):
        assert text_digest("abc") == text_digest(b"abc")
        assert text_digest("abc") != text_digest("abd")


class TestModelFingerprint:
    """Regression: cache keys must include the model fingerprint, so a service
    restarted with a different model can never replay stale results."""

    def _train(self, seed, t=1500, languages=("en", "fr", "es")):
        corpus = build_jrc_acquis_like(
            list(languages), docs_per_language=8, words_per_document=150, seed=seed
        )
        config = ClassifierConfig(m_bits=8 * 1024, k=4, t=t, seed=1)
        return LanguageIdentifier(config).train(corpus)

    def test_fingerprint_stable_for_equal_models(self):
        a, b = self._train(21), self._train(21)
        assert model_fingerprint(a) == model_fingerprint(b)

    def test_fingerprint_differs_for_different_profiles_or_config(self):
        base = self._train(21)
        assert model_fingerprint(base) != model_fingerprint(self._train(22))
        assert model_fingerprint(base) != model_fingerprint(self._train(21, t=900))

    def test_shared_cache_never_replays_results_across_models(self):
        """A warm cache handed to a restarted service with a *different* model
        must miss on every document the old model answered."""
        model_a = self._train(21)
        model_b = self._train(33)  # different training data => different answers
        shared_cache = ResultCache(256)
        text = "un document compartido entre reinicios del servicio"

        async def serve_once(model):
            service = ClassificationService(model, ServeConfig(), cache=shared_cache)
            async with service:
                return await service.classify(text), service

        result_a, service_a = run(serve_once(model_a))
        hits_before = shared_cache.hits
        result_b, service_b = run(serve_once(model_b))
        # the second service computed its own answer; it did not replay A's
        assert shared_cache.hits == hits_before
        assert result_b.match_counts == model_b.classify(text).match_counts
        assert result_a.match_counts == model_a.classify(text).match_counts
        # both entries coexist under their own fingerprints
        assert len(shared_cache) == 2
        assert service_a._fingerprint != service_b._fingerprint

    def test_shared_cache_still_hits_for_the_same_model(self):
        model = self._train(21)
        shared_cache = ResultCache(256)
        text = "le meme document deux fois"

        async def serve_once():
            async with ClassificationService(
                model, ServeConfig(), cache=shared_cache
            ) as service:
                return await service.classify(text)

        first = run(serve_once())
        second = run(serve_once())  # "restart" with an identical model
        assert shared_cache.hits == 1
        assert first == second


# ------------------------------------------------------------------- metrics


class TestServiceMetrics:
    def test_snapshot_and_histogram(self):
        metrics = ServiceMetrics()
        for size in (1, 4, 4, 8):
            metrics.record_batch(size)
        metrics.record_request(100)
        metrics.record_outcome("classify", "ok", hit=False, latency_seconds=0.010)
        metrics.record_outcome("classify", "ok", hit=True, latency_seconds=0.001)
        metrics.record_outcome("classify", "overload", hit=False)
        metrics.record_outcome("classify", "too-large")
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 1
        assert snapshot["responses_total"] == 2
        assert snapshot["cache_hits"] == 1
        assert snapshot["rejected_overload"] == 1
        assert snapshot["rejected_too_large"] == 1
        assert snapshot["batch_size_histogram"] == {"1": 1, "4": 2, "8": 1}
        # bucketed percentiles interpolate within the le-bucket: the 0.001 s
        # observation sits in the (0.0005, 0.001] bucket, so p50 reads 1 ms
        assert snapshot["latency_ms"]["p50"] == pytest.approx(1.0)
        request_histogram = snapshot["stage_latency_seconds"]["request"]
        assert request_histogram["count"] == 2
        assert request_histogram["sum"] == pytest.approx(0.011)
        assert metrics.mean_batch_size == pytest.approx((1 + 4 + 4 + 8) / 4)

    def test_render_text_exposition(self):
        metrics = ServiceMetrics()
        metrics.record_batch(2)
        metrics.record_outcome(
            "classify", "ok", spans=[("kernel", 0.0, 0.002)], latency_seconds=0.003
        )
        text = metrics.render_text()
        assert "repro_serve_batches_total 1" in text
        assert 'repro_serve_batch_size_total{size="2"} 1' in text
        # proper exposition: HELP/TYPE lines for every family
        assert "# HELP repro_serve_batches_total" in text
        assert "# TYPE repro_serve_batches_total counter" in text
        assert "# TYPE repro_serve_stage_duration_seconds histogram" in text
        # spec-conformant quantile labels (not the historical p50 style)
        assert 'repro_serve_latency_seconds{quantile="0.5"}' in text
        assert 'quantile="p50"' not in text
        # histogram series: cumulative le buckets plus _sum/_count per stage
        assert 'repro_serve_stage_duration_seconds_bucket{stage="kernel",le="0.0025"} 1' in text
        assert 'repro_serve_stage_duration_seconds_bucket{stage="kernel",le="+Inf"} 1' in text
        assert 'repro_serve_stage_duration_seconds_count{stage="kernel"} 1' in text
        assert 'repro_serve_stage_duration_seconds_count{stage="request"} 1' in text

    def test_fresh_metrics_snapshot_is_all_zeros(self):
        snapshot = ServiceMetrics().snapshot()
        assert snapshot["responses_total"] == 0
        assert snapshot["mean_batch_size"] == 0.0
        assert snapshot["batch_size_histogram"] == {}
        assert snapshot["latency_seconds"] == {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_latency_histogram_covers_full_history(self):
        metrics = ServiceMetrics()
        # Histograms aggregate the whole serving window (unlike the old
        # bounded reservoir): 100 slow responses stay visible in the
        # percentiles after 8 fast ones arrive.
        for _ in range(100):
            metrics.record_outcome("classify", "ok", latency_seconds=5.0)
        for _ in range(8):
            metrics.record_outcome("classify", "ok", latency_seconds=0.001)
        percentiles = metrics.latency_percentiles()
        assert percentiles["p50"] > 1.0  # dominated by the slow majority
        assert metrics.responses_total == 108
        assert metrics.stage_histograms()["request"]["count"] == 108

    def test_latency_histogram_percentiles(self):
        from repro.serve.metrics import DEFAULT_LATENCY_BUCKETS, LatencyHistogram

        histogram = LatencyHistogram()
        assert histogram.percentile(50) == 0.0  # empty
        for _ in range(10):
            histogram.observe(0.15)  # (0.1, 0.25] bucket
        # rank interpolates linearly across the observation's bucket
        assert histogram.percentile(0) == pytest.approx(0.1)
        assert histogram.percentile(50) == pytest.approx(0.175)
        assert histogram.percentile(100) == pytest.approx(0.25)
        histogram.observe(99.0)  # overflow clamps to the last finite bound
        assert histogram.percentile(100) == pytest.approx(10.0)
        snapshot = histogram.snapshot()
        assert list(snapshot["buckets"]) == [
            *(format(bound, "g") for bound in DEFAULT_LATENCY_BUCKETS), "+Inf"
        ]
        assert snapshot["buckets"]["0.1"] == 0
        assert snapshot["buckets"]["0.25"] == snapshot["buckets"]["10"] == 10
        assert snapshot["buckets"]["+Inf"] == 11
        assert snapshot["count"] == 11
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_snapshot_stable_under_concurrent_recording(self):
        """Replica worker threads record while the event loop snapshots.

        Without the metrics lock this reliably dies with "dictionary changed
        size during iteration": every record_batch with a fresh size grows the
        histogram Counter that snapshot()/render_text() are iterating.
        """
        import threading

        metrics = ServiceMetrics()
        n_writers, per_writer = 4, 3000
        start = threading.Barrier(n_writers + 1)
        failures: list[BaseException] = []

        def writer(offset: int) -> None:
            try:
                start.wait()
                for i in range(per_writer):
                    metrics.record_batch(offset * per_writer + i)  # always a new size
                    metrics.record_request(17)
                    metrics.record_outcome("classify", "ok", latency_seconds=0.001 * (i % 7))
                    metrics.record_outcome("classify", "overload")
            except BaseException as error:  # pragma: no cover - failure path
                failures.append(error)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(n_writers)]
        for thread in threads:
            thread.start()
        try:
            start.wait()
            for _ in range(200):
                snapshot = metrics.snapshot()
                metrics.render_text()
                metrics.batch_size_histogram()
                metrics.latency_percentiles()
                # each writer bumps batches then requests, so a consistent
                # snapshot can lag by at most one in-flight pair per writer
                lag = snapshot["batches_total"] - snapshot["requests_total"]
                assert 0 <= lag <= n_writers
        finally:
            for thread in threads:
                thread.join()
        assert not failures, failures
        final = metrics.snapshot()
        expected = n_writers * per_writer
        assert final["requests_total"] == expected
        assert final["responses_total"] == expected
        assert final["rejected_overload"] == expected
        assert final["batches_total"] == expected
        assert sum(metrics.batch_size_histogram().values()) == expected


# ------------------------------------------------------------------- batcher


class TestMicroBatcher:
    def test_size_trigger_flushes_full_batches(self):
        async def scenario():
            batches = []

            async def flush(items):
                batches.append(list(items))
                return [item.upper() for item in items]

            batcher = MicroBatcher(flush, max_batch=4, max_delay=60.0, max_pending=64)
            batcher.start()
            futures = [batcher.submit_nowait(c) for c in "abcdefgh"]
            results = await asyncio.gather(*futures)
            await batcher.close()
            return batches, results

        batches, results = run(scenario())
        assert [len(b) for b in batches] == [4, 4]
        assert results == list("ABCDEFGH")

    def test_deadline_trigger_flushes_partial_batch(self):
        async def scenario():
            batches = []

            async def flush(items):
                batches.append(list(items))
                return list(items)

            batcher = MicroBatcher(flush, max_batch=1000, max_delay=0.005, max_pending=64)
            batcher.start()
            future = batcher.submit_nowait("solo")
            result = await asyncio.wait_for(future, timeout=2.0)
            await batcher.close()
            return batches, result

        batches, result = run(scenario())
        assert batches == [["solo"]] and result == "solo"

    def test_overload_rejection_then_drain_on_close(self):
        async def scenario():
            async def flush(items):
                return list(items)

            batcher = MicroBatcher(flush, max_batch=1000, max_delay=60.0, max_pending=3)
            batcher.start()
            futures = [batcher.submit_nowait(i) for i in range(3)]
            with pytest.raises(ServiceOverloadedError):
                batcher.submit_nowait(99)
            # close() must drain the queued work, not drop it
            await batcher.close()
            assert [f.result() for f in futures] == [0, 1, 2]
            with pytest.raises(ServiceClosedError):
                batcher.submit_nowait("late")

        run(scenario())

    def test_flush_failure_reaches_every_waiter(self):
        async def scenario():
            async def flush(items):
                raise RuntimeError("engine on fire")

            batcher = MicroBatcher(flush, max_batch=2, max_delay=60.0, max_pending=8)
            batcher.start()
            futures = [batcher.submit_nowait(i) for i in range(2)]
            with pytest.raises(RuntimeError, match="engine on fire"):
                await asyncio.gather(*futures)
            await batcher.close()

        run(scenario())

    def test_submit_before_start_rejected(self):
        async def scenario():
            async def flush(items):
                return list(items)

            batcher = MicroBatcher(flush)
            with pytest.raises(ServiceClosedError):
                batcher.submit_nowait("x")

        run(scenario())

    @pytest.mark.parametrize(
        "kwargs", [{"max_batch": 0}, {"max_delay": -1.0}, {"max_pending": 0}]
    )
    def test_invalid_parameters(self, kwargs):
        async def flush(items):
            return list(items)

        with pytest.raises(ValueError):
            MicroBatcher(flush, **kwargs)


# ------------------------------------------------------------------- replicas


class TestReplicaPool:
    def test_clone_is_bit_exact_and_disjoint(self, identifier):
        clone = load_model_from_buffer(flat_model_bytes(identifier))
        assert clone is not identifier and clone.backend is not identifier.backend
        # built by the artifact parser: the bit-vectors are views of the clone's
        # own read-only buffer, not the source's arrays
        assert clone.describe()["shared_bit_vectors"] is True
        assert not np.shares_memory(
            clone.backend.export_state()["stacked_bits"],
            identifier.backend.export_state()["stacked_bits"],
        )
        text = "un texto cualquiera para comparar"
        assert clone.classify(text).match_counts == identifier.classify(text).match_counts

    def test_clone_untrained_rejected(self):
        with pytest.raises(RuntimeError):
            flat_model_bytes(LanguageIdentifier(ClassifierConfig()))

    def test_replica_batches_match_source(self, identifier):
        async def scenario():
            pool = ThreadReplicaPool(identifier)
            texts = ["le chien court vite", "the dog runs fast", "el perro corre"]
            try:
                assert len(pool) == 1 and pool.next_round_robin() == 0
                results = await pool.classify_batch(0, texts)
                direct = identifier.classify_batch(texts)
                assert [r.match_counts for r in results] == [
                    r.match_counts for r in direct
                ]
            finally:
                pool.close()
            with pytest.raises(RuntimeError):
                await pool.classify_batch(0, texts)

        run(scenario())

    def test_thread_tier_runs_the_kernel_on_the_event_loop_thread(
        self, identifier, monkeypatch
    ):
        kernel_threads = []
        original = LanguageIdentifier.classify_batch

        def recording(self, *args, **kwargs):
            kernel_threads.append(threading.get_ident())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(LanguageIdentifier, "classify_batch", recording)

        async def scenario():
            async with ClassificationService(identifier, ServeConfig(cache_size=0)) as service:
                await service.classify_many(["le chien court", "the dog runs"])
            return threading.get_ident()

        loop_thread = run(scenario())
        assert kernel_threads and set(kernel_threads) == {loop_thread}

    def test_thread_tier_swap_lands_between_batches(self, identifier):
        green = LanguageIdentifier(
            ClassifierConfig(m_bits=8 * 1024, k=4, t=1500, seed=1)
        ).train(
            build_jrc_acquis_like(
                ["en", "fi", "pt"], docs_per_language=6, words_per_document=150, seed=3
            )
        )
        texts = [f"document numero {i} avec un peu de texte" for i in range(16)]

        async def scenario():
            config = ServeConfig(max_batch=4, cache_size=0)
            async with ClassificationService(identifier, config) as service:
                batches = []
                pool_classify = service._pool.classify_batch

                async def recording(replica_index, batch, contexts=None, sources=None):
                    results = await pool_classify(replica_index, batch, contexts, sources)
                    batches.append({tuple(sorted(r.match_counts)) for r in results})
                    return results

                service._pool.classify_batch = recording
                before = await service.classify_many(texts[:8])
                # admitted and queued under blue, but not yet flushed ...
                queued = [asyncio.ensure_future(service.classify(t)) for t in texts[8:]]
                await asyncio.sleep(0)
                assert len(service._batchers["classify"][0]) == 8
                # ... so the swap, one assignment, lands before their batches
                await service.swap_model(green)
                after = await asyncio.gather(*queued)
            return batches, before, after

        batches, before, after = run(scenario())
        blue_languages = tuple(sorted(identifier.languages))
        green_languages = tuple(sorted(green.languages))
        # no batch mixes models, and the models switch once, between batches
        assert batches == [{blue_languages}] * 2 + [{green_languages}] * 2
        assert {tuple(sorted(r.match_counts)) for r in before} == {blue_languages}
        assert {tuple(sorted(r.match_counts)) for r in after} == {green_languages}


# ------------------------------------------------------------------- service


class TestServeConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch": 0},
            {"max_delay_ms": -1},
            {"replicas": 0},
            {"cache_size": -1},
            {"max_pending": 0},
            {"max_document_bytes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(**kwargs)

    def test_thread_replicas_rejection_names_the_process_executor(self):
        with pytest.raises(ValueError, match="--executor process"):
            ServeConfig(replicas=2)
        assert ServeConfig(replicas=2, executor="process").replicas == 2


class TestClassificationService:
    def test_requires_trained_model(self):
        with pytest.raises(RuntimeError):
            ClassificationService(LanguageIdentifier(ClassifierConfig()))

    def test_classify_before_start_rejected(self, identifier):
        async def scenario():
            service = ClassificationService(identifier)
            with pytest.raises(ServiceClosedError):
                await service.classify("hola")

        run(scenario())

    def test_empty_document_classifies_without_error(self, identifier):
        async def scenario():
            async with ClassificationService(identifier) as service:
                result = await service.classify("")
                assert result.ngram_count == 0
                assert result.language == UNDETERMINED_LANGUAGE
                assert all(count == 0 for count in result.match_counts.values())

        run(scenario())

    def test_results_match_direct_classification(self, identifier):
        async def scenario():
            config = ServeConfig(max_batch=4, max_delay_ms=1.0, cache_size=0)
            texts = [f"document numero {i} avec un peu de texte" for i in range(10)]
            async with ClassificationService(identifier, config) as service:
                served = await service.classify_many(texts)
            direct = identifier.classify_batch(texts)
            assert [r.match_counts for r in served] == [r.match_counts for r in direct]
            assert [r.language for r in served] == [r.language for r in direct]

        run(scenario())

    def test_oversized_request_rejected(self, identifier):
        async def scenario():
            config = ServeConfig(max_document_bytes=64)
            async with ClassificationService(identifier, config) as service:
                with pytest.raises(RequestTooLargeError):
                    await service.classify("x" * 65)
                # a multi-byte character pushes the UTF-8 size over the limit
                with pytest.raises(RequestTooLargeError):
                    await service.classify("é" * 33)
                assert service.metrics.rejected_too_large == 2
                assert (await service.classify("x" * 64)).language  # at the limit: fine

        run(scenario())

    def test_backpressure_rejects_when_queue_full(self, identifier):
        async def scenario():
            # Batches larger than the backlog + a long deadline pin the queue full.
            config = ServeConfig(
                max_batch=512, max_delay_ms=10_000.0, max_pending=4, cache_size=0
            )
            service = ClassificationService(identifier, config)
            await service.start()
            waiters = [
                asyncio.ensure_future(service.classify(f"pending document {i}"))
                for i in range(4)
            ]
            await asyncio.sleep(0)  # let the submissions reach the queue
            with pytest.raises(ServiceOverloadedError):
                await service.classify("one document too many")
            assert service.metrics.rejected_overload == 1
            # graceful close must still drain the four queued requests
            await service.close()
            results = await asyncio.gather(*waiters)
            assert all(r.language in identifier.languages for r in results)

        run(scenario())

    def test_cache_hit_returns_identical_result(self, identifier):
        async def scenario():
            text = "ceci est un document parfaitement identique"
            async with ClassificationService(identifier) as service:
                first = await service.classify(text)
                second = await service.classify(text)
                assert second == first
                assert service.metrics.cache_hits == 1
                assert service.cache.stats()["hits"] == 1
                # only one batch ever reached the engine
                assert sum(service.metrics.batch_sizes.values()) == 1

        run(scenario())

    @pytest.mark.parametrize("op", ["classify", "segment"])
    @pytest.mark.parametrize("bytes_first", [False, True], ids=["str-first", "bytes-first"])
    def test_cache_keeps_str_and_bytes_answers_apart(self, identifier, op, bytes_first):
        """The extractor reads a str as Latin-1 and bytes as given, so a str
        and its UTF-8 bytes classify differently; neither replays the other."""
        text = "Le comité a décidé que l'été serait consacré à la sécurité des côtes."
        data = text.encode("utf-8")
        documents = [data, text] if bytes_first else [text, data]
        direct = [getattr(identifier, op)(document) for document in documents]
        assert direct[0] != direct[1]

        async def scenario():
            async with ClassificationService(identifier) as service:
                served = [await getattr(service, op)(document) for document in documents]
                return served, service.cache.stats()["hits"]

        served, hits = run(scenario())
        assert served == direct
        assert hits == 0

    def test_graceful_shutdown_drains_in_flight_batches(self, identifier):
        async def scenario():
            config = ServeConfig(max_batch=64, max_delay_ms=10_000.0, cache_size=0)
            service = ClassificationService(identifier, config)
            await service.start()
            waiters = [
                asyncio.ensure_future(service.classify(f"document en vol numero {i}"))
                for i in range(8)
            ]
            await asyncio.sleep(0)
            # nothing has flushed yet (deadline far away, batch not full) ...
            assert service.metrics.batches_total == 0
            await service.close()
            # ... yet close() resolved every request instead of dropping it
            results = await asyncio.gather(*waiters)
            assert len(results) == 8
            assert service.metrics.responses_total == 8
            with pytest.raises(ServiceClosedError):
                await service.classify("after close")

        run(scenario())

    def test_describe_reports_topology(self, identifier):
        async def scenario():
            config = ServeConfig(max_batch=16)
            async with ClassificationService(identifier, config) as service:
                info = service.describe()
                assert info["status"] == "ok"
                assert info["replicas"] == 1 and info["executor"] == "thread"
                assert len(info["pending"]) == 1  # one queue per replica
                assert info["pool"]["workers"] == [{"index": 0, "alive": True}]
                assert info["max_batch"] == 16
                assert info["languages"] == identifier.languages
            assert service.describe()["status"] == "stopped"

        run(scenario())

    def test_service_loads_model_from_path(self, identifier, tmp_path):
        async def scenario():
            path = identifier.save(tmp_path / "model.bin")
            async with ClassificationService(path) as service:
                result = await service.classify("un document para el servicio")
            assert result.match_counts == identifier.classify(
                "un document para el servicio"
            ).match_counts

        run(scenario())


# ------------------------------------------------------------------- outcomes


#: the scripted documents (ASCII, each under the 64-byte limit below)
MISS_THEN_HIT = "ceci est un document pour le cache"
BATCHED, OVERLOADED = "el primer documento del lote", "the second document is refused"
FAILED = "dieser Kern faellt einmal aus"
SEGMENTED = "un texte court a segmenter"


async def scripted_outcomes(identifier, monkeypatch) -> dict:
    """One request of every outcome, through public calls only; the snapshot.

    A miss and then a hit of one document, a too-large document, an overload
    (two concurrent requests against a one-request queue), a kernel failure
    (the backend's ``match_counts_batch`` raises once) and a segment request.
    """
    config = ServeConfig(max_delay_ms=1.0, max_pending=1, max_document_bytes=64)
    kernel = identifier.backend.match_counts_batch
    failed = []

    def fail_once(packed, starts, lengths):
        if not failed:
            failed.append(True)
            raise RuntimeError("kernel fault")
        return kernel(packed, starts, lengths)

    async with ClassificationService(identifier, config) as service:
        await service.classify(MISS_THEN_HIT)
        await service.classify(MISS_THEN_HIT)
        with pytest.raises(RequestTooLargeError):
            await service.classify("x" * 65)
        answered, refused = await asyncio.gather(
            service.classify(BATCHED), service.classify(OVERLOADED), return_exceptions=True
        )
        assert answered.language in identifier.languages
        assert isinstance(refused, ServiceOverloadedError)
        monkeypatch.setattr(identifier.backend, "match_counts_batch", fail_once)
        with pytest.raises(RuntimeError, match="kernel fault"):
            await service.classify(FAILED)
        await service.segment(SEGMENTED)
        return service.metrics.snapshot()


class TestRequestOutcomes:
    """Each request's exit records its outcome once, and failures are counted."""

    def test_scripted_outcomes_match_hand_counts(self, identifier, monkeypatch):
        snapshot = run(scripted_outcomes(identifier, monkeypatch))
        admitted = [MISS_THEN_HIT, MISS_THEN_HIT, BATCHED, FAILED, SEGMENTED]
        counters = {
            "requests_total": 5,
            "responses_total": 4,  # the kernel failure is not a response
            "segment_requests_total": 1,
            "cache_hits": 1,
            "cache_hits_total": {"classify": 1},
            # the overload and the failure looked the cache up first
            "cache_misses_total": {"classify": 4, "segment": 1},
            "rejected_overload": 1,
            "rejected_too_large": 1,
            "errors_total": 1,
            "abstentions_total": 0,
            "abstentions_by_reason": {},
            "ensemble_votes_total": 0,
            "ensemble_unanimous_total": 0,
            # the failed request's batch flushed before its kernel raised
            "batches_total": 4,
            "worker_respawns_total": 0,
            "model_swaps_total": 0,
            "model_version": None,
            "model_fingerprint": model_fingerprint(identifier).hex(),
            "mean_batch_size": 1.0,
            "batch_size_histogram": {"1": 4},
            "bytes_total": sum(len(text) for text in admitted),
        }
        timings = {
            "uptime_seconds", "requests_per_second", "throughput_mb_s",
            "latency_seconds", "latency_ms", "stage_latency_seconds",
        }
        assert set(snapshot) == set(counters) | timings
        assert {name: snapshot[name] for name in counters} == counters
        stage_counts = {
            stage: histogram["count"]
            for stage, histogram in snapshot["stage_latency_seconds"].items()
        }
        assert stage_counts == {
            "admission": 6,  # every request but the too-large one
            "cache_lookup": 6,
            "queue_wait": 4,  # the three answered misses and the failure
            "batch_assembly": 4,
            "ipc_roundtrip": 3,  # the failure never got a kernel span
            "kernel": 3,
            "respond": 7,  # every request closes its trace
            "request": 4,  # end-to-end latency of answered requests only
        }
