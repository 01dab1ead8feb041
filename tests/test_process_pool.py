"""Tests for the process execution tier: shared model segments + worker pool.

Covers the zero-copy contract (one shared-memory copy of the model, read-only
views in every consumer), the :class:`ProcessReplicaPool` lifecycle (bit-exact
results, crash detection, respawn, clean shutdown), and the no-leaked-segments
guarantee after both graceful close and worker crashes.
"""

import asyncio
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.corpus import build_jrc_acquis_like
from repro.serve import (
    ClassificationService,
    ProcessReplicaPool,
    ServeConfig,
    SharedModel,
    WorkerCrashedError,
)


@pytest.fixture(scope="module")
def identifier():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=10, words_per_document=200, seed=11
    )
    config = ClassifierConfig(m_bits=8 * 1024, k=4, t=1500, seed=1)
    return LanguageIdentifier(config).train(corpus)


@pytest.fixture(scope="module")
def identifier_v2():
    """A second model (different training seed) to swap onto."""
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=10, words_per_document=200, seed=47
    )
    config = ClassifierConfig(m_bits=8 * 1024, k=4, t=1500, seed=1)
    return LanguageIdentifier(config).train(corpus)


@pytest.fixture
def track_segments(monkeypatch):
    """Record the name of every shared-memory segment created during a test."""
    created: list[str] = []
    original_create = SharedModel.create.__func__

    def tracking_create(cls, model):
        shared = original_create(cls, model)
        created.append(shared.name)
        return shared

    monkeypatch.setattr(SharedModel, "create", classmethod(tracking_create))
    return created


@pytest.fixture(scope="module")
def texts(identifier):
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=4, words_per_document=120, seed=29
    )
    return [doc.text[:400] for doc in corpus.documents]


def run(coro):
    return asyncio.run(coro)


def segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


# ------------------------------------------------------------------- shared model


class TestSharedModel:
    def test_segment_round_trips_bit_exactly(self, identifier, texts):
        shared = SharedModel.create(identifier)
        try:
            view = SharedModel.attach(shared.name)
            clone = view.identifier()
            direct = identifier.classify_batch(texts)
            assert [r.match_counts for r in clone.classify_batch(texts)] == [
                r.match_counts for r in direct
            ]
        finally:
            shared.unlink()

    def test_views_are_read_only_and_zero_copy(self, identifier):
        shared = SharedModel.create(identifier)
        try:
            clone = SharedModel.attach(shared.name).identifier()
            for profile in clone.profiles.values():
                assert not profile.ngrams.flags.writeable
            for filt in clone.backend.filters.values():
                assert filt.is_read_only
                with pytest.raises(RuntimeError, match="read-only"):
                    filt.add(3)
            # the live bit-vectors alias the segment, not a private copy
            assert clone.describe()["shared_bit_vectors"] is True
            stacked = clone.backend.export_shared_state()["stacked_bits"]
            assert stacked.shape == (
                identifier.config.k,
                len(identifier.languages),
                identifier.config.m_bits,
            )
            assert np.array_equal(
                stacked, identifier.backend.export_shared_state()["stacked_bits"]
            )
        finally:
            shared.unlink()

    def test_unlink_is_idempotent_and_frees_the_name(self, identifier):
        shared = SharedModel.create(identifier)
        name = shared.name
        assert segment_exists(name)
        shared.unlink()
        assert not segment_exists(name)
        shared.unlink()  # second call is a quiet no-op

    def test_abandoned_segment_is_reaped_by_finalizer(self, identifier):
        shared = SharedModel.create(identifier)
        name = shared.name
        del shared  # no explicit unlink: the weakref finalizer must fire
        import gc

        gc.collect()
        assert not segment_exists(name)


# ------------------------------------------------------------------- process pool


class TestProcessReplicaPool:
    def test_validation(self, identifier):
        with pytest.raises(ValueError):
            ProcessReplicaPool(identifier, 0)
        with pytest.raises(RuntimeError):
            ProcessReplicaPool(LanguageIdentifier(ClassifierConfig()), 1)
        with pytest.raises(ValueError):
            ServeConfig(executor="fiber")

    def test_results_bit_identical_to_direct_batch(self, identifier, texts):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 2)
            try:
                direct = identifier.classify_batch(texts)
                for index in range(2):
                    served = await pool.classify_batch(index, texts)
                    assert [r.match_counts for r in served] == [
                        r.match_counts for r in direct
                    ]
                    assert [r.language for r in served] == [r.language for r in direct]
            finally:
                pool.close()

        run(scenario())

    def test_crash_is_detected_respawned_and_leak_free(self, identifier, texts):
        async def scenario():
            respawns = []
            pool = ProcessReplicaPool(
                identifier, 1, on_respawn=lambda index: respawns.append(index)
            )
            segment = pool.shared_segment_name
            try:
                before = await pool.classify_batch(0, texts[:3])
                pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await pool.classify_batch(0, texts[:3])
                # the pool must have healed itself: same answers, same segment
                after = await pool.classify_batch(0, texts[:3])
                assert [r.match_counts for r in after] == [r.match_counts for r in before]
                assert pool.respawns_total == 1 and respawns == [0]
                assert segment_exists(segment)
            finally:
                pool.close()
            assert not segment_exists(segment)

        run(scenario())

    def test_close_unlinks_segment_and_is_idempotent(self, identifier, texts):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 1)
            segment = pool.shared_segment_name
            await pool.classify_batch(0, texts[:2])
            pool.close()
            assert not segment_exists(segment)
            pool.close()  # idempotent
            with pytest.raises(RuntimeError):
                await pool.classify_batch(0, texts[:2])

        run(scenario())


# ------------------------------------------------------------------- swap hygiene


class TestSwapHygiene:
    """Shared-memory hygiene under blue/green swaps: no segment ever leaks."""

    def test_swap_rolls_to_green_and_unlinks_blue(
        self, identifier, identifier_v2, texts, track_segments
    ):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 2)
            blue = pool.shared_segment_name
            try:
                await pool.classify_batch(0, texts[:3])
                await pool.swap_model(identifier_v2)
                green = pool.shared_segment_name
                assert green != blue
                # blue is gone the moment the roll completes, green is live
                assert not segment_exists(blue)
                assert segment_exists(green)
                direct = identifier_v2.classify_batch(texts)
                for index in range(2):
                    served = await pool.classify_batch(index, texts)
                    assert [r.match_counts for r in served] == [
                        r.match_counts for r in direct
                    ]
            finally:
                pool.close()

        run(scenario())
        for name in track_segments:
            assert not segment_exists(name)

    def test_worker_crash_mid_swap_rolls_back_without_leaks(
        self, identifier, identifier_v2, texts, track_segments
    ):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 1)
            blue = pool.shared_segment_name
            try:
                before = await pool.classify_batch(0, texts[:3])
                pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await pool.swap_model(identifier_v2)
                # the swap aborted: still on blue, healed, answers unchanged
                assert pool.shared_segment_name == blue
                after = await pool.classify_batch(0, texts[:3])
                assert [r.match_counts for r in after] == [
                    r.match_counts for r in before
                ]
                assert pool.respawns_total == 1
            finally:
                pool.close()

        run(scenario())
        for name in track_segments:
            assert not segment_exists(name)

    def test_aborted_roll_swaps_completed_workers_back_to_blue(
        self, identifier, identifier_v2, texts, track_segments
    ):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 2)
            blue = pool.shared_segment_name
            direct_blue = identifier.classify_batch(texts)
            original_call = pool._call

            def failing_call(index, op, payload, contexts=None, sources=None):
                # worker 0 swaps to green, then worker 1's swap fails; the
                # rollback swap back to blue must still be allowed through
                if op == "swap" and index == 1 and payload != blue:
                    raise RuntimeError("injected swap failure")
                return original_call(index, op, payload, contexts, sources)

            pool._call = failing_call
            try:
                with pytest.raises(RuntimeError, match="injected swap failure"):
                    await pool.swap_model(identifier_v2)
                # both workers are back on blue and answer with the old model
                assert pool.shared_segment_name == blue
                assert segment_exists(blue)
                for index in range(2):
                    served = await pool.classify_batch(index, texts)
                    assert [r.match_counts for r in served] == [
                        r.match_counts for r in direct_blue
                    ]
            finally:
                pool.close()

        run(scenario())
        for name in track_segments:
            assert not segment_exists(name)

    def test_shutdown_during_swap_leaves_no_segments(
        self, identifier, identifier_v2, texts, track_segments
    ):
        async def scenario():
            config = ServeConfig(
                max_batch=4, max_delay_ms=1.0, replicas=2, executor="process", cache_size=0
            )
            service = ClassificationService(identifier, config)
            await service.start()
            await service.classify(texts[0])
            # shut down while the swap is (potentially) mid-roll between the
            # blue and green segments; whichever side wins, nothing may leak
            swap_task = asyncio.create_task(service.swap_model(identifier_v2))
            await asyncio.sleep(0)
            outcomes = await asyncio.gather(
                swap_task, service.close(), return_exceptions=True
            )
            # the race has two legal outcomes: the swap completed before
            # shutdown, or it was aborted by it — but never a third state
            assert not isinstance(outcomes[1], BaseException)

        run(scenario())
        assert track_segments  # the green segment was actually created
        for name in track_segments:
            assert not segment_exists(name)


# ------------------------------------------------------------------- service wiring


class TestProcessExecutorService:
    def test_service_process_executor_matches_thread_executor(self, identifier, texts):
        async def serve(executor):
            config = ServeConfig(
                max_batch=8, max_delay_ms=1.0, replicas=2, executor=executor, cache_size=0
            )
            async with ClassificationService(identifier, config) as service:
                results = await service.classify_many(texts)
                info = service.describe()
            return results, info

        thread_results, thread_info = run(serve("thread"))
        process_results, process_info = run(serve("process"))
        assert [r.match_counts for r in process_results] == [
            r.match_counts for r in thread_results
        ]
        assert thread_info["pool"]["executor"] == "thread"
        assert process_info["pool"]["executor"] == "process"
        assert not segment_exists(process_info["pool"]["shared_segment"])

    def test_worker_crash_surfaces_and_metrics_count_respawn(self, identifier, texts):
        async def scenario():
            config = ServeConfig(
                max_batch=4, max_delay_ms=1.0, replicas=1, executor="process", cache_size=0
            )
            async with ClassificationService(identifier, config) as service:
                await service.classify(texts[0])
                service._pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await service.classify(texts[1])
                # healed: the next request classifies normally
                result = await service.classify(texts[1])
                assert result.language in identifier.languages
                assert service.metrics.worker_respawns_total == 1
                assert service.metrics.snapshot()["worker_respawns_total"] == 1

        run(scenario())

    def test_service_on_flat_artifact_uses_memmapped_model(self, identifier, texts, tmp_path):
        path = identifier.save(tmp_path / "model", format="flat")
        assert path.suffix == ".bin"

        async def scenario():
            async with ClassificationService(path) as service:
                return await service.classify_many(texts[:4])

        served = run(scenario())
        direct = identifier.classify_batch(texts[:4])
        assert [r.match_counts for r in served] == [r.match_counts for r in direct]
