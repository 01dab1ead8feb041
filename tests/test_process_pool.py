"""Tests for the process execution tier: the pool's model files + worker pool.

Covers the zero-copy contract (every worker maps one private ``model.bin``
that the pool writes into its own temporary directory; read-only views in
every consumer), the :class:`ProcessReplicaPool` lifecycle (bit-exact
results, crash detection, respawn, clean shutdown), and the no-leaked-files
guarantee after graceful close, worker crashes and blue/green swaps.
"""

import asyncio
import gc
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import ClassifierConfig, LanguageIdentifier
from repro.api.persistence import load_model, save_model
from repro.corpus.corpus import build_jrc_acquis_like
from repro.serve import (
    ClassificationService,
    ProcessReplicaPool,
    ServeConfig,
    WorkerCrashedError,
)
from repro.serve import process_pool


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
def track_model_files(monkeypatch):
    """Record the path of every model file a pool writes during a test."""
    written = []

    def tracking_save(model, path):
        written.append(path)
        return save_model(model, path)

    monkeypatch.setattr(process_pool, "save_model", tracking_save)
    return written


@pytest.fixture(scope="module")
def texts(identifier):
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=4, words_per_document=120, seed=29
    )
    return [doc.text[:400] for doc in corpus.documents]


def run(coro):
    return asyncio.run(coro)


def counts(results):
    return [r.match_counts for r in results]


# ------------------------------------------------------------------- model file


class TestPoolModelFile:
    def test_model_file_round_trips_bit_exactly(self, identifier, texts):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 1)
            try:
                direct = counts(identifier.classify_batch(texts))
                assert counts(await pool.classify_batch(0, texts)) == direct
                assert counts(load_model(pool.model_path).classify_batch(texts)) == direct
            finally:
                pool.close()

        run(scenario())

    def test_views_are_read_only_and_zero_copy(self, identifier):
        pool = ProcessReplicaPool(identifier, 1)
        try:
            clone = load_model(pool.model_path)
            for profile in clone.profiles.values():
                assert not profile.ngrams.flags.writeable
            assert not clone.backend.bits.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                clone.backend.bits[0, 0, 0] = True
            # the live bit-vectors alias the mapped file, not a private copy
            assert clone.describe()["shared_bit_vectors"] is True
            stacked = clone.backend.export_state()["stacked_bits"]
            assert stacked.shape == (
                identifier.config.k,
                len(identifier.languages),
                identifier.config.m_bits,
            )
            assert np.array_equal(
                stacked, identifier.backend.export_state()["stacked_bits"]
            )
        finally:
            pool.close()

    def test_close_removes_the_directory(self, identifier):
        pool = ProcessReplicaPool(identifier, 1)
        directory = pool.model_path.parent
        assert directory.name.startswith("repro-pool-")
        assert pool.describe()["model_bytes"] == pool.model_path.stat().st_size
        pool.close()
        assert not directory.exists()
        assert pool.describe()["model_bytes"] is None

    def test_abandoned_pool_directory_is_removed_by_finalizer(self, identifier):
        pool = ProcessReplicaPool(identifier, 1)
        directory = pool.model_path.parent
        # wait for the worker to load its file, on this thread: a dispatcher
        # thread could still hold the pool for a moment after a batch
        pool._ensure_ready(pool._workers[0])
        with pytest.warns(ResourceWarning, match="Implicitly cleaning up"):
            del pool  # no close(): the directory's own finalizer must fire
            gc.collect()
        assert not directory.exists()

    def test_private_file_pins_the_model_across_a_respawn(
        self, identifier, identifier_v2, texts, tmp_path
    ):
        served = tmp_path / "model.bin"
        identifier.save(served)
        expected = counts(identifier.classify_batch(texts))
        assert counts(identifier_v2.classify_batch(texts)) != expected

        async def scenario():
            pool = ProcessReplicaPool(LanguageIdentifier.load(served), 1)
            try:
                assert counts(await pool.classify_batch(0, texts)) == expected
                # a retrain saved over the served path must not reach the pool
                save_model(identifier_v2, served)
                pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await pool.classify_batch(0, texts)
                assert counts(await pool.classify_batch(0, texts)) == expected
            finally:
                pool.close()

        run(scenario())

    def test_respawn_rewrites_a_removed_model_file(self, identifier, texts):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 1)
            try:
                before = counts(await pool.classify_batch(0, texts))
                # what an age-based temp cleaner does: the file (and here its
                # directory) goes while the worker still maps it
                shutil.rmtree(pool.model_path.parent)
                pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await pool.classify_batch(0, texts)
                assert counts(await pool.classify_batch(0, texts)) == before
                assert pool.model_path.exists()
            finally:
                pool.close()
            assert not pool.model_path.parent.exists()

        run(scenario())


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
                assert [pool.next_round_robin() for _ in range(4)] == [0, 1, 0, 1]
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
            model_file = pool.model_path
            try:
                before = await pool.classify_batch(0, texts[:3])
                pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await pool.classify_batch(0, texts[:3])
                # the pool must have healed itself: same answers, same file
                after = await pool.classify_batch(0, texts[:3])
                assert [r.match_counts for r in after] == [r.match_counts for r in before]
                assert pool.respawns_total == 1 and respawns == [0]
                assert os.path.exists(model_file)
            finally:
                pool.close()
            assert not os.path.exists(model_file)

        run(scenario())

    def test_close_unlinks_segment_and_is_idempotent(self, identifier, texts):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 1)
            model_file = pool.model_path
            await pool.classify_batch(0, texts[:2])
            pool.close()
            assert not os.path.exists(model_file)
            pool.close()  # idempotent
            with pytest.raises(RuntimeError):
                await pool.classify_batch(0, texts[:2])

        run(scenario())

    def test_failed_send_to_a_dead_worker_leaves_no_buffer_error(self, identifier, tmp_path):
        """A send that fails on a dead worker must leave no pickle buffer behind.

        ``Connection.send`` pickles into an ``io.BytesIO`` and sends a
        memoryview of it; a failed send leaves that view in the traceback of
        the request's exception, and the micro-batcher's failed batch holds
        that exception in a reference cycle.  Collecting the cycle can close
        the ``BytesIO`` before the view, which development mode (``-X dev``)
        reports as a ``BufferError``.  The scenario therefore runs in a
        ``-X dev`` child, which counts the reports that reach
        ``sys.unraisablehook``.
        """
        script = """
import asyncio, gc, sys
from repro.serve import ClassificationService, ServeConfig, WorkerCrashedError

reports = []
sys.unraisablehook = lambda report: reports.append(report.exc_type.__name__)

async def crash(path):
    config = ServeConfig(max_delay_ms=1.0, executor="process", cache_size=0)
    async with ClassificationService(path, config) as service:
        await service.classify("a first document")
        service._pool._workers[0].process.kill()
        service._pool._workers[0].process.join(timeout=30)
        try:
            await service.classify("a document for the dead worker")
        except WorkerCrashedError:
            pass

asyncio.run(crash(sys.argv[1]))
gc.collect()
print(reports.count("BufferError"))
"""
        model = identifier.save(tmp_path / "model.bin")
        source_root = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": source_root}
        child = subprocess.run(
            [sys.executable, "-X", "dev", "-c", script, str(model)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.split()[-1] == "0", child.stderr


# ------------------------------------------------------------------- swap hygiene


class TestSwapHygiene:
    """Model-file hygiene under blue/green swaps: no file ever leaks."""

    def test_swap_rolls_to_green_and_unlinks_blue(
        self, identifier, identifier_v2, texts, track_model_files
    ):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 2)
            blue = pool.model_path
            try:
                await pool.classify_batch(0, texts[:3])
                await pool.swap_model(identifier_v2)
                green = pool.model_path
                assert green != blue
                # blue is gone the moment the roll completes, green is live
                assert not os.path.exists(blue)
                assert os.path.exists(green)
                direct = identifier_v2.classify_batch(texts)
                for index in range(2):
                    served = await pool.classify_batch(index, texts)
                    assert [r.match_counts for r in served] == [
                        r.match_counts for r in direct
                    ]
            finally:
                pool.close()

        run(scenario())
        for path in track_model_files:
            assert not os.path.exists(path)

    def test_worker_crash_mid_swap_rolls_back_without_leaks(
        self, identifier, identifier_v2, texts, track_model_files
    ):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 1)
            blue = pool.model_path
            try:
                before = await pool.classify_batch(0, texts[:3])
                pool._workers[0].process.kill()
                with pytest.raises(WorkerCrashedError):
                    await pool.swap_model(identifier_v2)
                # the swap aborted: still on blue, healed, answers unchanged
                assert pool.model_path == blue
                after = await pool.classify_batch(0, texts[:3])
                assert [r.match_counts for r in after] == [
                    r.match_counts for r in before
                ]
                assert pool.respawns_total == 1
            finally:
                pool.close()

        run(scenario())
        for path in track_model_files:
            assert not os.path.exists(path)

    def test_aborted_roll_swaps_completed_workers_back_to_blue(
        self, identifier, identifier_v2, texts, track_model_files
    ):
        async def scenario():
            pool = ProcessReplicaPool(identifier, 2)
            blue = pool.model_path
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
                assert pool.model_path == blue
                assert os.path.exists(blue)
                for index in range(2):
                    served = await pool.classify_batch(index, texts)
                    assert [r.match_counts for r in served] == [
                        r.match_counts for r in direct_blue
                    ]
            finally:
                pool.close()

        run(scenario())
        for path in track_model_files:
            assert not os.path.exists(path)

    def test_shutdown_during_swap_leaves_no_segments(
        self, identifier, identifier_v2, texts, track_model_files
    ):
        async def scenario():
            config = ServeConfig(
                max_batch=4, max_delay_ms=1.0, replicas=2, executor="process", cache_size=0
            )
            service = ClassificationService(identifier, config)
            await service.start()
            await service.classify(texts[0])
            # shut down while the swap is (potentially) mid-roll between the
            # blue and green files; whichever side wins, nothing may leak
            swap_task = asyncio.create_task(service.swap_model(identifier_v2))
            await asyncio.sleep(0)
            outcomes = await asyncio.gather(
                swap_task, service.close(), return_exceptions=True
            )
            # the race has two legal outcomes: the swap completed before
            # shutdown, or it was aborted by it — but never a third state
            assert not isinstance(outcomes[1], BaseException)

        run(scenario())
        assert len(track_model_files) > 1  # the green file was actually written
        for path in track_model_files:
            assert not os.path.exists(path)


# ------------------------------------------------------------------- service wiring


class TestProcessExecutorService:
    def test_service_process_executor_matches_thread_executor(self, identifier, texts):
        async def serve(executor):
            config = ServeConfig(
                max_batch=8,
                max_delay_ms=1.0,
                replicas=1 if executor == "thread" else 2,
                executor=executor,
                cache_size=0,
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
        assert not os.path.exists(process_info["pool"]["model_path"])

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
                snapshot = service.metrics.snapshot()
                assert snapshot["worker_respawns_total"] == 1
                # the crashed request failed once, and is no response
                assert snapshot["errors_total"] == 1
                assert snapshot["responses_total"] == 2

        run(scenario())

    def test_service_on_flat_artifact_uses_memmapped_model(self, identifier, texts, tmp_path):
        path = identifier.save(tmp_path / "model.bin")

        async def scenario():
            async with ClassificationService(path) as service:
                return await service.classify_many(texts[:4])

        served = run(scenario())
        direct = identifier.classify_batch(texts[:4])
        assert [r.match_counts for r in served] == [r.match_counts for r in direct]
