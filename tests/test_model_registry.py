"""Tests for the model lifecycle subsystem: registry store + streaming trainer.

Covers the durability contract of :class:`~repro.registry.store.ModelRegistry`
(atomic publish, latest pointer, lineage, gc), and the streaming-training
equivalence guarantees of :class:`~repro.registry.trainer.StreamingTrainer`
(exact match to batch training when the accumulator never prunes, observable
error bounds when it does, extend for child versions).
"""

import json

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.api.persistence import model_fingerprint
from repro.core.ngram import (
    NGramExtractor,
    count_ngrams,
    merge_ngram_counts,
    top_ngrams,
    top_ngrams_from_counts,
)
from repro.core.profile import build_profiles
from repro.corpus.corpus import build_jrc_acquis_like
from repro.registry import (
    MANIFEST_SCHEMA,
    ModelRegistry,
    RegistryError,
    StreamingTrainer,
    TopKAccumulator,
)

CONFIG = ClassifierConfig(t=400, m_bits=4 * 1024, k=3, seed=0)


@pytest.fixture(scope="module")
def corpus():
    return build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=8, words_per_document=150, seed=3
    )


@pytest.fixture(scope="module")
def corpus_b():
    return build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=8, words_per_document=150, seed=21
    )


@pytest.fixture(scope="module")
def batch_model(corpus):
    return LanguageIdentifier(CONFIG).train(corpus)


# ------------------------------------------------------------------- count helpers


class TestCountHelpers:
    def test_top_from_counts_matches_top_ngrams(self):
        rng = np.random.default_rng(7)
        packed = rng.integers(0, 500, size=4000).astype(np.uint64)
        values, counts = count_ngrams(packed)
        for t in (1, 10, 137, 10_000):
            expected = top_ngrams(packed, t)
            got = top_ngrams_from_counts(values, counts, t)
            assert np.array_equal(got[0], expected[0])
            assert np.array_equal(got[1], expected[1])

    def test_merge_is_exact_concatenation_count(self):
        rng = np.random.default_rng(8)
        a = rng.integers(0, 300, size=2000).astype(np.uint64)
        b = rng.integers(0, 300, size=3000).astype(np.uint64)
        va, ca = count_ngrams(a)
        vb, cb = count_ngrams(b)
        merged_v, merged_c = merge_ngram_counts(va, ca, vb, cb)
        direct_v, direct_c = count_ngrams(np.concatenate([a, b]))
        assert np.array_equal(merged_v, direct_v)
        assert np.array_equal(merged_c, direct_c)


# ------------------------------------------------------------------- accumulator


class TestTopKAccumulator:
    def test_unbounded_capacity_is_exact(self):
        rng = np.random.default_rng(9)
        stream = rng.integers(0, 1000, size=10_000).astype(np.uint64)
        accumulator = TopKAccumulator(capacity=100_000)
        for chunk in np.array_split(stream, 13):
            accumulator.update(chunk)
        values, counts = accumulator.top(100_000)
        expected = top_ngrams(stream, 100_000)
        assert np.array_equal(values, expected[0])
        assert np.array_equal(counts, expected[1])
        assert accumulator.pruned_mass == 0
        assert accumulator.max_pruned_count == 0
        assert accumulator.ngrams_total == stream.size

    def test_capacity_is_enforced_and_error_bound_observable(self):
        rng = np.random.default_rng(10)
        stream = rng.integers(0, 5000, size=20_000).astype(np.uint64)
        accumulator = TopKAccumulator(capacity=500)
        for chunk in np.array_split(stream, 40):
            accumulator.update(chunk)
        assert len(accumulator) <= 500
        assert accumulator.pruned_mass > 0
        assert accumulator.max_pruned_count > 0
        stats = accumulator.stats()
        assert stats["capacity"] == 500
        assert stats["ngrams_total"] == stream.size

    def test_validation(self):
        with pytest.raises(ValueError):
            TopKAccumulator(0)


# ------------------------------------------------------------------- streaming trainer


class TestStreamingTrainer:
    def test_streaming_equals_batch_when_nothing_prunes(self, corpus, batch_model):
        trainer = StreamingTrainer(CONFIG, capacity=1_000_000, chunk_ngrams=2048)
        streamed = trainer.feed(corpus).build()
        # identical profiles -> identical fingerprints -> bit-identical model
        assert model_fingerprint(streamed) == model_fingerprint(batch_model)

    def test_strided_streaming_equals_batch_training(self, corpus, batch_model):
        """Like batch training, the streaming trainer reads every n-gram: a
        stride-2 trainer builds the stride-1 model's profiles."""
        strided = CONFIG.replace(subsample_stride=2)
        streamed = StreamingTrainer(strided, capacity=1_000_000).feed(corpus).build()
        for language, profile in batch_model.profiles.items():
            assert np.array_equal(streamed.profiles[language].ngrams, profile.ngrams)
            assert np.array_equal(streamed.profiles[language].counts, profile.counts)

    def test_document_pairs_and_corpus_objects_are_equivalent(self, corpus):
        from_corpus = StreamingTrainer(CONFIG, capacity=1_000_000).feed(corpus).build()
        pairs = [(doc.language, doc.text) for doc in corpus]
        from_pairs = StreamingTrainer(CONFIG, capacity=1_000_000).feed(pairs).build()
        assert model_fingerprint(from_corpus) == model_fingerprint(from_pairs)

    def test_bounded_capacity_still_classifies(self, corpus, corpus_b, batch_model):
        # tight capacity (just 2x t): the profiles approximate, but the model
        # must remain a working classifier on held-out text
        trainer = StreamingTrainer(CONFIG, capacity=2 * CONFIG.t, chunk_ngrams=1024)
        model = trainer.feed(corpus).build()
        texts = [doc.text for doc in corpus_b.documents]
        expected = [doc.language for doc in corpus_b.documents]
        got = [r.language for r in model.classify_batch(texts)]
        accuracy = sum(g == e for g, e in zip(got, expected)) / len(expected)
        assert accuracy >= 0.9

    def test_extend_folds_new_documents_into_same_accumulators(self, corpus, corpus_b):
        trainer = StreamingTrainer(CONFIG, capacity=1_000_000)
        trainer.feed(corpus).build()
        extended = trainer.extend(corpus_b)
        both = StreamingTrainer(CONFIG, capacity=1_000_000)
        both.feed(corpus)
        reference = both.feed(corpus_b).build()
        assert model_fingerprint(extended) == model_fingerprint(reference)

    def test_stats_shape(self, corpus):
        trainer = StreamingTrainer(CONFIG, capacity=1_000_000)
        trainer.feed(corpus)
        stats = trainer.stats()
        assert stats["documents"] == len(corpus.documents)
        assert stats["bytes"] > 0
        assert set(stats["languages"]) == {"en", "fr", "es"}
        for entry in stats["languages"].values():
            assert entry["documents"] > 0
            assert entry["ngrams_total"] > 0

    def test_lone_surrogate_is_counted_once(self):
        text = "abc \ud800 def"
        trainer = StreamingTrainer(CONFIG, capacity=1_000_000)
        trainer.feed_text("en", text)
        stats = trainer.stats()
        assert stats["documents"] == 1
        assert stats["bytes"] == len(text.encode("utf-8", "surrogatepass"))
        profile = build_profiles({"en": [text]}, n=CONFIG.n, t=CONFIG.t)["en"]
        assert np.array_equal(trainer.profiles()["en"].ngrams, profile.ngrams)
        assert np.array_equal(trainer.profiles()["en"].counts, profile.counts)

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            StreamingTrainer(CONFIG, capacity=CONFIG.t - 1)
        with pytest.raises(ValueError, match="chunk_ngrams"):
            StreamingTrainer(CONFIG, chunk_ngrams=0)
        with pytest.raises(RuntimeError, match="no documents"):
            StreamingTrainer(CONFIG).build()


# ------------------------------------------------------------------- registry store


class TestModelRegistry:
    def test_publish_resolve_roundtrip(self, tmp_path, batch_model):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(batch_model, corpus_stats={"documents": 24})
        assert record.name == "v000001"
        assert record.fingerprint == model_fingerprint(batch_model).hex()
        assert registry.latest().version == 1
        # every spec form resolves to the same record
        for spec in (1, "1", "v000001", "latest"):
            assert registry.resolve(spec).version == 1
        manifest = json.loads((record.path / "manifest.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["languages"] == batch_model.languages
        assert manifest["config"] == batch_model.config.to_dict()
        assert manifest["corpus_stats"] == {"documents": 24}
        assert manifest["artifact"]["bytes"] == record.artifact_path.stat().st_size

    def test_loaded_version_classifies_bit_identically(self, tmp_path, batch_model, corpus):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(batch_model)
        loaded = registry.load("latest")
        texts = [doc.text for doc in corpus.documents[:6]]
        direct = batch_model.classify_batch(texts)
        served = loaded.classify_batch(texts)
        assert [r.match_counts for r in served] == [r.match_counts for r in direct]

    def test_versions_are_monotonic_with_lineage(self, tmp_path, corpus, corpus_b):
        registry = ModelRegistry(tmp_path / "registry")
        trainer = StreamingTrainer(CONFIG).feed(corpus)
        v1 = registry.publish(trainer.build())
        child_model = trainer.extend(corpus_b)
        v2 = registry.publish(child_model, parent=v1.version)
        assert [record.name for record in registry.list()] == ["v000001", "v000002"]
        assert v2.parent == "v000001"
        assert registry.latest().version == 2

    def test_publish_without_activate_keeps_latest(self, tmp_path, corpus, corpus_b):
        registry = ModelRegistry(tmp_path / "registry")
        trainer = StreamingTrainer(CONFIG).feed(corpus)
        registry.publish(trainer.build())
        candidate = trainer.extend(corpus_b)
        record = registry.publish(candidate, activate=False)
        assert record.version == 2
        assert registry.latest().version == 1
        registry.set_latest(record)
        assert registry.latest().version == 2

    def test_publish_from_artifact_path(self, tmp_path, batch_model):
        artifact = batch_model.save(tmp_path / "trained-model")
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(artifact)
        assert record.fingerprint == model_fingerprint(batch_model).hex()
        # stored under the registry's own artifact name, byte-identical
        assert record.artifact_path.name == "model.bin"
        assert record.artifact_path.read_bytes() == artifact.read_bytes()

    def test_gc_keeps_window_and_active_version(self, tmp_path, batch_model):
        registry = ModelRegistry(tmp_path / "registry")
        records = [registry.publish(batch_model) for _ in range(5)]
        registry.set_latest(records[0])  # roll back: v1 is actively serving
        removed = registry.gc(keep=2)
        survivors = [record.name for record in registry.list()]
        assert removed == ["v000002", "v000003"]
        assert survivors == ["v000001", "v000004", "v000005"]
        # staging debris is swept too
        debris = registry.versions_dir / ".tmp-crashed-123"
        debris.mkdir()
        assert registry.gc(keep=5) == []
        assert not debris.exists()

    def test_gc_dry_run_removes_nothing(self, tmp_path, batch_model):
        registry = ModelRegistry(tmp_path / "registry")
        for _ in range(3):
            registry.publish(batch_model)
        assert registry.gc(keep=1, dry_run=True) == ["v000001", "v000002"]
        assert len(registry.list()) == 3

    def test_error_cases(self, tmp_path, batch_model):
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(RegistryError, match="no published versions"):
            registry.latest()
        with pytest.raises(RegistryError, match="no published version"):
            registry.resolve(7)
        with pytest.raises(RegistryError, match="invalid version spec"):
            registry.resolve("vABC")
        with pytest.raises(RegistryError, match="start at 1"):
            registry.resolve(0)
        with pytest.raises(RegistryError, match="trained"):
            registry.publish(LanguageIdentifier(CONFIG))
        with pytest.raises(RegistryError, match="at least one"):
            registry.gc(keep=0)
        registry.publish(batch_model)
        with pytest.raises(RegistryError, match="no published version"):
            registry.publish(batch_model, parent=9)

    def test_describe(self, tmp_path, batch_model):
        registry = ModelRegistry(tmp_path / "registry")
        assert registry.describe()["versions"] == 0
        registry.publish(batch_model)
        summary = registry.describe()
        assert summary["versions"] == 1
        assert summary["latest"] == "v000001"
        assert summary["total_bytes"] > 0


# ------------------------------------------------------------------- fingerprint move


def test_fingerprint_importable_from_both_homes(batch_model):
    """The canonical implementation lives in persistence; serve re-exports it."""
    from repro.serve.cache import model_fingerprint as from_cache

    assert from_cache(batch_model) == model_fingerprint(batch_model)
    assert len(model_fingerprint(batch_model)) == 16


def test_profile_from_counts_matches_from_packed():
    extractor = NGramExtractor(n=4)
    packed = extractor.extract("the quick brown fox jumps over the lazy dog " * 30)
    from repro.core.profile import LanguageProfile

    direct = LanguageProfile.from_packed("en", packed, t=50)
    values, counts = count_ngrams(packed)
    rebuilt = LanguageProfile.from_counts("en", values, counts, t=50)
    assert np.array_equal(direct.ngrams, rebuilt.ngrams)
    assert np.array_equal(direct.counts, rebuilt.counts)
