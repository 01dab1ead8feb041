"""Tests for the unified ``repro.api`` surface.

Covers the acceptance points of the facade redesign: configuration validation
and round-tripping, backend-registry errors, vectorized batch/stream agreement
with single-document classification across every registered backend, and
save/load bit-exactness of the model artifacts.
"""

import numpy as np
import pytest

from repro.api import (
    DEFAULT_STREAM_BATCH_SIZE,
    ClassifierConfig,
    LanguageIdentifier,
    ModelFormatError,
    available_backends,
    create_backend,
    get_backend,
    register_backend,
)
from repro.api import registry
from repro.api.registry import Backend
from repro.corpus.corpus import build_jrc_acquis_like

#: backends that must reload bit-exactly from a saved artifact (acceptance criteria)
PERSISTENCE_BACKENDS = ("bloom", "exact", "hw-sim")


@pytest.fixture(scope="module")
def split():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=12, words_per_document=200, seed=7
    )
    return corpus.split(train_fraction=0.3, seed=7)


@pytest.fixture(scope="module")
def train_corpus(split):
    return split[0]


@pytest.fixture(scope="module")
def test_corpus(split):
    return split[1]


def _identifier(backend: str, train_corpus) -> LanguageIdentifier:
    config = ClassifierConfig(m_bits=8 * 1024, k=4, t=1500, seed=1, backend=backend)
    return LanguageIdentifier(config).train(train_corpus)


# ------------------------------------------------------------------- config


class TestClassifierConfig:
    def test_defaults_match_paper(self):
        config = ClassifierConfig()
        assert (config.n, config.t, config.m_bits, config.k) == (4, 5000, 16 * 1024, 4)
        assert config.hash_family == "h3"
        assert config.backend == "bloom"
        assert config.key_bits == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 13},
            {"t": 0},
            {"m_bits": 3000},
            {"m_bits": 0},
            {"k": 0},
            {"hash_family": "md5"},
            {"n": 64},
            {"subsample_stride": 0},
            {"backend": ""},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ClassifierConfig(**kwargs)

    def test_dict_roundtrip(self):
        config = ClassifierConfig(n=3, t=800, m_bits=4096, k=6, seed=9, backend="exact")
        assert ClassifierConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown configuration keys"):
            ClassifierConfig.from_dict({"n": 4, "bogus": 1})

    def test_replace_revalidates(self):
        config = ClassifierConfig()
        assert config.replace(k=6).k == 6
        with pytest.raises(ValueError):
            config.replace(m_bits=999)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            ClassifierConfig().k = 2


# ------------------------------------------------------------------- registry


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_backends()) >= {"bloom", "exact", "hw-sim", "mguesser", "hail"}

    def test_unknown_backend_error_lists_choices(self):
        with pytest.raises(ValueError, match="available backends"):
            get_backend("turbo-encabulator")

    def test_unknown_backend_at_construction(self):
        config = ClassifierConfig(backend="turbo-encabulator")
        with pytest.raises(ValueError, match="unknown backend"):
            create_backend(config)

    def test_register_rejects_non_backend(self):
        with pytest.raises(TypeError):
            register_backend("bad")(object)

    def test_register_rejects_duplicate_name(self):
        class Impostor(Backend):
            def fit_profiles(self, profiles):  # pragma: no cover - never called
                pass

            def match_counts_batch(self, packed, starts, lengths):  # pragma: no cover
                pass

        with pytest.raises(ValueError, match="already registered"):
            register_backend("bloom")(Impostor)

    def test_describe_names_backend(self, train_corpus):
        for backend in available_backends():
            info = _identifier(backend, train_corpus).describe()
            assert info["backend"] == backend
            assert info["languages"] == ["en", "fr", "es"]
            assert info["config"]["backend"] == backend


# ------------------------------------------------------------------- facade


class TestLanguageIdentifier:
    def test_untrained_raises(self):
        identifier = LanguageIdentifier()
        with pytest.raises(RuntimeError, match="train"):
            identifier.classify("hello world")

    def test_kwarg_overrides(self):
        identifier = LanguageIdentifier(backend="exact", k=6)
        assert identifier.config.backend == "exact"
        assert identifier.config.k == 6

    def test_train_from_mapping(self, train_corpus):
        identifier = LanguageIdentifier(t=500).train(train_corpus.texts_by_language())
        assert set(identifier.languages) == {"en", "fr", "es"}

    def test_training_reads_every_ngram_whatever_the_stride(self, train_corpus):
        """The stride thins the test stream only: a strided identifier's
        profiles are counted from every training n-gram, as at stride 1."""
        full = LanguageIdentifier(t=500).train(train_corpus)
        strided = LanguageIdentifier(t=500, subsample_stride=2).train(train_corpus)
        assert list(strided.profiles) == list(full.profiles)
        for language, profile in full.profiles.items():
            assert np.array_equal(strided.profiles[language].ngrams, profile.ngrams)
            assert np.array_equal(strided.profiles[language].counts, profile.counts)

    @pytest.mark.parametrize("backend", sorted({"bloom", "exact", "hw-sim", "mguesser", "hail"}))
    def test_batch_and_stream_agree_with_single(self, backend, train_corpus, test_corpus):
        identifier = _identifier(backend, train_corpus)
        texts = [doc.text for doc in test_corpus.documents[:10]] + ["", "ab"]
        singles = [identifier.classify(text) for text in texts]
        batch = identifier.classify_batch(texts)
        streamed = list(identifier.classify_stream(iter(texts), batch_size=4))
        assert [r.match_counts for r in batch] == [r.match_counts for r in singles]
        assert [r.match_counts for r in streamed] == [r.match_counts for r in singles]
        assert [r.language for r in batch] == [r.language for r in singles]
        assert [r.ngram_count for r in batch] == [r.ngram_count for r in singles]

    def test_a_counting_kernel_is_all_a_backend_needs(self, train_corpus, monkeypatch):
        """A third-party backend that only counts inherits ``decide_batch``:
        the first maximum wins, and a document with no n-gram reads ``und``."""

        class CountsOnly(Backend):
            name = "counts-only"

            def fit_profiles(self, profiles):
                self.profiles = dict(profiles)

            def ngram_hits(self, packed):
                hits = np.ones((len(self.languages), packed.size), dtype=np.int64)
                hits[0] = 0  # every language but the first claims every n-gram
                return hits

            def match_counts_batch(self, packed, starts, lengths):
                return np.outer(lengths, [0] + [1] * (len(self.languages) - 1))

        monkeypatch.setitem(registry._REGISTRY, CountsOnly.name, CountsOnly)
        identifier = LanguageIdentifier(backend=CountsOnly.name).train(train_corpus)
        first, second, third = identifier.languages
        results = identifier.classify_batch(["some text here", "", "ab", b"more text"])
        assert [r.language for r in results] == [second, "und", "und", second]
        assert [r.ngram_count for r in results] == [11, 0, 0, 6]
        assert results[0].match_counts == {first: 0, second: 11, third: 11}
        assert results[1].match_counts == dict.fromkeys(identifier.languages, 0)
        assert all(
            (r.calibrated_confidence, r.abstain_reason, r.member_votes) == (None, None, None)
            for r in results
        )

    def test_classify_batch_empty(self, train_corpus):
        assert _identifier("bloom", train_corpus).classify_batch([]) == []

    def test_classify_stream_is_lazy(self, train_corpus):
        identifier = _identifier("bloom", train_corpus)
        consumed = []

        def feed():
            for index in range(8):
                consumed.append(index)
                yield "the quick brown fox " * 5

        stream = identifier.classify_stream(feed(), batch_size=4)
        assert consumed == []
        next(stream)
        assert len(consumed) == 4  # only the first batch was pulled

    def test_stream_rejects_bad_batch_size(self, train_corpus):
        identifier = _identifier("bloom", train_corpus)
        with pytest.raises(ValueError):
            list(identifier.classify_stream(["x"], batch_size=0))

    def test_bloom_agrees_with_hw_sim(self, train_corpus, test_corpus):
        bloom = _identifier("bloom", train_corpus)
        hw = _identifier("hw-sim", train_corpus)
        for doc in test_corpus.documents[:5]:
            assert bloom.classify(doc.text).match_counts == hw.classify(doc.text).match_counts


# ------------------------------------------------------------------- persistence


class TestPersistence:
    @pytest.mark.parametrize("backend", PERSISTENCE_BACKENDS)
    def test_save_load_roundtrip_bit_exact(self, backend, train_corpus, test_corpus, tmp_path):
        identifier = _identifier(backend, train_corpus)
        path = identifier.save(tmp_path / f"model-{backend}.bin")
        restored = LanguageIdentifier.load(path)
        assert restored.config == identifier.config
        assert restored.languages == identifier.languages
        for doc in test_corpus.documents[:5]:
            assert (
                restored.classify(doc.text).match_counts
                == identifier.classify(doc.text).match_counts
            ), f"match counts drifted after reload for backend {backend}"

    def test_load_accepts_suffixless_save_path(self, train_corpus, tmp_path):
        identifier = _identifier("bloom", train_corpus)
        identifier.save(tmp_path / "model")
        restored = LanguageIdentifier.load(tmp_path / "model")
        assert restored.languages == identifier.languages

    def test_save_untrained_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            LanguageIdentifier().save(tmp_path / "model.bin")

    def test_load_with_backend_override(self, train_corpus, test_corpus, tmp_path):
        identifier = _identifier("bloom", train_corpus)
        path = identifier.save(tmp_path / "model.bin")
        exact = LanguageIdentifier.load(path, backend="exact")
        assert exact.config.backend == "exact"
        reference = _identifier("exact", train_corpus)
        doc = test_corpus.documents[0]
        assert exact.classify(doc.text).match_counts == reference.classify(doc.text).match_counts

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ValueError, match="artifact"):
            LanguageIdentifier.load(path)

    def test_bloom_artifact_stores_bit_vectors(self, train_corpus, tmp_path):
        identifier = _identifier("bloom", train_corpus)
        loaded = LanguageIdentifier.load(identifier.save(tmp_path / "model.bin"))
        # the loaded filters read the artifact's bit-vectors in place ...
        assert loaded.describe()["shared_bit_vectors"] is True
        # ... and those equal the trained filters' bits exactly
        assert np.array_equal(
            loaded.backend.export_state()["stacked_bits"],
            identifier.backend.export_state()["stacked_bits"],
        )


class TestModelFormatErrors:
    """Corrupt, truncated, foreign, or future artifacts raise ``ModelFormatError``."""

    @pytest.fixture()
    def artifact(self, train_corpus, tmp_path):
        return _identifier("bloom", train_corpus).save(tmp_path / "model.bin")

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            LanguageIdentifier.load(tmp_path / "nope.bin")

    def test_not_an_npz_raises_model_format_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is definitely not a zip archive")
        with pytest.raises(ModelFormatError):
            LanguageIdentifier.load(path)

    def test_truncated_artifact_raises_model_format_error(self, artifact):
        data = artifact.read_bytes()
        artifact.write_bytes(data[: len(data) // 2])
        with pytest.raises(ModelFormatError):
            LanguageIdentifier.load(artifact)

    def test_foreign_npz_raises_model_format_error(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, data=np.arange(3))
        with pytest.raises(ModelFormatError, match="magic"):
            LanguageIdentifier.load(path)

    def test_model_format_error_is_a_value_error(self):
        assert issubclass(ModelFormatError, ValueError)


class TestStreamBatchSizeConfig:
    def test_default_promoted_into_config(self):
        assert ClassifierConfig().stream_batch_size == DEFAULT_STREAM_BATCH_SIZE

    @pytest.mark.parametrize("bad", [0, -4])
    def test_validated_positive(self, bad):
        with pytest.raises(ValueError, match="stream_batch_size"):
            ClassifierConfig(stream_batch_size=bad)

    def test_round_trips_through_dict_and_artifact(self, train_corpus, tmp_path):
        config = ClassifierConfig(m_bits=8 * 1024, t=1500, stream_batch_size=17)
        assert ClassifierConfig.from_dict(config.to_dict()) == config
        identifier = LanguageIdentifier(config).train(train_corpus)
        path = identifier.save(tmp_path / "model.bin")
        assert LanguageIdentifier.load(path).config.stream_batch_size == 17

    def test_classify_stream_defaults_to_config(self, train_corpus, test_corpus):
        config = ClassifierConfig(m_bits=8 * 1024, t=1500, stream_batch_size=3)
        identifier = LanguageIdentifier(config).train(train_corpus)
        texts = [doc.text for doc in test_corpus.documents[:7]]
        streamed = list(identifier.classify_stream(iter(texts)))
        direct = identifier.classify_batch(texts)
        assert [r.match_counts for r in streamed] == [r.match_counts for r in direct]

    def test_explicit_batch_size_still_validated(self, train_corpus):
        config = ClassifierConfig(m_bits=8 * 1024, t=1500)
        identifier = LanguageIdentifier(config).train(train_corpus)
        with pytest.raises(ValueError, match="batch_size"):
            identifier.classify_stream([], batch_size=0)
