"""Unit tests for classification results and the Bloom/exact backends.

The backends are driven through :class:`repro.api.identifier.LanguageIdentifier`,
the one classification surface; kernel-level checks call the backend's
``match_counts_batch`` on a batch of one document.
"""

import numpy as np
import pytest

from repro.analysis.sweep import _measured_fpr
from repro.api import LanguageIdentifier
from repro.core.classifier import (
    UNDETERMINED_LANGUAGE,
    ClassificationResult,
    undetermined_result,
)
from repro.core.ngram import ngrams_from_text


def _counts(identifier, packed) -> np.ndarray:
    """The backend kernel's per-language counts for one document's keys."""
    packed = np.asarray(packed, dtype=np.uint64)
    return identifier.backend.match_counts_batch(packed, [packed.size])[0]


class TestClassificationResult:
    def test_scores_normalised(self):
        result = ClassificationResult("en", {"en": 50, "fr": 25}, ngram_count=100)
        assert result.scores == {"en": 0.5, "fr": 0.25}

    def test_scores_empty_document(self):
        result = ClassificationResult("en", {"en": 0, "fr": 0}, ngram_count=0)
        assert result.scores == {"en": 0.0, "fr": 0.0}

    def test_margin(self):
        result = ClassificationResult("en", {"en": 50, "fr": 30, "es": 10}, ngram_count=100)
        assert result.margin == 20

    def test_margin_single_language(self):
        assert ClassificationResult("en", {"en": 50}, 100).margin == 50

    def test_ranking(self):
        result = ClassificationResult("en", {"en": 50, "fr": 30, "es": 70}, ngram_count=100)
        assert [lang for lang, _ in result.ranking()] == ["es", "en", "fr"]


class TestTraining:
    def test_fit_texts(self):
        clf = LanguageIdentifier(m_bits=4096, k=3, t=200, seed=1)
        clf.train({"en": ["hello world " * 20], "fr": ["bonjour monde " * 20]})
        assert clf.languages == ["en", "fr"]

    def test_fit_corpus(self, train_corpus):
        clf = LanguageIdentifier(m_bits=4096, k=3, t=500, seed=1)
        clf.train(train_corpus)
        assert set(clf.languages) == set(train_corpus.languages)

    def test_fit_profiles(self, profiles):
        clf = LanguageIdentifier(m_bits=8192, k=4, seed=1)
        clf.train_profiles(profiles)
        assert set(clf.languages) == set(profiles)
        assert set(clf.backend.filters) == set(profiles)

    def test_empty_profiles_rejected(self):
        for backend in ("bloom", "exact", "hail"):
            with pytest.raises(ValueError):
                LanguageIdentifier(backend=backend).train_profiles({})

    def test_classify_before_fit_raises(self):
        clf = LanguageIdentifier()
        with pytest.raises(RuntimeError):
            clf.classify("some text")

    def test_memory_accounting(self):
        clf = LanguageIdentifier(m_bits=4096, k=6)
        assert clf.describe()["memory_bits_per_language"] == 24 * 1024


class TestClassification:
    @pytest.fixture(scope="class")
    def trained(self, profiles):
        return LanguageIdentifier(m_bits=16 * 1024, k=4, t=1500, seed=3).train_profiles(profiles)

    def test_classifies_test_documents_correctly(self, trained, test_corpus):
        sample = test_corpus.documents[:20]
        correct = sum(trained.classify(d.text).language == d.language for d in sample)
        assert correct >= 18  # conservative configuration: near-perfect on synthetic data

    def test_match_counts_shape(self, trained):
        packed = ngrams_from_text("some neutral text for counting")
        counts = _counts(trained, packed)
        assert counts.shape == (len(trained.languages),)
        assert (counts >= 0).all() and (counts <= packed.size).all()

    def test_empty_document(self, trained):
        result = trained.classify("")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0
        assert all(count == 0 for count in result.match_counts.values())

    def test_document_shorter_than_n_is_undetermined(self, trained):
        result = trained.classify("ab")
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.ngram_count == 0
        batch = trained.classify_batch(["", "a document long enough to label", "xy"])
        assert [r.language == UNDETERMINED_LANGUAGE for r in batch] == [True, False, True]

    def test_undetermined_result_helper(self):
        result = undetermined_result(["en", "fr"])
        assert result.language == UNDETERMINED_LANGUAGE
        assert result.match_counts == {"en": 0, "fr": 0}
        assert result.scores == {"en": 0.0, "fr": 0.0}

    def test_all_zero_counts_with_evidence_ties_to_first_language(self, trained):
        # evidence exists (ngrams > 0) but nothing matches any profile: the
        # documented priority-encoder rule picks the first trained language
        packed = np.full(5, (1 << 20) - 1, dtype=np.uint64)
        counts = _counts(trained, packed)
        assert not counts.any()
        result = trained._result_from_counts(counts, packed.size)
        assert result.ngram_count == 5
        assert result.language == trained.languages[0]

    def test_classify_packed_matches_classify_text(self, trained, sample_document):
        text = sample_document.text
        counts = _counts(trained, trained.extractor.extract(text))
        expected = dict(zip(trained.languages, counts.tolist()))
        assert trained.classify(text).match_counts == expected

    def test_classify_batch(self, trained, test_corpus):
        docs = test_corpus.documents[:5]
        results = trained.classify_batch(d.text for d in docs)
        assert len(results) == 5
        for single, doc in zip(results, docs):
            assert single.match_counts == trained.classify(doc.text).match_counts

    def test_deterministic(self, profiles, sample_document):
        a = LanguageIdentifier(m_bits=8192, k=3, seed=11).train_profiles(profiles)
        b = LanguageIdentifier(m_bits=8192, k=3, seed=11).train_profiles(profiles)
        assert (
            a.classify(sample_document.text).match_counts
            == b.classify(sample_document.text).match_counts
        )

    def test_expected_fpr_uses_profile_size(self, trained):
        assert 0.0 < trained.describe()["expected_fpr"] < 0.05

    def test_measured_fpr_close_to_expected(self, trained):
        measured = _measured_fpr(trained, sample_size=30000, seed=5)
        expected = trained.describe()["expected_fpr"]
        mean_measured = float(np.mean(list(measured.values())))
        assert mean_measured == pytest.approx(expected, rel=0.5, abs=0.003)

    def test_alternative_hash_family(self, profiles, sample_document):
        clf = LanguageIdentifier(m_bits=8192, k=4, seed=1, hash_family="tabulation")
        clf.train_profiles(profiles)
        result = clf.classify(sample_document.text)
        assert result.language == sample_document.language

    def test_subsampling_still_classifies(self, profiles, sample_document):
        clf = LanguageIdentifier(m_bits=16 * 1024, k=4, seed=1, subsample_stride=2)
        clf.train_profiles(profiles)
        assert clf.classify(sample_document.text).language == sample_document.language


class TestExactClassifier:
    @pytest.fixture(scope="class")
    def exact(self, profiles):
        return LanguageIdentifier(t=1500, backend="exact").train_profiles(profiles)

    def test_exact_counts_are_true_membership(self, exact, profiles):
        text = "reference membership counting text"
        packed = exact.extractor.extract(text)
        counts = _counts(exact, packed)
        for index, (language, profile) in enumerate(profiles.items()):
            assert counts[index] == int(profile.contains_many(packed).sum())

    def test_bloom_counts_upper_bound_exact_counts(self, exact, profiles, sample_document):
        """Bloom filters can only add false positives, never lose true matches."""
        bloom = LanguageIdentifier(m_bits=4096, k=2, seed=2).train_profiles(profiles)
        exact_counts = exact.classify(sample_document.text).match_counts
        bloom_counts = bloom.classify(sample_document.text).match_counts
        assert all(bloom_counts[lang] >= count for lang, count in exact_counts.items())

    def test_exact_classification_accuracy(self, exact, test_corpus):
        sample = test_corpus.documents[:20]
        correct = sum(exact.classify(d.text).language == d.language for d in sample)
        assert correct >= 19

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            LanguageIdentifier(backend="exact").classify("text")
