"""Unit tests for the Mguesser and HAIL baselines."""

import numpy as np
import pytest

from repro.api import LanguageIdentifier
from repro.baselines.hail import (
    HAIL_MAX_LANGUAGES,
    HAIL_PAPER_THROUGHPUT_MB_S,
    HailClassifier,
    HailTimingModel,
)
from repro.baselines.mguesser import (
    MGUESSER_PAPER_THROUGHPUT_MB_S,
    CavnarTrenkleClassifier,
    MguesserClassifier,
    RankedProfile,
    character_ngrams,
)


class TestCharacterNgrams:
    def test_counts_multiple_orders(self):
        counts = character_ngrams("abc", orders=(1, 2))
        assert counts[" a"] == 1
        assert counts["a"] == 1
        assert counts["ab"] == 1

    def test_normalisation_lowercases_and_strips_punctuation(self):
        counts = character_ngrams("A.B", orders=(1,))
        assert counts["a"] == 1 and counts["b"] == 1
        assert "." not in counts

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            character_ngrams("abc", orders=(0,))


class TestRankedProfile:
    def test_profile_size_limit(self):
        profile = RankedProfile.from_texts("en", ["the cat sat on the mat " * 5], size=20)
        assert len(profile.ranks) <= 20

    def test_out_of_place_distance_zero_for_identical(self):
        profile = RankedProfile.from_texts("en", ["identical text sample"], size=50)
        assert profile.out_of_place_distance(profile.ranks) == 0

    def test_distance_penalises_missing_ngrams(self):
        profile = RankedProfile.from_texts("en", ["english words only here"], size=50)
        foreign = {"zzzz": 0, "qqqq": 1}
        assert profile.out_of_place_distance(foreign) == 2 * profile.size


class TestCavnarTrenkle:
    def test_classifies_training_languages(self, train_corpus, test_corpus):
        classifier = CavnarTrenkleClassifier(profile_size=300)
        classifier.fit(train_corpus)
        sample = test_corpus.documents[:8]
        correct = sum(classifier.classify_text(d.text) == d.language for d in sample)
        assert correct >= 7

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            CavnarTrenkleClassifier().classify_text("text")

    def test_requires_languages(self):
        with pytest.raises(ValueError):
            CavnarTrenkleClassifier().fit_texts({})


class TestMguesser:
    def test_paper_throughput_constant(self):
        assert MGUESSER_PAPER_THROUGHPUT_MB_S == 5.5

    def test_classifies_correctly(self, train_corpus, test_corpus):
        classifier = MguesserClassifier()
        classifier.fit(train_corpus)
        sample = test_corpus.documents[:10]
        correct = sum(classifier.classify_text(d.text) == d.language for d in sample)
        assert correct >= 9

    def test_scores_cover_all_languages(self, train_corpus, sample_document):
        classifier = MguesserClassifier().fit(train_corpus)
        scores = classifier.scores(sample_document.text)
        assert set(scores) == set(train_corpus.languages)

    def test_measure_throughput_returns_positive_rate(self, train_corpus, test_corpus):
        classifier = MguesserClassifier().fit(train_corpus)
        small = test_corpus.filter(lambda d: d.language == "en")
        rate, elapsed = classifier.measure_throughput(small)
        assert rate > 0 and elapsed > 0

    def test_measure_throughput_invalid_repeat(self, train_corpus, test_corpus):
        classifier = MguesserClassifier().fit(train_corpus)
        with pytest.raises(ValueError):
            classifier.measure_throughput(test_corpus, repeat=0)

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            MguesserClassifier().classify_text("text")

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            MguesserClassifier(order=0)


class TestHailFunctionalModel:
    def test_classifies_correctly(self, train_corpus, test_corpus):
        classifier = LanguageIdentifier(t=1500, backend="hail").train(train_corpus)
        sample = test_corpus.documents[:10]
        correct = sum(classifier.classify(d.text).language == d.language for d in sample)
        assert correct >= 9

    def test_match_counts_upper_bound_true_membership(self, profiles, sample_document):
        # table collisions can only add spurious matches, never remove true ones
        hail = LanguageIdentifier(t=1500, backend="hail").train_profiles(profiles)
        packed = hail.extractor.extract(sample_document.text)
        counts = hail.classify(sample_document.text).match_counts
        small = HailClassifier(table_bits=14).fit_profiles(profiles)
        bitmaps = small.lookup(packed)
        for index, (language, profile) in enumerate(profiles.items()):
            member = profile.contains_many(packed)
            assert counts[language] >= int(member.sum())
            assert ((bitmaps[member] >> np.uint64(index)) & np.uint64(1)).all()

    def test_small_table_fills_up(self, profiles):
        small = HailClassifier(table_bits=12)
        small.fit_profiles(profiles)
        large = HailClassifier(table_bits=20)
        large.fit_profiles(profiles)
        assert small.table_fill_ratio > large.table_fill_ratio

    def test_untrained_raises(self):
        with pytest.raises(RuntimeError):
            HailClassifier().lookup(np.asarray([1], dtype=np.uint64))
        with pytest.raises(RuntimeError):
            LanguageIdentifier(backend="hail").classify("text")

    def test_too_many_languages_rejected(self):
        classifier = HailClassifier()
        fake_profiles = {f"l{i}": None for i in range(300)}
        with pytest.raises(ValueError):
            classifier.fit_profiles(fake_profiles)

    def test_invalid_table_bits(self):
        with pytest.raises(ValueError):
            HailClassifier(table_bits=0)


class TestHailTimingModel:
    def test_default_matches_paper_throughput(self):
        assert HailTimingModel().throughput_mb_s == pytest.approx(HAIL_PAPER_THROUGHPUT_MB_S, rel=0.01)

    def test_supports_255_languages(self):
        assert HailTimingModel().max_languages == HAIL_MAX_LANGUAGES == 255

    def test_throughput_scales_with_sram_devices(self):
        assert HailTimingModel(sram_devices=8).throughput_mb_s == pytest.approx(648, rel=0.01)

    def test_subsampling_doubles_byte_throughput(self):
        assert HailTimingModel(subsample_stride=2).throughput_mb_s == pytest.approx(648, rel=0.01)

    def test_speedup_vs_bloom_design(self):
        # Table 4 / Section 5.5: the Bloom filter design is 1.45x faster at 470 MB/s
        assert HailTimingModel().speedup_vs(470.0) == pytest.approx(1.45, abs=0.05)

    def test_speedup_invalid(self):
        with pytest.raises(ValueError):
            HailTimingModel().speedup_vs(0.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            HailTimingModel(frequency_mhz=0)
