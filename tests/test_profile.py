"""Unit tests for language profiles."""

import numpy as np
import pytest

from repro.core.ngram import ngrams_from_text
from repro.core.profile import DEFAULT_PROFILE_SIZE, LanguageProfile, build_profiles


class TestConstruction:
    def test_default_profile_size_matches_paper(self):
        assert DEFAULT_PROFILE_SIZE == 5000

    def test_from_packed_orders_by_frequency(self):
        packed = np.asarray([3, 3, 3, 8, 8, 1], dtype=np.uint64)
        profile = LanguageProfile.from_packed("xx", packed, t=10)
        assert profile.ngrams.tolist() == [3, 8, 1]
        assert profile.counts.tolist() == [3, 2, 1]

    def test_from_packed_truncates_to_t(self):
        packed = np.arange(100, dtype=np.uint64)
        profile = LanguageProfile.from_packed("xx", packed, t=10)
        assert len(profile) == 10

    def test_from_documents(self):
        texts = ["the cat sat on the mat", "the dog sat on the log"]
        profile = LanguageProfile.from_documents("en", texts, t=50)
        assert len(profile) > 0
        assert profile.language == "en"
        the_ngram = int(ngrams_from_text("the ")[0])
        assert the_ngram in profile

    def test_from_documents_with_custom_extractor(self):
        profile = LanguageProfile.from_documents("en", ["trigram profile text"], n=3, t=20)
        assert profile.n == 3
        assert int(ngrams_from_text("tri", n=3)[0]) in profile

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LanguageProfile("xx", np.asarray([1, 2], dtype=np.uint64), np.asarray([1], dtype=np.int64))

    def test_duplicate_ngrams_rejected(self):
        # adjacent and non-adjacent repeats, in frequency (not value) order
        for ngrams in ([7, 7], [7, 3, 7], [1, 9, 4, 2, 9]):
            with pytest.raises(ValueError, match="distinct"):
                LanguageProfile(
                    "xx",
                    np.asarray(ngrams, dtype=np.uint64),
                    np.arange(len(ngrams), 0, -1, dtype=np.int64),
                )


class TestQueries:
    @pytest.fixture()
    def profile(self):
        packed = np.asarray([10, 10, 10, 20, 20, 30], dtype=np.uint64)
        return LanguageProfile.from_packed("xx", packed, t=10)

    def test_len(self, profile):
        assert len(profile) == 3

    def test_contains(self, profile):
        assert 10 in profile
        assert 99 not in profile

    def test_contains_many(self, profile):
        probes = np.asarray([10, 99, 30], dtype=np.uint64)
        assert profile.contains_many(probes).tolist() == [True, False, True]

    def test_contains_many_empty(self, profile):
        assert profile.contains_many(np.empty(0, dtype=np.uint64)).size == 0

    def test_rank_of(self, profile):
        assert profile.rank_of(10) == 0
        assert profile.rank_of(30) == 2

    def test_rank_of_missing_raises(self, profile):
        with pytest.raises(KeyError):
            profile.rank_of(12345)

    def test_top(self, profile):
        top = profile.top(2)
        assert len(top) == 2
        assert top.ngrams.tolist() == [10, 20]

    def test_top_requires_positive(self, profile):
        with pytest.raises(ValueError):
            profile.top(0)

    def test_readable_ngrams(self):
        profile = LanguageProfile.from_documents("en", ["banana banana banana"], t=5)
        rendered = profile.readable_ngrams(3)
        assert len(rendered) == 3
        assert all(isinstance(item, str) and len(item) == 4 for item in rendered)


class TestSerialisation:
    def test_roundtrip(self):
        packed = ngrams_from_text("profile serialisation roundtrip text")
        profile = LanguageProfile.from_packed("en", packed, t=25)
        restored = LanguageProfile.from_dict(profile.to_dict())
        assert restored.language == profile.language
        assert restored.n == profile.n and restored.t == profile.t
        assert np.array_equal(restored.ngrams, profile.ngrams)
        assert np.array_equal(restored.counts, profile.counts)


class TestBuildProfiles:
    def test_builds_one_per_language(self):
        texts = {"en": ["hello world hello"], "fr": ["bonjour le monde bonjour"]}
        profiles = build_profiles(texts, t=100)
        assert set(profiles) == {"en", "fr"}
        assert all(p.language == lang for lang, p in profiles.items())

    def test_profiles_differ_between_languages(self):
        texts = {"en": ["the quick brown fox " * 10], "fi": ["nopea ruskea kettu hyppii " * 10]}
        profiles = build_profiles(texts, t=200)
        en_set = set(profiles["en"].ngrams.tolist())
        fi_set = set(profiles["fi"].ngrams.tolist())
        assert en_set != fi_set

    def test_respects_t(self):
        texts = {"en": ["many different words create many different ngrams here " * 5]}
        profiles = build_profiles(texts, t=7)
        assert len(profiles["en"]) == 7

    def test_session_fixture_profiles(self, profiles):
        # profiles fixture built from the synthetic corpus: each language non-empty
        assert len(profiles) == 6
        assert all(len(p) > 100 for p in profiles.values())
