"""Exhaustive key-space proofs for the membership backends.

Packed 4-grams of 5-bit codes have a 2^20 key space, small enough to check a
backend's per-n-gram membership against an independent reference for *every*
key rather than for sampled documents.  Each backend's ``ngram_hits`` is the
only kernel behind its counts (``match_counts_batch`` is a reduction of it),
so these proofs cover classification over the whole packed key space.
"""

import numpy as np
import pytest

from repro.api import LanguageIdentifier

#: every packed 4-gram key
ALL_KEYS = np.arange(1 << 20, dtype=np.uint64)

SEED = 5


@pytest.fixture(scope="module")
def bloom_hits(profiles):
    bloom = LanguageIdentifier(m_bits=8 * 1024, k=3, seed=SEED).train_profiles(profiles)
    return bloom, bloom.backend.ngram_hits(ALL_KEYS)


def test_bloom_hits_equal_each_languages_filter(bloom_hits, profiles):
    bloom, hits = bloom_hits
    assert hits.shape == (len(profiles), ALL_KEYS.size)
    for row, language in enumerate(profiles):
        reference = bloom.backend.filters[language].contains_many(ALL_KEYS)
        np.testing.assert_array_equal(hits[row], reference)


def test_exact_hits_equal_profile_membership(profiles):
    exact = LanguageIdentifier(backend="exact").train_profiles(profiles)
    hits = exact.backend.ngram_hits(ALL_KEYS)
    for row, profile in enumerate(profiles.values()):
        np.testing.assert_array_equal(hits[row], profile.contains_many(ALL_KEYS))


def test_hail_hits_equal_bucket_membership(profiles):
    hail = LanguageIdentifier(seed=SEED, backend="hail").train_profiles(profiles)
    hits = hail.backend.ngram_hits(ALL_KEYS)
    index_hash = hail.backend.table.index_hash.hash_array
    buckets = index_hash(ALL_KEYS)
    for row, profile in enumerate(profiles.values()):
        reference = np.isin(buckets, index_hash(profile.ngrams))
        np.testing.assert_array_equal(hits[row], reference)


def test_hw_sim_hits_equal_bloom_at_the_same_seed(bloom_hits, profiles):
    _bloom, hits = bloom_hits
    hw = LanguageIdentifier(m_bits=8 * 1024, k=3, seed=SEED, backend="hw-sim")
    np.testing.assert_array_equal(hw.train_profiles(profiles).backend.ngram_hits(ALL_KEYS), hits)
