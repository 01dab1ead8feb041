"""Exhaustive key-space proofs for the table backends and ``hw-sim``.

Packed 4-grams of 5-bit codes have a 2^20 key space, small enough to check a
backend's per-n-gram scores against an independent reference for *every*
key rather than for sampled documents.  Each backend's ``ngram_hits`` is the
only kernel behind its counts (``match_counts_batch`` is a reduction of it),
so these proofs cover classification over the whole packed key space.
"""

import numpy as np
import pytest

from repro.api import LanguageIdentifier
from repro.api.backends import MGUESSER_SCORE_SCALE
from repro.core.bloom import ParallelBloomFilter

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
    config = bloom.config
    for row, profile in enumerate(profiles.values()):
        # programmed on its own, sharing only the hash family with the backend
        reference = ParallelBloomFilter.from_items(
            profile.ngrams,
            m_bits=config.m_bits,
            k=config.k,
            key_bits=config.key_bits,
            hashes=bloom.backend.hashes,
        )
        np.testing.assert_array_equal(hits[row], reference.contains_many(ALL_KEYS))


def test_exact_hits_equal_profile_membership(profiles):
    exact = LanguageIdentifier(backend="exact").train_profiles(profiles)
    hits = exact.backend.ngram_hits(ALL_KEYS)
    for row, profile in enumerate(profiles.values()):
        np.testing.assert_array_equal(hits[row], profile.contains_many(ALL_KEYS))


def test_mguesser_hits_equal_rounded_profile_weights(profiles):
    mguesser = LanguageIdentifier(backend="mguesser").train_profiles(profiles)
    hits = mguesser.backend.ngram_hits(ALL_KEYS)
    assert hits.shape == (len(profiles), ALL_KEYS.size)
    for row, profile in enumerate(profiles.values()):
        total = int(profile.counts.sum())
        weights = {
            int(key): round(int(count) / total * MGUESSER_SCORE_SCALE)
            for key, count in zip(profile.ngrams, profile.counts)
        }
        reference = np.zeros(ALL_KEYS.size, dtype=np.int64)
        reference[list(weights)] = list(weights.values())
        np.testing.assert_array_equal(hits[row], reference)


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
