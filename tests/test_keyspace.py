"""Exhaustive key-space proofs for the table backends and ``hw-sim``.

Packed 4-grams of 5-bit codes have a 2^20 key space, small enough to check a
backend's per-n-gram scores against an independent reference for *every*
key rather than for sampled documents.  Each backend's ``ngram_hits`` is the
only kernel behind its counts (``match_counts_batch`` is a reduction of it),
so these proofs cover classification over the whole packed key space.
Bloom answers such keys from its key table; its hash-and-probe path
(``BloomBackend.probe``) is proven equal to the table over every key too.
"""

import numpy as np
import pytest

from repro.api import LanguageIdentifier
from repro.api.backends import MGUESSER_SCORE_SCALE
from repro.api.persistence import flat_model_bytes, model_fingerprint
from repro.core.bloom import ParallelBloomFilter
from repro.core.profile import LanguageProfile, build_profiles

#: every packed 4-gram key
ALL_KEYS = np.arange(1 << 20, dtype=np.uint64)

SEED = 5


@pytest.fixture(scope="module")
def bloom_hits(profiles):
    bloom = LanguageIdentifier(m_bits=8 * 1024, k=3, seed=SEED).train_profiles(profiles)
    return bloom, bloom.backend.ngram_hits(ALL_KEYS)


def _independent_filter_hits(bloom, profile, keys):
    """``keys``' hits in a filter programmed on its own, sharing only the hash family."""
    config = bloom.config
    reference = ParallelBloomFilter.from_items(
        profile.ngrams,
        m_bits=config.m_bits,
        k=config.k,
        key_bits=config.key_bits,
        hashes=bloom.backend.hashes,
    )
    return reference.contains_many(keys)


def test_bloom_hits_equal_each_languages_filter(bloom_hits, profiles):
    bloom, hits = bloom_hits
    assert bloom.backend._key_table is not None
    assert hits.shape == (len(profiles), ALL_KEYS.size)
    for row, profile in enumerate(profiles.values()):
        np.testing.assert_array_equal(
            hits[row], _independent_filter_hits(bloom, profile, ALL_KEYS)
        )


def _relabelled(profiles, copies):
    """``copies`` relabelled copies of each profile, copy ``c`` without its first ``c`` n-grams."""
    return {
        f"{language}{copy}": LanguageProfile(
            f"{language}{copy}", profile.ngrams[copy:], profile.counts[copy:], n=profile.n
        )
        for copy in range(copies)
        for language, profile in profiles.items()
    }


@pytest.mark.parametrize(
    "hash_family, copies, word",
    [("h3", 1, np.uint8), ("multiply-shift", 1, np.uint8), ("h3", 3, np.uint32)],
)
def test_bloom_key_table_equals_probe(profiles, hash_family, copies, word):
    bloom = LanguageIdentifier(
        m_bits=8 * 1024, k=3, seed=SEED, hash_family=hash_family
    ).train_profiles(_relabelled(profiles, copies))
    hits = bloom.backend.ngram_hits(ALL_KEYS)
    assert bloom.backend._key_table.dtype == word
    np.testing.assert_array_equal(hits, bloom.backend.probe(ALL_KEYS))


@pytest.mark.parametrize("key", [1 << 20, (1 << 64) - 1])
def test_key_table_rejects_wider_keys(bloom_hits, key):
    # a uint64 key from 2^63 up would wrap to a negative table index
    bloom, _hits = bloom_hits
    with pytest.raises(ValueError, match="does not fit"):
        bloom.backend.ngram_hits(np.asarray([3, key], dtype=np.uint64))


def test_wide_keys_build_no_table_and_probe(train_corpus):
    profiles = build_profiles(train_corpus.texts_by_language(), n=5, t=1500)
    bloom = LanguageIdentifier(n=5, m_bits=8 * 1024, k=3, seed=SEED).train_profiles(profiles)
    rng = np.random.default_rng(SEED)
    keys = np.concatenate(
        [rng.integers(0, 1 << 25, 20_000, dtype=np.uint64)]
        + [profile.ngrams[:200] for profile in profiles.values()]
    )
    hits = bloom.backend.ngram_hits(keys)
    assert bloom.backend._key_table is None
    for row, profile in enumerate(profiles.values()):
        np.testing.assert_array_equal(hits[row], _independent_filter_hits(bloom, profile, keys))


def test_key_table_stays_out_of_the_artifact(profiles, test_corpus):
    fresh = LanguageIdentifier(m_bits=8 * 1024, k=3, seed=SEED).train_profiles(profiles)
    state = {key: array.copy() for key, array in fresh.backend.export_state().items()}
    blob, fingerprint = flat_model_bytes(fresh), model_fingerprint(fresh)
    fresh.classify_batch([doc.text for doc in test_corpus.documents[:8]])
    assert fresh.backend._key_table is not None
    assert fresh.backend.export_state().keys() == state.keys()
    for key, array in fresh.backend.export_state().items():
        np.testing.assert_array_equal(array, state[key])
    assert flat_model_bytes(fresh) == blob
    assert model_fingerprint(fresh) == fingerprint


def test_mapped_model_builds_its_table_on_first_use(bloom_hits, tmp_path):
    bloom, hits = bloom_hits
    loaded = LanguageIdentifier.load(bloom.save(tmp_path / "model.bin"))
    assert not loaded.backend.bits.flags.writeable
    assert loaded.backend._key_table is None
    np.testing.assert_array_equal(loaded.backend.ngram_hits(ALL_KEYS), hits)
    assert loaded.backend._key_table is not None


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


def test_mguesser_counts_its_int32_weights_in_int64(profiles):
    mguesser = LanguageIdentifier(backend="mguesser").train_profiles(profiles)
    hits = mguesser.backend.ngram_hits(ALL_KEYS)
    assert mguesser.backend._values.dtype == np.int32 and hits.dtype == np.int32
    # the whole key space as documents of every size, an empty one included
    lengths = np.random.default_rng(SEED).integers(0, 4000, size=400)
    lengths[::50] = 0
    lengths[-1] = ALL_KEYS.size - lengths[:-1].sum()
    starts = np.cumsum(lengths) - lengths
    reference = np.stack(
        [hits[:, start : start + length].astype(np.int64).sum(axis=1)
         for start, length in zip(starts, lengths)]
    )
    counts = mguesser.backend.match_counts_batch(ALL_KEYS, starts, lengths)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, reference)
    # one n-gram of weight MGUESSER_SCORE_SCALE, 5000 times: past int32's range
    key = np.asarray([7], dtype=np.uint64)
    alone = LanguageIdentifier(backend="mguesser").train_profiles(
        {"xx": LanguageProfile("xx", key, np.asarray([3], dtype=np.int64), n=4)}
    )
    packed = np.repeat(key, 5000)
    assert alone.backend.match_counts_batch(packed, [0], [packed.size]).tolist() == [
        [5000 * MGUESSER_SCORE_SCALE]
    ]


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
