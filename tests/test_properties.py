"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alphabet import ALPHABET_SIZE, SPACE_CODE, encode_text
from repro.core.bloom import ParallelBloomFilter
from repro.core.fpr import false_positive_rate
from repro.core.ngram import (
    merge_ngram_counts,
    pack_ngrams,
    segment_sums,
    top_ngrams,
    unpack_ngram,
)
from repro.core.profile import LanguageProfile
from repro.hashes.h3 import H3Hash
from repro.system.commands import document_to_words, xor_checksum

# -- strategies -------------------------------------------------------------------

latin1_text = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF), max_size=400
)
keys_20bit = st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), max_size=300)


# -- alphabet ----------------------------------------------------------------------


@given(latin1_text)
def test_encoding_always_produces_valid_codes(text):
    codes = encode_text(text)
    assert codes.size == len(text)
    if codes.size:
        assert int(codes.max()) < ALPHABET_SIZE


ascii_text = st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7E), max_size=400)


@given(ascii_text)
def test_encoding_is_case_insensitive(text):
    # ASCII-only: Python-level upper()/lower() of some Latin-1 characters (ÿ, ß)
    # leaves the Latin-1 range entirely, which is a str-level artefact rather than a
    # property of the byte-level translation table (covered by unit tests instead).
    assert np.array_equal(encode_text(text.lower()), encode_text(text.upper()))


@given(latin1_text)
def test_encoding_idempotent_after_decode_normalisation(text):
    from repro.core.alphabet import decode_codes

    codes = encode_text(text)
    normalised = decode_codes(codes)
    assert np.array_equal(encode_text(normalised), codes)


# -- n-gram packing ----------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=31), min_size=0, max_size=200),
       st.integers(min_value=1, max_value=8))
def test_pack_unpack_roundtrip(codes, n):
    codes = np.asarray(codes, dtype=np.uint8)
    packed = pack_ngrams(codes, n=n)
    expected_count = max(0, codes.size - n + 1)
    assert packed.size == expected_count
    for offset, value in enumerate(packed.tolist()):
        assert unpack_ngram(value, n=n) == tuple(codes[offset : offset + n].tolist())


@given(latin1_text)
def test_ngram_count_is_length_minus_three(text):
    codes = encode_text(text)
    packed = pack_ngrams(codes, n=4)
    assert packed.size == max(0, len(text) - 3)


@given(st.lists(st.integers(min_value=0, max_value=100), max_size=300),
       st.integers(min_value=1, max_value=50))
def test_top_ngrams_counts_sorted_and_bounded(values, t):
    packed = np.asarray(values, dtype=np.uint64)
    top_values, counts = top_ngrams(packed, t) if packed.size or t else (packed, packed)
    if packed.size == 0:
        return
    assert top_values.size <= t
    assert np.unique(top_values).size == top_values.size
    assert all(counts[i] >= counts[i + 1] for i in range(counts.size - 1))
    assert counts.sum() <= packed.size


count_tables = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=(1 << 53) + (1 << 20)),
    ),
    max_size=40,
)


@given(count_tables, count_tables)
@settings(max_examples=60)
def test_merge_ngram_counts_exact_at_huge_counts(table_a, table_b):
    """Merging stays exact int64 arithmetic even for counts at and beyond
    2**53, where a float64 detour would silently drop low-order bits."""

    def as_arrays(table):
        totals: dict[int, int] = {}
        for value, count in table:
            totals[value] = totals.get(value, 0) + count
        values = np.asarray(sorted(totals), dtype=np.uint64)
        counts = np.asarray([totals[int(v)] for v in values], dtype=np.int64)
        return values, counts, totals

    values_a, counts_a, totals_a = as_arrays(table_a)
    values_b, counts_b, totals_b = as_arrays(table_b)
    merged, counts = merge_ngram_counts(values_a, counts_a, values_b, counts_b)
    expected = {
        value: totals_a.get(value, 0) + totals_b.get(value, 0)
        for value in set(totals_a) | set(totals_b)
    }
    assert counts.dtype == np.int64
    assert dict(zip(merged.tolist(), counts.tolist())) == expected


# -- H3 hashing --------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=2**32), keys_20bit)
@settings(max_examples=30)
def test_h3_linearity_property(seed, keys):
    h = H3Hash(key_bits=20, out_bits=12, seed=seed % (2**31))
    keys = np.asarray(keys, dtype=np.uint64)
    if keys.size < 2:
        return
    xor_pairs = keys[:-1] ^ keys[1:]
    assert np.array_equal(
        h.hash_array(xor_pairs), h.hash_array(keys[:-1]) ^ h.hash_array(keys[1:])
    )


@given(keys_20bit)
@settings(max_examples=30)
def test_h3_output_always_in_range(keys):
    h = H3Hash(key_bits=20, out_bits=14, seed=5)
    keys = np.asarray(keys, dtype=np.uint64)
    values = h.hash_array(keys)
    if values.size:
        assert int(values.max()) < (1 << 14)


# -- segment sums ------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=12),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([np.bool_, np.int64]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([0, 3, 2], 0, np.bool_, 1)  # empty first segment
@example([3, 0, 2], 0, np.int64, 2)  # empty middle segment
@example([3, 2, 0], 2, np.bool_, 3)  # empty last segment, then values past it
@example([0, 0, 0], 3, np.int64, 4)  # every segment empty
@example([], 2, np.int64, 5)  # no segments
@settings(max_examples=60)
def test_segment_sums_matches_a_python_loop(lengths, extra, dtype, seed):
    values = np.random.default_rng(seed).integers(-1000, 1000, size=sum(lengths) + extra)
    values = values > 0 if dtype is np.bool_ else values
    expected, start = [], 0
    for length in lengths:
        expected.append(sum(int(v) for v in values[start : start + length]))
        start += length
    sums = segment_sums(values, np.asarray(lengths, dtype=np.int64))
    assert sums.dtype == np.int64
    assert sums.tolist() == expected


# -- Bloom filter ------------------------------------------------------------------


@given(keys_20bit, st.integers(min_value=1, max_value=6))
@settings(max_examples=30, deadline=None)
def test_bloom_filter_never_has_false_negatives(keys, k):
    filt = ParallelBloomFilter(m_bits=2048, k=k, seed=1)
    keys = np.unique(np.asarray(keys, dtype=np.uint64))
    filt.add_many(keys)
    if keys.size:
        assert filt.contains_many(keys).all()


@given(keys_20bit, keys_20bit)
@settings(max_examples=30, deadline=None)
def test_bloom_filter_monotone_under_insertion(initial, extra):
    """Adding more items can only turn negatives into positives, never the reverse."""
    filt = ParallelBloomFilter(m_bits=2048, k=3, seed=2)
    initial = np.asarray(initial, dtype=np.uint64)
    extra = np.asarray(extra, dtype=np.uint64)
    probes = np.arange(512, dtype=np.uint64)
    filt.add_many(initial)
    before = filt.contains_many(probes)
    filt.add_many(extra)
    after = filt.contains_many(probes)
    assert not (before & ~after).any()


@given(st.integers(min_value=0, max_value=100_000),
       st.sampled_from([1024, 4096, 16384]),
       st.integers(min_value=1, max_value=8))
def test_fpr_model_is_a_probability_and_monotone_in_n(n_items, m_bits, k):
    rate = false_positive_rate(n_items, m_bits, k)
    assert 0.0 <= rate <= 1.0
    assert rate <= false_positive_rate(n_items + 1000, m_bits, k) + 1e-12


# -- profiles ----------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=400),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=40)
def test_profile_membership_matches_python_set(values, t):
    packed = np.asarray(values, dtype=np.uint64)
    profile = LanguageProfile.from_packed("xx", packed, t=t)
    member_set = set(profile.ngrams.tolist())
    probes = np.asarray(sorted(set(values))[:50], dtype=np.uint64)
    expected = np.asarray([int(v) in member_set for v in probes], dtype=bool)
    assert np.array_equal(profile.contains_many(probes), expected)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 20) - 1), min_size=1, max_size=400))
@settings(max_examples=40)
def test_profile_counts_never_exceed_stream_length(values):
    packed = np.asarray(values, dtype=np.uint64)
    profile = LanguageProfile.from_packed("xx", packed, t=50)
    assert int(profile.counts.sum()) <= packed.size
    assert (profile.counts > 0).all()


# -- command protocol --------------------------------------------------------------


@given(st.binary(max_size=500))
def test_document_word_packing_preserves_content(data):
    words = document_to_words(data)
    assert words.size == (len(data) + 7) // 8
    rebuilt = words.tobytes()[: len(data)]
    assert rebuilt == data


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=100))
def test_xor_checksum_self_inverse(words):
    arr = np.asarray(words, dtype=np.uint64)
    checksum = xor_checksum(arr)
    doubled = np.concatenate([arr, arr])
    assert xor_checksum(doubled) == 0
    assert xor_checksum(np.concatenate([arr, np.asarray([checksum], dtype=np.uint64)])) == 0


# -- windowed scorer ---------------------------------------------------------------


class _SyntheticHitsBackend:
    """Deterministic stand-in backend for :class:`repro.segment.windows.WindowedScorer`.

    ``ngram_hits`` is a pure function of the packed values — per-(language,
    n-gram) scores derived arithmetically — so the cumulative-sum window counts
    can be checked against a naive per-window recount without training anything.
    ``magnitude`` scales the scores up to the int32 range to exercise the
    dtype/overflow edge: on large documents, summing such scores in anything
    narrower than int64 would wrap.
    """

    def __init__(self, n_languages: int, magnitude: int = 3):
        self._languages = [f"l{i}" for i in range(n_languages)]
        self.magnitude = int(magnitude)

    @property
    def languages(self):
        return list(self._languages)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        packed = np.asarray(packed, dtype=np.uint64)
        lanes = np.arange(len(self._languages), dtype=np.uint64)[:, None]
        scores = (packed[None, :] * (lanes + 3) + lanes * 7) % np.uint64(self.magnitude)
        return scores.astype(np.int64)


def _naive_window_recount(hits: np.ndarray, starts, ends) -> np.ndarray:
    """O(windows * window) reference: re-sum every window's columns in int64."""
    if len(starts) == 0:
        return np.zeros((0, hits.shape[0]), dtype=np.int64)
    return np.stack(
        [hits[:, start:end].sum(axis=1, dtype=np.int64) for start, end in zip(starts, ends)]
    )


@given(
    window=st.integers(min_value=1, max_value=64),
    stride=st.integers(min_value=1, max_value=64),
    n_ngrams=st.integers(min_value=0, max_value=500),
    n_languages=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_windowed_scorer_matches_naive_recount(window, stride, n_ngrams, n_languages, seed):
    from hypothesis import assume

    from repro.segment.windows import WindowedScorer

    assume(stride <= window)
    backend = _SyntheticHitsBackend(n_languages)
    scorer = WindowedScorer(backend, window_ngrams=window, stride_ngrams=stride)
    packed = np.random.default_rng(seed).integers(0, 1 << 20, size=n_ngrams, dtype=np.uint64)
    scores = scorer.score(packed)

    hits = backend.ngram_hits(packed)
    np.testing.assert_array_equal(
        scores.counts, _naive_window_recount(hits, scores.starts, scores.ends)
    )
    # structural invariants: windows are clipped to the document, never longer
    # than the configured window, and (via the tail flush) cover every n-gram
    assert np.all(scores.ends - scores.starts <= window)
    assert np.all(scores.ends <= n_ngrams)
    if n_ngrams:
        assert scores.starts[0] == 0
        assert scores.ends[-1] == n_ngrams
        covered = np.zeros(n_ngrams, dtype=bool)
        for start, end in zip(scores.starts, scores.ends):
            covered[start:end] = True
        assert covered.all()
    else:
        assert scores.n_windows == 0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_windowed_scorer_no_overflow_on_large_documents(seed):
    """int32-range per-n-gram scores over a long document: the cumulative sums
    leave int32 territory almost immediately, so any internal narrowing would
    show up as a mismatch against the int64 naive recount."""
    from repro.segment.windows import WindowedScorer

    backend = _SyntheticHitsBackend(3, magnitude=2**31 - 1)
    scorer = WindowedScorer(backend, window_ngrams=4096, stride_ngrams=1024)
    # keys drawn from the full 62-bit range so the modulo actually spreads the
    # synthetic scores across the whole int32 range
    packed = np.random.default_rng(seed).integers(0, 1 << 62, size=20_000, dtype=np.uint64)
    scores = scorer.score(packed)

    hits = backend.ngram_hits(packed)
    assert hits.max() > 2**30  # the scores really are int32-scale
    assert scores.counts.max() > 2**32  # and the window sums really do exceed int32
    np.testing.assert_array_equal(
        scores.counts, _naive_window_recount(hits, scores.starts, scores.ends)
    )
    # range_counts is the same cumulative structure exposed directly
    np.testing.assert_array_equal(
        scores.range_counts(0, packed.size), hits.sum(axis=1, dtype=np.int64)
    )


def test_windowed_scorer_matches_naive_recount_on_real_backend(profiles):
    """Same recount identity on a trained Bloom backend (0/1 hits, real text)."""
    from repro.api import ClassifierConfig, LanguageIdentifier
    from repro.segment.windows import WindowedScorer

    config = ClassifierConfig(m_bits=8 * 1024, k=4, t=1500, seed=5, backend="bloom")
    identifier = LanguageIdentifier(config)
    identifier.train_profiles(profiles)
    rng = np.random.default_rng(77)
    for window, stride in ((160, 40), (7, 3), (33, 33)):
        scorer = WindowedScorer(identifier.backend, window_ngrams=window, stride_ngrams=stride)
        packed = rng.integers(0, 1 << 20, size=int(rng.integers(1, 900)), dtype=np.uint64)
        scores = scorer.score(packed)
        hits = identifier.backend.ngram_hits(packed)
        np.testing.assert_array_equal(
            scores.counts, _naive_window_recount(hits, scores.starts, scores.ends)
        )
