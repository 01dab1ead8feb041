"""Property-based tests (hypothesis) for the core data structures and invariants."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.alphabet import ALPHABET_SIZE, SPACE_CODE, encode_bytes, encode_text
from repro.core.bloom import ParallelBloomFilter
from repro.core.fpr import false_positive_rate
from repro.core.ngram import (
    NGramExtractor,
    gather_ranges,
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
       st.integers(min_value=1, max_value=8),
       st.sampled_from([np.uint8, np.int64]))
def test_pack_unpack_roundtrip(codes, n, dtype):
    codes = np.asarray(codes, dtype=dtype)
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


# empty and shorter-than-n documents, Latin-1, any Unicode (lone surrogates
# included), and raw bytes in both buffer types
documents = st.lists(
    st.one_of(
        st.just(""),
        st.text(max_size=3),
        latin1_text,
        st.text(st.characters(exclude_categories=()), max_size=60),
        st.binary(max_size=120),
        st.binary(max_size=120).map(bytearray),
    ),
    max_size=10,
)


@given(documents, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4))
@example([], 4, 1)
@example(["", b"", bytearray()], 1, 1)
@example(["abc", "x\ud800yz", "\udfff" * 5, b"\xe9t\xe9", bytearray(b"abcd")], 3, 2)
@example(["abc", "defg", "hij", "klmn"], 4, 1)  # adjacent n - 1 and n bytes
@example(["ab", b"c", "", "def", bytearray(b"gh")], 4, 1)  # all shorter than n
@example(["", "", b"", "abcdef", "ghij"], 3, 1)  # leading empty documents
@example(["ab", "", "cde", b"f"], 1, 3)  # n = 1
@example(["abcdef", "gh", "ijklmnop"], 2, 4)  # a stride longer than a document
@example(["abcdefgh", "", "ab", "ijklmnopq", "\u4e2d\u6587 text", b"xyz"], 12, 1)
@example(["abcdefgh", "", "ab", "ijklmnopq", "\u4e2d\u6587 text", b"xyz"], 5, 3)
@example(["abcdef", "ghi"], 4, 1)  # the last range ends at the end of the stream
@example(["abcdef", "gh"], 4, 1)  # an empty range starts past the stream's last window
@settings(max_examples=80, deadline=None)
def test_extract_batch_concatenates_per_document_extracts(texts, n, stride):
    """Each document's range of the batch stream holds exactly its ``extract`` keys.

    The ranges are in order, do not overlap and lie inside the stream, so
    gathered one after the other they are the concatenated extracts.  At
    stride 1 the stream is every window of the joined bytes, so the windows
    that cross a boundary sit in the gaps; with a stride the ranges tile the
    gathered keys.
    """
    extractor = NGramExtractor(n=n, subsample_stride=stride)
    packed, starts, lengths = extractor.extract_batch(texts)
    parts = [extractor.extract(text) for text in texts]
    assert packed.dtype == np.uint64
    assert starts.dtype == np.int64 and lengths.dtype == np.int64
    assert lengths.tolist() == [part.size for part in parts]
    for start, length, part in zip(starts.tolist(), lengths.tolist(), parts):
        assert np.array_equal(packed[start : start + length], part)
    ends = starts + lengths
    assert (starts[1:] >= ends[:-1]).all() and (ends[lengths > 0] <= packed.size).all()
    expected = np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)
    assert np.array_equal(gather_ranges(packed, starts, lengths, 1), expected)
    if stride == 1:
        joined = b"".join(
            text.encode("latin-1", "replace") if isinstance(text, str) else bytes(text)
            for text in texts
        )
        assert np.array_equal(packed, NGramExtractor(n=n).extract(joined))
    else:
        assert starts.tolist() == (np.cumsum(lengths) - lengths).tolist()
        assert packed.size == lengths.sum()


@given(documents, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=4))
@example(["", "ab", "x\ud800yz" * 9, "\udfff" * 13, b"\xe9t\xe9" * 9, bytearray(b"a" * 13)], 12, 1)
@example(["abcdefghijklmnopqrstuvwxyz", b"", "abcdef"], 7, 3)  # n neither 2^k nor 2^k + 1
@example(["abcdefghijklmnopqrstuvwxyz"], 5, 1)
@settings(max_examples=80, deadline=None)
def test_extract_keys_by_doubling_equal_horner_pack_ngrams(texts, n, stride):
    """:meth:`NGramExtractor.extract`'s doubled keys are :func:`pack_ngrams`' keys."""
    extractor = NGramExtractor(n=n, subsample_stride=stride)
    for text in texts:
        codes = encode_text(text) if isinstance(text, str) else encode_bytes(text)
        keys = extractor.extract(text)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, pack_ngrams(codes, n=n)[::stride])


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
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=6)),
        max_size=12,
    ),
    st.integers(min_value=0, max_value=4),
    st.sampled_from([np.bool_, np.int64]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([None, 1, 2, 3]),
)
@example([(0, 0), (0, 3), (0, 2)], 0, np.bool_, 1, None)  # empty first range
@example([(0, 3), (0, 0), (0, 2)], 0, np.int64, 2, 3)  # empty middle range
@example([(0, 3), (0, 2), (0, 0)], 2, np.bool_, 3, 2)  # empty last range, then values past it
@example([(0, 0), (1, 0), (2, 0)], 3, np.int64, 4, 2)  # every range empty
@example([], 2, np.int64, 5, None)  # no ranges
@example([], 0, np.bool_, 6, 3)  # no ranges, no values
@example([(2, 3), (3, 1), (1, 4)], 0, np.int64, 7, 2)  # gaps; the last range ends at the end
@example([(0, 3), (0, 0)], 0, np.int64, 8, None)  # an empty range starts at the end
@example([(1, 2), (3, 0), (0, 5)], 2, np.bool_, 9, 1)  # gaps around an empty range
@settings(max_examples=60)
def test_segment_sums_matches_a_python_loop(ranges, extra, dtype, seed, rows):
    """Each range is a gap then a length; values in the gaps and past the last range are skipped.

    ``rows`` None is a 1-D stream; otherwise a ``(rows, N)`` matrix reduced row by row.
    """
    starts, position = [], 0
    for gap, length in ranges:
        starts.append(position + gap)
        position += gap + length
    lengths = [length for _gap, length in ranges]
    shape = (position + extra,) if rows is None else (rows, position + extra)
    values = np.random.default_rng(seed).integers(-1000, 1000, size=shape)
    values = values > 0 if dtype is np.bool_ else values
    sums = segment_sums(
        values, np.asarray(starts, dtype=np.int64), np.asarray(lengths, dtype=np.int64)
    )
    assert sums.dtype == np.int64
    assert sums.shape == shape[:-1] + (len(lengths),)
    for row, row_sums in zip(np.atleast_2d(values), np.atleast_2d(sums)):
        expected = [
            sum(int(v) for v in row[start : start + length])
            for start, length in zip(starts, lengths)
        ]
        assert row_sums.tolist() == expected


# -- language words ----------------------------------------------------------------


def _unpack_words_by_row(words: np.ndarray, languages: int) -> np.ndarray:
    """Reference unpack: row ``j`` is ``words & (1 << j) != 0``, one row at a time."""
    hits = np.empty((languages, words.size), dtype=bool)
    scratch = np.empty_like(words)
    for row in range(languages):
        np.bitwise_and(words, words.dtype.type(1 << row), out=scratch)
        np.not_equal(scratch, 0, out=hits[row])
    return hits


@st.composite
def language_words(draw):
    """``(words, languages)``: words of one unsigned type holding ``languages`` bits.

    Random words masked to the language bits, or all zero; native or
    byte-swapped (the same values stored in the other byte order).
    """
    dtype = np.dtype(draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64])))
    languages = draw(st.integers(min_value=1, max_value=dtype.itemsize * 8))
    size = draw(st.integers(min_value=0, max_value=300))
    drawn = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 2**64 - 1, size, dtype=np.uint64, endpoint=True
    )
    mask = np.uint64(0) if draw(st.booleans()) else np.uint64((1 << languages) - 1)
    words = (drawn & mask).astype(dtype)
    if draw(st.booleans()):
        words = words.astype(dtype.newbyteorder())
    return words, languages


@given(language_words())
@example((np.zeros(0, dtype=np.uint64), 64))  # no words
@example((np.full(3, 2**64 - 1, dtype=np.uint64), 64))  # every bit of the widest word
@example((np.arange(256, dtype=np.uint8), 8))
@example(((np.arange(256, dtype=np.uint16) << np.uint16(8)).astype(">u2"), 16))  # big-endian
@example(  # more words than one block
    (np.random.default_rng(0).integers(0, 1 << 10, 70_000, dtype=np.uint16), 10)
)
@settings(max_examples=150, deadline=None)
def test_unpack_words_matches_the_row_at_a_time_reference(case):
    from repro.api.backends import _MembershipBackend

    words, languages = case
    rows = _MembershipBackend._unpack_words(words, languages)
    assert rows.shape == (languages, words.size)
    assert rows.dtype == np.bool_
    assert rows.flags.c_contiguous
    np.testing.assert_array_equal(rows, _unpack_words_by_row(words, languages))


# -- counter lanes -----------------------------------------------------------------


@given(
    st.sampled_from([1, 9, 10, 11, 17, 64]) | st.integers(min_value=1, max_value=64),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=140)),
        max_size=8,
    ),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.booleans(),
)
@example(10, [(3, 70_000), (3, 0), (3, 65_535), (3, 65_536), (3, 3)], 0, False, True)  # pieces
@example(  # blocks of pieces
    10,
    [(0, 70_000), (3, 0), (3, 65_535), (3, 65_536), (3, 3), (3, 131_071), (3, 2)],
    5,
    True,
    False,
)
@example(64, [(0, 0), (3, 131_071), (3, 1)], 1, True, True)
@example(17, [(0, 0), (3, 0)], 2, False, True)  # zero-length documents only
@example(1, [], 3, True, False)  # no documents
@example(16, [(0, 5), (0, 0), (0, 7)], 4, False, False)  # ranges back to back
@example(9, [(0, 62), (3, 63), (3, 64), (3, 0), (11, 126), (1, 127)], 6, False, True)
@example(11, [(2, 64), (0, 63), (3, 62), (3, 65_536)], 7, False, True)  # two lanes
@example(1, [(0, 63), (3, 64), (3, 0)], 8, False, True)  # uint8 words
@settings(max_examples=60, deadline=None)
def test_lane_counts_equal_segment_sums_over_unpacked_rows(languages, ranges, seed, wide, full):
    """Ten 6-bit counters to a lane count what the per-language rows count, per document.

    Each range is a gap then a document's length.  Words hold only their low
    ``languages`` bits, in the narrowest word type (bloom's and exact's
    tables: ``uint8`` to ``uint64``) or ``uint64`` (hail's).  Every bit is
    set in the gaps and past the last range, so a counted boundary window
    shows; ``full`` sets every bit inside the ranges too, so a piece of 64
    or more n-grams overflows its counters.  Batches of more than 131,072
    n-grams are counted in blocks.
    """
    from repro.api.backends import _lane_counts

    starts, position = [], 0
    for gap, length in ranges:
        starts.append(position + gap)
        position += gap + length
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray([length for _gap, length in ranges], dtype=np.int64)
    dtype = np.uint64 if wide else np.min_scalar_type((1 << languages) - 1)
    top = np.uint64((1 << languages) - 1)
    drawn = np.random.default_rng(seed).integers(
        0, 2**64 - 1, position + 2, dtype=np.uint64, endpoint=True
    )
    words = np.full(position + 2, top, dtype=dtype)
    if not full:
        for start, length in zip(starts.tolist(), lengths.tolist()):
            words[start : start + length] = (drawn[start : start + length] & top).astype(dtype)
    counts = _lane_counts(words, starts, lengths, languages)
    rows = _unpack_words_by_row(words, languages)
    expected = [
        rows[:, start : start + length].sum(axis=1).tolist()
        for start, length in zip(starts.tolist(), lengths.tolist())
    ]
    assert counts.shape == (lengths.size, languages)
    assert counts.tolist() == expected


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


# -- the sorted key table behind exact and mguesser -----------------------------------

#: a key no 12-gram packs to, and the table's pad key
MAX_UINT64 = (1 << 64) - 1


@st.composite
def keyed_profiles(draw):
    """``(n, [(keys, counts), ...] one pair per language, probe keys)``.

    Languages draw keys from a small shared pool (so profiles overlap) or from
    the whole ``5 * n``-bit key space (so they are mostly disjoint), and may
    draw none (an empty profile).  Probes mix profile keys, other keys of the
    key space and the largest ``uint64``, and may be empty.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    key = st.integers(min_value=0, max_value=(1 << (5 * n)) - 1)
    pool = draw(st.lists(key, min_size=1, max_size=8, unique=True))
    languages = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        keys = draw(st.lists(st.sampled_from(pool) | key, max_size=30, unique=True))
        counts = draw(st.lists(st.integers(min_value=0, max_value=10**9),
                               min_size=len(keys), max_size=len(keys)))
        languages.append((keys, counts))
    members = [k for keys, _ in languages for k in keys]
    probe = key | st.just(MAX_UINT64) | (st.sampled_from(members) if members else key)
    return n, languages, draw(st.lists(probe, max_size=60))


@given(keyed_profiles())
@example((1, [([], [])], []))  # one empty profile, empty batch
@example((12, [([], []), ([], [])], [0, MAX_UINT64]))  # every profile empty
@example((4, [([5, 9], [3, 1]), ([9, 7], [2, 2]), ([], []), ([4], [0])],
          [9, 5, 7, 8, 0, 4, MAX_UINT64]))  # overlapping, disjoint, empty, zero counts
@settings(max_examples=150, deadline=None)
def test_sorted_key_table_matches_per_language_lookups(case):
    from repro.api import LanguageIdentifier
    from repro.api.backends import MGUESSER_SCORE_SCALE

    n, languages, probes = case
    profiles = {
        f"l{index}": LanguageProfile(
            f"l{index}", np.asarray(keys, dtype=np.uint64), np.asarray(counts, dtype=np.int64), n=n
        )
        for index, (keys, counts) in enumerate(languages)
    }
    packed = np.asarray(probes, dtype=np.uint64)

    exact = LanguageIdentifier(n=n, backend="exact").train_profiles(profiles)
    hits = exact.backend.ngram_hits(packed)
    assert hits.shape == (len(languages), packed.size) and hits.dtype == bool
    for row, profile in enumerate(profiles.values()):
        np.testing.assert_array_equal(hits[row], np.isin(packed, profile.ngrams))

    mguesser = LanguageIdentifier(n=n, backend="mguesser").train_profiles(profiles)
    scores = mguesser.backend.ngram_hits(packed)
    assert scores.shape == (len(languages), packed.size) and scores.dtype == np.int32
    for row, (keys, counts) in enumerate(languages):
        total = sum(counts) or 1
        weights = {k: round(c / total * MGUESSER_SCORE_SCALE) for k, c in zip(keys, counts)}
        assert scores[row].tolist() == [weights.get(k, 0) for k in probes]


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
    n-gram) scores derived arithmetically — so the edge-sum window counts
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
    """int32-range per-n-gram scores over a long document: the edge sums
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
    # the edge sums run to the whole document's totals
    np.testing.assert_array_equal(scores.cumulative[:, -1], hits.sum(axis=1, dtype=np.int64))


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


# -- segmentation: Viterbi decode and run merge ---------------------------------------


def _numpy_viterbi(counts, switch_penalty: float) -> np.ndarray:
    """Reference decode: one vectorized step over the language axis per window."""
    from repro.segment.smoothing import window_emissions

    emissions = window_emissions(counts)
    n_windows, n_languages = emissions.shape
    if n_windows == 0:
        return np.empty(0, dtype=np.int64)
    backpointers = np.empty((n_windows, n_languages), dtype=np.int64)
    backpointers[0] = np.arange(n_languages)
    score = emissions[0].copy()
    stay = np.arange(n_languages)
    for w in range(1, n_windows):
        best_prev = int(np.argmax(score))
        switched = score[best_prev] - switch_penalty
        take_switch = switched > score
        backpointers[w] = np.where(take_switch, best_prev, stay)
        score = np.where(take_switch, switched, score) + emissions[w]
    labels = np.empty(n_windows, dtype=np.int64)
    labels[-1] = int(np.argmax(score))
    for w in range(n_windows - 1, 0, -1):
        labels[w - 1] = backpointers[w, labels[w]]
    return labels


@st.composite
def window_count_matrices(draw):
    """(windows, languages) count matrices: tie-heavy small integers, huge
    integers and floats."""
    from hypothesis.extra.numpy import arrays

    shape = (draw(st.integers(0, 60)), draw(st.integers(1, 12)))
    dtype, elements = draw(st.sampled_from([
        (np.int64, st.integers(0, 3)),
        (np.int64, st.integers(0, 10**9)),
        (np.float64, st.floats(0, 1e6, allow_nan=False, allow_infinity=False)),
    ]))
    return draw(arrays(dtype, shape, elements=elements))


def _switching_counts(windows: int, seed: int) -> np.ndarray:
    """(windows, 10) tie-heavy counts whose leading language changes every 40 windows."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 4, (windows, 10))
    leaders = np.repeat(rng.integers(0, 10, windows // 40 + 1), 40)[:windows]
    counts[np.arange(windows), leaders] += 3
    return counts


@given(window_count_matrices(), st.sampled_from([0.0, 0.35, 2.5, float("inf")]))
@example(np.zeros((0, 3), dtype=np.int64), 0.35)  # no windows
@example(np.asarray([[3, 1, 3]]), 0.35)  # one window, tied
@example(np.asarray([[2], [0], [5]]), 0.35)  # one language
@example(np.zeros((6, 4), dtype=np.int64), 0.35)  # no evidence anywhere
# one full block of windows, one window past it, and two blocks and a part
@example(_switching_counts(4_096, seed=1), 0.35)
@example(_switching_counts(4_097, seed=2), 0.0)
@example(_switching_counts(9_000, seed=3), 0.35)
@settings(max_examples=200, deadline=None)
def test_viterbi_labels_match_the_numpy_reference(counts, switch_penalty):
    from repro.segment.smoothing import viterbi_labels

    labels = viterbi_labels(counts, switch_penalty=switch_penalty)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, _numpy_viterbi(counts, switch_penalty))


def _per_run_spans(labels, scores, hits, text_length: int, stride: int):
    """Reference merge: one sum of the hit rows and one ``np.delete`` per run."""
    from repro.core.classifier import normalized_separation
    from repro.segment.types import Span

    boundaries = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    run_starts = np.concatenate(([0], boundaries))
    run_ends = np.concatenate((boundaries, [labels.size]))
    spans = []
    char_start = 0
    for index, (first, last) in enumerate(zip(run_starts, run_ends)):
        owned_start = int(scores.starts[first])
        owned_end = scores.n_ngrams if last == labels.size else int(scores.starts[last])
        counts = hits[:, owned_start:owned_end].sum(axis=1, dtype=np.int64)
        label = int(np.argmax(counts)) if run_starts.size == 1 else int(labels[first])
        char_end = (
            text_length if index == run_starts.size - 1 else int(scores.starts[last]) * stride
        )
        others = np.delete(counts, label)
        rival = int(others.max()) if others.size else 0
        confidence = normalized_separation(int(counts[label]), rival)
        spans.append(Span(char_start, char_end, scores.languages[label], confidence))
        char_start = char_end
    return spans


@given(
    keys=st.lists(st.integers(0, (1 << 20) - 1), min_size=1, max_size=400),
    n_languages=st.integers(1, 6),
    window=st.integers(1, 48),
    window_stride=st.integers(1, 48),
    stride=st.sampled_from([1, 2]),
    pattern=st.lists(st.integers(0, 5), min_size=1, max_size=12),
)
# one run whose label is not the argmax of its counts: with every key 0, the
# synthetic scores of l0..l2 are 0, 1, 2, so the merge relabels the run l2
@example(keys=[0] * 50, n_languages=3, window=8, window_stride=2, stride=1, pattern=[0])
@example(keys=[0] * 50, n_languages=3, window=8, window_stride=2, stride=2, pattern=[0])
@settings(max_examples=150, deadline=None)
def test_merge_runs_matches_a_per_run_loop(
    keys, n_languages, window, window_stride, stride, pattern
):
    from types import SimpleNamespace

    from repro.segment.segmenter import Segmenter, SegmenterConfig

    window_stride = min(window_stride, window)
    identifier = SimpleNamespace(
        is_trained=True,
        extractor=NGramExtractor(subsample_stride=stride),
        backend=_SyntheticHitsBackend(n_languages),
    )
    segmenter = Segmenter(
        identifier, SegmenterConfig(window_ngrams=window, stride_ngrams=window_stride)
    )
    scores = segmenter.scorer.score(np.asarray(keys, dtype=np.uint64))
    labels = np.resize(np.asarray(pattern, dtype=np.int64) % n_languages, scores.n_windows)
    text_length = len(keys) * stride + 3

    def key(spans):
        return [(s.start, s.end, s.language, repr(s.confidence)) for s in spans]

    hits = identifier.backend.ngram_hits(np.asarray(keys, dtype=np.uint64))
    assert key(segmenter._merge_runs(labels, scores, text_length)) == key(
        _per_run_spans(labels, scores, hits, text_length, stride)
    )
