"""Unit tests for n-gram extraction, packing and counting."""

import numpy as np
import pytest

from repro.core.alphabet import AlphabetConverter, encode_text
from repro.core.ngram import (
    DEFAULT_N,
    NGramExtractor,
    count_ngrams,
    merge_ngram_counts,
    ngram_to_string,
    ngrams_from_text,
    pack_ngrams,
    subsample,
    top_ngrams,
    unpack_ngram,
)


class TestPackNgrams:
    def test_default_n_is_four(self):
        assert DEFAULT_N == 4

    def test_window_count(self):
        codes = encode_text("abcdef")
        assert pack_ngrams(codes, n=4).size == 3

    def test_short_input_yields_empty(self):
        codes = encode_text("abc")
        assert pack_ngrams(codes, n=4).size == 0

    def test_exact_length_input(self):
        codes = encode_text("abcd")
        assert pack_ngrams(codes, n=4).size == 1

    def test_packing_is_big_endian_in_text_order(self):
        codes = np.asarray([1, 2, 3, 4], dtype=np.uint8)
        packed = pack_ngrams(codes, n=4, code_bits=5)
        expected = (1 << 15) | (2 << 10) | (3 << 5) | 4
        assert int(packed[0]) == expected

    def test_sliding_window_shifts_one_character(self):
        codes = np.asarray([1, 2, 3, 4, 5], dtype=np.uint8)
        packed = pack_ngrams(codes, n=4, code_bits=5)
        assert int(packed[1]) == (2 << 15) | (3 << 10) | (4 << 5) | 5

    def test_values_fit_in_key_bits(self):
        codes = encode_text("the quick brown fox jumps over the lazy dog")
        packed = pack_ngrams(codes, n=4)
        assert int(packed.max()) < (1 << 20)

    def test_dtype_is_uint64(self):
        assert pack_ngrams(encode_text("abcdef")).dtype == np.uint64

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            pack_ngrams(encode_text("abcdef"), n=0)

    def test_rejects_too_wide_keys(self):
        with pytest.raises(ValueError):
            pack_ngrams(encode_text("abcdef"), n=13, code_bits=5)

    def test_rejects_2d_input(self):
        with pytest.raises(ValueError):
            pack_ngrams(np.zeros((2, 2), dtype=np.uint8))

    def test_bigrams(self):
        codes = np.asarray([3, 7], dtype=np.uint8)
        packed = pack_ngrams(codes, n=2, code_bits=5)
        assert int(packed[0]) == (3 << 5) | 7


class TestUnpack:
    def test_roundtrip(self):
        codes = np.asarray([5, 0, 12, 26], dtype=np.uint8)
        packed = pack_ngrams(codes, n=4, code_bits=5)
        assert unpack_ngram(int(packed[0]), n=4) == (5, 0, 12, 26)

    def test_ngram_to_string(self):
        packed = ngrams_from_text("WORD")
        assert ngram_to_string(int(packed[0])) == "WORD"

    def test_ngram_to_string_with_space(self):
        packed = ngrams_from_text("A BC")
        assert ngram_to_string(int(packed[0])) == "A BC"


class TestNgramsFromText:
    def test_matches_manual_pipeline(self):
        text = "language classification"
        manual = pack_ngrams(encode_text(text), n=4)
        assert np.array_equal(ngrams_from_text(text, n=4), manual)

    def test_case_insensitivity_through_alphabet(self):
        assert np.array_equal(ngrams_from_text("HeLLo World"), ngrams_from_text("hello world"))

    def test_custom_converter(self):
        converter = AlphabetConverter(collapse_whitespace=True)
        with_collapse = ngrams_from_text("a  b  c  d", converter=converter)
        without = ngrams_from_text("a  b  c  d")
        assert with_collapse.size < without.size

    def test_converter_code_width_is_honoured(self):
        """Regression: a converter with a non-default code width must pack at
        that width, not silently at the 5-bit default."""

        class ByteConverter(AlphabetConverter):
            def __init__(self):
                super().__init__()
                self.code_bits = 8

            def encode(self, text):
                if isinstance(text, str):
                    text = text.encode("latin-1")
                return np.frombuffer(bytes(text), dtype=np.uint8)

        converter = ByteConverter()
        text = "Byte-Width"
        packed = ngrams_from_text(text, n=3, converter=converter)
        manual = pack_ngrams(converter.encode(text), n=3, code_bits=8)
        assert np.array_equal(packed, manual)
        # 8-bit packing must preserve case, which 5-bit packing folds away
        assert not np.array_equal(
            ngrams_from_text("AB CD EF", n=3, converter=converter),
            ngrams_from_text("ab cd ef", n=3, converter=converter),
        )


class TestCounting:
    def test_count_empty(self):
        values, counts = count_ngrams(np.empty(0, dtype=np.uint64))
        assert values.size == 0 and counts.size == 0

    def test_count_totals_match_input_length(self):
        packed = ngrams_from_text("abababab")
        _values, counts = count_ngrams(packed)
        assert counts.sum() == packed.size

    def test_counts_repeated_ngrams(self):
        packed = np.asarray([7, 7, 7, 9], dtype=np.uint64)
        values, counts = count_ngrams(packed)
        assert dict(zip(values.tolist(), counts.tolist())) == {7: 3, 9: 1}

    def test_top_ngrams_orders_by_count(self):
        packed = np.asarray([1, 1, 1, 2, 2, 3], dtype=np.uint64)
        values, counts = top_ngrams(packed, 3)
        assert values.tolist() == [1, 2, 3]
        assert counts.tolist() == [3, 2, 1]

    def test_top_ngrams_truncates(self):
        packed = np.asarray([1, 1, 2, 3, 4, 5], dtype=np.uint64)
        values, _counts = top_ngrams(packed, 2)
        assert values.size == 2
        assert values[0] == 1

    def test_top_ngrams_tie_break_is_ascending_value(self):
        packed = np.asarray([9, 9, 4, 4, 7, 7], dtype=np.uint64)
        values, _counts = top_ngrams(packed, 3)
        assert values.tolist() == [4, 7, 9]

    def test_top_ngrams_requires_positive_t(self):
        with pytest.raises(ValueError):
            top_ngrams(np.asarray([1], dtype=np.uint64), 0)

    def test_top_ngrams_handles_fewer_distinct_than_t(self):
        packed = np.asarray([1, 2], dtype=np.uint64)
        values, _ = top_ngrams(packed, 100)
        assert values.size == 2

    def test_merge_stays_integer_above_float53(self):
        """Regression: merging must accumulate in int64, not promote to
        float64 — counts beyond 2**53 would silently lose low bits."""
        huge = (1 << 53) + 1  # not representable in float64
        values_a = np.asarray([5, 9], dtype=np.uint64)
        counts_a = np.asarray([huge, 3], dtype=np.int64)
        values_b = np.asarray([5, 7], dtype=np.uint64)
        counts_b = np.asarray([1, 2], dtype=np.int64)
        merged, counts = merge_ngram_counts(values_a, counts_a, values_b, counts_b)
        assert counts.dtype == np.int64
        assert dict(zip(merged.tolist(), counts.tolist())) == {5: huge + 1, 7: 2, 9: 3}


class TestSubsample:
    def test_stride_one_is_identity(self):
        packed = ngrams_from_text("subsampling test string")
        assert np.array_equal(subsample(packed, 1), packed)

    def test_stride_two_halves(self):
        packed = np.arange(10, dtype=np.uint64)
        assert subsample(packed, 2).size == 5

    def test_stride_keeps_every_other(self):
        packed = np.arange(6, dtype=np.uint64)
        assert subsample(packed, 2).tolist() == [0, 2, 4]

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            subsample(np.arange(4, dtype=np.uint64), 0)


class TestNGramExtractor:
    def test_key_bits(self):
        assert NGramExtractor(n=4).key_bits == 20

    def test_extract_equals_function(self):
        extractor = NGramExtractor(n=4)
        text = "extraction check"
        assert np.array_equal(extractor.extract(text), ngrams_from_text(text, n=4))

    def test_extract_accepts_bytes(self):
        extractor = NGramExtractor()
        assert np.array_equal(extractor.extract(b"hello there"), extractor.extract("hello there"))

    def test_extract_many_respects_document_boundaries(self):
        extractor = NGramExtractor(n=4)
        combined = extractor.extract_many(["abcd", "efgh"])
        # each 4-character document yields exactly one 4-gram; no n-gram spans both
        assert combined.size == 2

    def test_extract_many_empty(self):
        assert NGramExtractor().extract_many([]).size == 0

    def test_subsample_stride(self):
        full = NGramExtractor(n=4).extract("some reasonably long text here")
        half = NGramExtractor(n=4, subsample_stride=2).extract("some reasonably long text here")
        assert half.size == (full.size + 1) // 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NGramExtractor(n=0)
        with pytest.raises(ValueError):
            NGramExtractor(subsample_stride=0)
        with pytest.raises(ValueError):
            NGramExtractor(n=13)  # 13 five-bit codes do not pack into 64 bits
