"""Unit tests for the 8-bit → 5-bit alphabet conversion."""

import numpy as np
import pytest

from repro.core import alphabet
from repro.core.alphabet import (
    ALPHABET_SIZE,
    CODE_BITS,
    NUM_CODES,
    SPACE_CODE,
    TRANSLATION_TABLE,
    decode_codes,
    encode_bytes,
    encode_text,
    fold_byte,
    letter_code,
)


class TestCodeSpace:
    def test_code_bits_is_five(self):
        assert CODE_BITS == 5

    def test_alphabet_size_is_32(self):
        assert ALPHABET_SIZE == 32

    def test_num_codes_covers_space_and_letters(self):
        assert NUM_CODES == 27

    def test_space_code_is_zero(self):
        assert SPACE_CODE == 0

    def test_all_codes_fit_in_five_bits(self):
        assert int(TRANSLATION_TABLE.max()) < ALPHABET_SIZE

    def test_table_has_256_entries(self):
        assert TRANSLATION_TABLE.shape == (256,)

    def test_table_is_read_only(self):
        with pytest.raises(ValueError):
            TRANSLATION_TABLE[0] = 1


class TestLetterCode:
    def test_a_is_one(self):
        assert letter_code("A") == 1

    def test_z_is_twenty_six(self):
        assert letter_code("Z") == 26

    def test_rejects_lowercase(self):
        with pytest.raises(ValueError):
            letter_code("a")

    def test_rejects_multichar(self):
        with pytest.raises(ValueError):
            letter_code("AB")


class TestFoldByte:
    def test_uppercase_letters_map_to_1_through_26(self):
        for offset in range(26):
            assert fold_byte(ord("A") + offset) == offset + 1

    def test_lowercase_letters_fold_to_uppercase_codes(self):
        for offset in range(26):
            assert fold_byte(ord("a") + offset) == offset + 1

    def test_digits_map_to_space(self):
        for digit in b"0123456789":
            assert fold_byte(digit) == SPACE_CODE

    def test_punctuation_maps_to_space(self):
        for char in b".,;:!?-()[]{}'\"":
            assert fold_byte(char) == SPACE_CODE

    def test_whitespace_maps_to_space(self):
        for char in b" \t\n\r":
            assert fold_byte(char) == SPACE_CODE

    def test_accented_e_variants_fold_to_e(self):
        for byte in (0xC8, 0xC9, 0xCA, 0xCB, 0xE8, 0xE9, 0xEA, 0xEB):
            assert fold_byte(byte) == letter_code("E")

    def test_accented_a_variants_fold_to_a(self):
        for byte in (0xC0, 0xC5, 0xE0, 0xE4, 0xE5):
            assert fold_byte(byte) == letter_code("A")

    def test_c_cedilla_folds_to_c(self):
        assert fold_byte(0xE7) == letter_code("C")
        assert fold_byte(0xC7) == letter_code("C")

    def test_n_tilde_folds_to_n(self):
        assert fold_byte(0xF1) == letter_code("N")

    def test_o_variants_fold_to_o(self):
        for byte in (0xD6, 0xF6, 0xD8, 0xF8, 0xF5):
            assert fold_byte(byte) == letter_code("O")

    def test_u_umlaut_folds_to_u(self):
        assert fold_byte(0xFC) == letter_code("U")

    def test_sharp_s_folds_to_s(self):
        assert fold_byte(0xDF) == letter_code("S")

    def test_control_bytes_map_to_space(self):
        for byte in range(0x00, 0x20):
            assert fold_byte(byte) == SPACE_CODE

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fold_byte(256)
        with pytest.raises(ValueError):
            fold_byte(-1)

    def test_table_matches_scalar_reference(self):
        for byte in range(256):
            assert TRANSLATION_TABLE[byte] == fold_byte(byte)


class TestEncode:
    def test_encode_text_simple(self):
        codes = encode_text("AB")
        assert codes.tolist() == [1, 2]

    def test_encode_text_case_insensitive(self):
        assert np.array_equal(encode_text("Hello"), encode_text("hELLO"))

    def test_encode_text_accent_insensitive(self):
        assert np.array_equal(encode_text("café"), encode_text("cafe"))

    def test_encode_bytes_equivalent_to_text(self):
        text = "The quick brown fox."
        assert np.array_equal(encode_text(text), encode_bytes(text.encode("latin-1")))

    def test_encode_preserves_length(self):
        text = "abc def! 123"
        assert encode_text(text).size == len(text)

    def test_encode_empty(self):
        assert encode_text("").size == 0

    def test_non_latin1_characters_become_space(self):
        codes = encode_text("中文\ud800")  # a lone surrogate is replaced too
        assert codes.size == 3 and (codes == SPACE_CODE).all()

    def test_does_not_collapse_whitespace(self):
        assert encode_text("a  b").tolist() == [1, 0, 0, 2]

    def test_encode_returns_uint8(self):
        assert encode_text("xyz").dtype == np.uint8

    def test_encode_numpy_input(self):
        data = np.frombuffer(b"AbC", dtype=np.uint8)
        assert encode_bytes(data).tolist() == [1, 2, 3]


class TestDecode:
    def test_roundtrip_uppercase(self):
        text = "HELLO WORLD"
        assert decode_codes(encode_text(text)) == text

    def test_decode_normalises_case(self):
        assert decode_codes(encode_text("Hello")) == "HELLO"

    def test_decode_space(self):
        assert decode_codes(np.asarray([0])) == " "

    def test_decode_unknown_code(self):
        assert decode_codes(np.asarray([30])) == "?"
