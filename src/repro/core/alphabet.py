"""Alphabet conversion: 8-bit extended ASCII (ISO-8859-1) to a 5-bit code.

Section 3.3 of the paper: *"An alphabet conversion module translates 8-bit extended
ASCII characters (ISO-8859) into a 5-bit code similar to HAIL.  Lower case characters
are converted to upper case, and accented characters are mapped to their non-accented
versions.  All other characters are mapped to a default white space code."*

The conversion is a pure 256-entry lookup table (exactly how the hardware implements
it with embedded RAM or mux logic), so encoding an entire document is a single NumPy
fancy-indexing operation over its byte buffer.  This table is the only alphabet.
Runs of whitespace are kept as they are, not collapsed: the hardware is oblivious
to word boundaries.

Code assignment
---------------
========  =======================================
code      meaning
========  =======================================
0         whitespace / any non-letter byte
1 .. 26   letters ``A`` .. ``Z`` (after case and accent folding)
27 .. 31  unused (reserved)
========  =======================================
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "CODE_BITS",
    "NUM_CODES",
    "SPACE_CODE",
    "ALPHABET_SIZE",
    "build_translation_table",
    "TRANSLATION_TABLE",
    "encode_bytes",
    "encode_text",
    "decode_codes",
    "fold_byte",
]

#: number of bits per translated character code
CODE_BITS = 5
#: size of the code space (2 ** CODE_BITS)
ALPHABET_SIZE = 1 << CODE_BITS
#: number of codes actually assigned (whitespace + 26 letters)
NUM_CODES = 27
#: the code emitted for whitespace and for every non-letter byte
SPACE_CODE = 0

# ISO-8859-1 accent folding: accented code point -> base ASCII letter.
# This mirrors the muxing logic described in the paper (and the HAIL design):
# accented characters map to their non-accented upper-case versions.
_ACCENT_FOLD = {
    # A
    0xC0: "A", 0xC1: "A", 0xC2: "A", 0xC3: "A", 0xC4: "A", 0xC5: "A", 0xC6: "A",
    0xE0: "A", 0xE1: "A", 0xE2: "A", 0xE3: "A", 0xE4: "A", 0xE5: "A", 0xE6: "A",
    # C
    0xC7: "C", 0xE7: "C",
    # D (Eth)
    0xD0: "D", 0xF0: "D",
    # E
    0xC8: "E", 0xC9: "E", 0xCA: "E", 0xCB: "E",
    0xE8: "E", 0xE9: "E", 0xEA: "E", 0xEB: "E",
    # I
    0xCC: "I", 0xCD: "I", 0xCE: "I", 0xCF: "I",
    0xEC: "I", 0xED: "I", 0xEE: "I", 0xEF: "I",
    # N
    0xD1: "N", 0xF1: "N",
    # O
    0xD2: "O", 0xD3: "O", 0xD4: "O", 0xD5: "O", 0xD6: "O", 0xD8: "O",
    0xF2: "O", 0xF3: "O", 0xF4: "O", 0xF5: "O", 0xF6: "O", 0xF8: "O",
    # U
    0xD9: "U", 0xDA: "U", 0xDB: "U", 0xDC: "U",
    0xF9: "U", 0xFA: "U", 0xFB: "U", 0xFC: "U",
    # Y
    0xDD: "Y", 0xFD: "Y", 0xFF: "Y",
    # Thorn -> T, sharp s -> S
    0xDE: "T", 0xFE: "T", 0xDF: "S",
}


def letter_code(letter: str) -> int:
    """Return the 5-bit code of an upper-case ASCII letter (``'A'`` → 1 … ``'Z'`` → 26)."""
    if len(letter) != 1 or not ("A" <= letter <= "Z"):
        raise ValueError(f"expected a single upper-case ASCII letter, got {letter!r}")
    return ord(letter) - ord("A") + 1


def fold_byte(byte: int) -> int:
    """Translate a single ISO-8859-1 byte value to its 5-bit code.

    Scalar reference implementation of the translation table; the vectorized
    path goes through :data:`TRANSLATION_TABLE`.
    """
    if not 0 <= byte <= 255:
        raise ValueError("byte value out of range")
    if ord("A") <= byte <= ord("Z"):
        return byte - ord("A") + 1
    if ord("a") <= byte <= ord("z"):
        return byte - ord("a") + 1
    if byte in _ACCENT_FOLD:
        return letter_code(_ACCENT_FOLD[byte])
    return SPACE_CODE


def build_translation_table() -> np.ndarray:
    """Build the 256-entry byte → 5-bit-code lookup table."""
    table = np.zeros(256, dtype=np.uint8)
    for byte in range(256):
        table[byte] = fold_byte(byte)
    return table


#: module-level table shared by every encoder (read-only)
TRANSLATION_TABLE = build_translation_table()
TRANSLATION_TABLE.setflags(write=False)


def encode_bytes(data: bytes | bytearray | np.ndarray) -> np.ndarray:
    """Translate a byte buffer into an array of 5-bit codes.

    Parameters
    ----------
    data:
        Raw document bytes (ISO-8859-1).  A ``uint8`` NumPy array is accepted
        directly and not copied unnecessarily.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of the same length with values in ``[0, 26]``.
    """
    buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data
    if buf.dtype != np.uint8:
        buf = buf.astype(np.uint8)
    return TRANSLATION_TABLE[buf]


def encode_text(text: str) -> np.ndarray:
    """Encode a Python string: serialise to ISO-8859-1 and translate to 5-bit codes.

    Characters outside Latin-1 (lone surrogates included) are replaced, and
    therefore become whitespace codes, matching the hardware's behaviour of
    mapping unknown bytes to the default code.
    """
    return encode_bytes(text.encode("latin-1", "replace"))


def decode_codes(codes: np.ndarray) -> str:
    """Render an array of 5-bit codes back to readable text (for debugging/tests).

    Whitespace codes become ``' '``; letter codes become upper-case letters.
    """
    codes = np.asarray(codes)
    chars = []
    for code in codes.tolist():
        if code == SPACE_CODE:
            chars.append(" ")
        elif 1 <= code <= 26:
            chars.append(chr(ord("A") + code - 1))
        else:
            chars.append("?")
    return "".join(chars)
