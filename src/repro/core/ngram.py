"""N-gram extraction and packing.

An n-gram is a sequence of exactly ``n`` consecutive characters; n-grams are
extracted by a sliding window that advances one character at a time (Section 1).
After alphabet conversion each character is a 5-bit code, so a 4-gram packs into a
20-bit integer — the key format consumed by the hash functions, the Bloom filters
and the hardware engine alike.

All functions operate on NumPy arrays end to end; there is no per-character Python
loop on any hot path.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.alphabet import CODE_BITS, AlphabetConverter, decode_codes, encode_text

__all__ = [
    "DEFAULT_N",
    "pack_ngrams",
    "ngrams_from_text",
    "unpack_ngram",
    "ngram_to_string",
    "count_ngrams",
    "top_ngrams",
    "top_ngrams_from_counts",
    "merge_ngram_counts",
    "segment_sums",
    "subsample",
    "NGramExtractor",
]

#: n-gram order used throughout the paper (Section 4: "we use n-grams of size 4")
DEFAULT_N = 4

def pack_ngrams(codes: np.ndarray, n: int = DEFAULT_N, code_bits: int = CODE_BITS) -> np.ndarray:
    """Pack every length-``n`` window of ``codes`` into an integer key.

    Parameters
    ----------
    codes:
        1-D array of character codes (each < ``2**code_bits``).
    n:
        N-gram order.
    code_bits:
        Bits per character code (5 for the paper's alphabet).

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of length ``max(0, len(codes) - n + 1)``.  The first
        character of the window occupies the most significant bits, so the packed
        value reads left-to-right like the text.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n * code_bits > 64:
        raise ValueError(f"{n}-grams of {code_bits}-bit codes do not fit in 64 bits")
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("codes must be a 1-D array")
    if codes.size < n:
        return np.empty(0, dtype=np.uint64)
    out = np.zeros(codes.size - n + 1, dtype=np.uint64)
    for offset in range(n):
        shift = np.uint64(code_bits * (n - 1 - offset))
        window = codes[offset : codes.size - n + 1 + offset].astype(np.uint64)
        out |= window << shift
    return out


def ngrams_from_text(
    text: str,
    n: int = DEFAULT_N,
    converter: AlphabetConverter | None = None,
) -> np.ndarray:
    """Convenience helper: alphabet-convert ``text`` and pack its n-grams."""
    if converter is not None:
        # honour the converter's code width, exactly like NGramExtractor.extract
        return pack_ngrams(converter.encode(text), n=n, code_bits=converter.code_bits)
    return pack_ngrams(encode_text(text), n=n)


def unpack_ngram(value: int, n: int = DEFAULT_N, code_bits: int = CODE_BITS) -> tuple[int, ...]:
    """Unpack an integer n-gram key back into its character codes."""
    mask = (1 << code_bits) - 1
    value = int(value)
    return tuple((value >> (code_bits * (n - 1 - i))) & mask for i in range(n))


def ngram_to_string(value: int, n: int = DEFAULT_N, code_bits: int = CODE_BITS) -> str:
    """Human-readable rendering of a packed n-gram (for debugging and reports)."""
    return decode_codes(np.asarray(unpack_ngram(value, n=n, code_bits=code_bits)))


def count_ngrams(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Count occurrences of each distinct packed n-gram.

    Returns ``(values, counts)`` with ``values`` sorted ascending.
    """
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.size == 0:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    values, counts = np.unique(packed, return_counts=True)
    return values, counts.astype(np.int64)


def top_ngrams(packed: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``t`` most frequent n-grams, with deterministic tie-breaking.

    Ties are broken by ascending n-gram value so that profile construction is
    reproducible across runs and platforms.

    Returns
    -------
    (values, counts):
        Both of length ``min(t, #distinct n-grams)``, ordered by decreasing count
        (then increasing value).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    values, counts = count_ngrams(packed)
    if values.size == 0:
        return values, counts
    # np.lexsort sorts by the last key first: primary = -counts, secondary = values.
    order = np.lexsort((values, -counts))
    order = order[:t]
    return values[order], counts[order]


def top_ngrams_from_counts(
    values: np.ndarray, counts: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``t`` most frequent entries of an already-counted n-gram table.

    Same ordering contract as :func:`top_ngrams` (decreasing count, ties by
    ascending value) but starting from ``(values, counts)`` arrays instead of
    a raw packed stream — the reduction step of streaming/out-of-core profile
    building, where the full stream never exists in memory.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    values = np.asarray(values, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.shape != counts.shape:
        raise ValueError("values and counts must have the same length")
    if values.size == 0:
        return values, counts
    order = np.lexsort((values, -counts))[:t]
    return values[order], counts[order]


def merge_ngram_counts(
    values_a: np.ndarray,
    counts_a: np.ndarray,
    values_b: np.ndarray,
    counts_b: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Merge two distinct-value count tables, summing counts of shared n-grams.

    Both inputs must hold *distinct* values (the :func:`count_ngrams` output
    shape); the result is sorted by ascending value.  This is the associative
    combine step of constant-memory accumulation: chunk counts fold into a
    bounded running table instead of concatenating raw streams.
    """
    values = np.concatenate(
        [np.asarray(values_a, dtype=np.uint64), np.asarray(values_b, dtype=np.uint64)]
    )
    counts = np.concatenate(
        [np.asarray(counts_a, dtype=np.int64), np.asarray(counts_b, dtype=np.int64)]
    )
    if values.size == 0:
        return values, counts
    merged, inverse = np.unique(values, return_inverse=True)
    # integer scatter-add: np.bincount(..., weights=...) would route the sums
    # through float64, which silently loses exactness above 2**53 — far below
    # the corpus scales streaming training targets (Infini-gram in PAPERS.md)
    summed = np.zeros(merged.size, dtype=np.int64)
    np.add.at(summed, inverse, counts)
    return merged, summed


def segment_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum integer ``values`` over consecutive segments of the given lengths.

    Reduces a concatenated multi-document stream (hits, counts, bitmap tests)
    back to per-document totals — the reduction shared by every batch
    classification path.  ``np.add.reduceat`` sums the non-empty segments in
    int64; it reads an empty segment as the single value at its start, so
    empty segments are left out of the call and stay 0.  Values past the
    last segment are ignored.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    ends = np.cumsum(lengths)
    sums = np.zeros(lengths.size, dtype=np.int64)
    nonempty = lengths > 0
    if nonempty.any():
        starts = (ends - lengths)[nonempty]
        sums[nonempty] = np.add.reduceat(values[: ends[-1]], starts, dtype=np.int64)
    return sums


def subsample(packed: np.ndarray, stride: int) -> np.ndarray:
    """HAIL-style n-gram subsampling: keep every ``stride``-th n-gram of the stream.

    Section 3.3/5.2: subsampling every other n-gram halves the on-chip memory
    bandwidth needed and doubles the number of supported languages at a small
    accuracy cost.
    """
    if stride <= 0:
        raise ValueError("stride must be positive")
    packed = np.asarray(packed, dtype=np.uint64)
    return packed[::stride]


class NGramExtractor:
    """Configured n-gram extraction pipeline (alphabet conversion + key generation).

    Parameters
    ----------
    n:
        N-gram order (default 4, as in the paper).
    converter:
        Alphabet converter to use; a default non-collapsing converter is created
        when omitted.
    subsample_stride:
        If greater than 1, only every ``subsample_stride``-th n-gram is emitted.

    Each window's codes are concatenated into one integer key, so ``n`` is
    capped at ``64 // code_bits`` (12 for the 5-bit alphabet).
    """

    def __init__(
        self,
        n: int = DEFAULT_N,
        converter: AlphabetConverter | None = None,
        subsample_stride: int = 1,
    ):
        if n <= 0:
            raise ValueError("n must be positive")
        if subsample_stride <= 0:
            raise ValueError("subsample_stride must be positive")
        self.n = int(n)
        self.converter = converter if converter is not None else AlphabetConverter()
        self.subsample_stride = int(subsample_stride)
        if self.n * self.converter.code_bits > 64:
            raise ValueError(
                f"{self.n}-grams of {self.converter.code_bits}-bit codes do not fit in 64 bits"
            )

    @property
    def key_bits(self) -> int:
        """Width in bits of the packed n-gram keys produced by this extractor."""
        return self.n * self.converter.code_bits

    def extract(self, text: str | bytes) -> np.ndarray:
        """Extract the packed n-grams of a document."""
        codes = self.converter.encode(text)
        packed = pack_ngrams(codes, n=self.n, code_bits=self.converter.code_bits)
        if self.subsample_stride > 1:
            packed = subsample(packed, self.subsample_stride)
        return packed

    def extract_many(self, texts: Iterable[str | bytes]) -> np.ndarray:
        """Extract and concatenate packed n-grams from several documents.

        Document boundaries are respected: no n-gram spans two documents.
        """
        parts = [self.extract(t) for t in texts]
        if not parts:
            return np.empty(0, dtype=np.uint64)
        return np.concatenate(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"NGramExtractor(n={self.n}, "
            f"subsample_stride={self.subsample_stride}, converter={self.converter!r})"
        )
