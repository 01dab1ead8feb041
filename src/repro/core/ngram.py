"""N-gram extraction and packing.

An n-gram is a sequence of exactly ``n`` consecutive characters; n-grams are
extracted by a sliding window that advances one character at a time (Section 1).
After alphabet conversion each character is a 5-bit code, so a 4-gram packs into a
20-bit integer — the key format consumed by the hash functions, the Bloom filters
and the hardware engine alike.  :class:`NGramExtractor` is the one text → key
path: ``extract`` for one document, ``extract_batch`` for a batch, both through
one packing routine that builds keys by doubling.  :func:`pack_ngrams` packs the
same keys one character at a time and is the reference the tests hold it to.

All functions operate on NumPy arrays end to end; there is no per-character Python
loop on any hot path.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.alphabet import CODE_BITS, TRANSLATION_TABLE, decode_codes, encode_text

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
    "gather_ranges",
    "subsample",
    "NGramExtractor",
]

#: n-gram order used throughout the paper (Section 4: "we use n-grams of size 4")
DEFAULT_N = 4

#: the alphabet table as a ``bytes.translate`` argument
_TRANSLATE = TRANSLATION_TABLE.tobytes()


def pack_ngrams(codes: np.ndarray, n: int = DEFAULT_N) -> np.ndarray:
    """Pack every length-``n`` window of ``codes`` into an integer key.

    Parameters
    ----------
    codes:
        1-D array of 5-bit character codes (each < ``2**CODE_BITS``), of any
        integer dtype.
    n:
        N-gram order.

    Returns
    -------
    numpy.ndarray
        ``uint64`` array of length ``max(0, len(codes) - n + 1)``.  The first
        character of the window occupies the most significant bits, so the packed
        value reads left-to-right like the text.

    The keys are built by Horner's scheme in one ``uint64`` array: start from
    each window's first code, then shift left by one code and OR in the next
    code, ``n - 1`` times.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    if n * CODE_BITS > 64:
        raise ValueError(f"{n}-grams of {CODE_BITS}-bit codes do not fit in 64 bits")
    codes = np.asarray(codes)
    if codes.ndim != 1:
        raise ValueError("codes must be a 1-D array")
    windows = codes.size - n + 1
    if windows <= 0:
        return np.empty(0, dtype=np.uint64)
    out = codes[:windows].astype(np.uint64)
    for offset in range(1, n):
        out <<= np.uint64(CODE_BITS)
        # the explicit loop dtype lets signed codes (int64) OR into the uint64 keys
        np.bitwise_or(
            out, codes[offset : windows + offset], out=out, dtype=np.uint64, casting="unsafe"
        )
    return out


def ngrams_from_text(text: str, n: int = DEFAULT_N) -> np.ndarray:
    """Convenience helper: alphabet-convert ``text`` and pack its n-grams."""
    return pack_ngrams(encode_text(text), n=n)


def _latin1(text: str | bytes) -> bytes:
    """A document's bytes: a ``str`` serialised to Latin-1 as :func:`encode_text` does."""
    return text.encode("latin-1", "replace") if isinstance(text, str) else text


def _pack_bytes(data: bytes, n: int) -> np.ndarray:
    """:func:`pack_ngrams` of ``data``'s 5-bit codes, by doubling.

    ``bytes.translate`` with the alphabet table turns the bytes into codes.
    Keys of ``width`` codes then grow by ``step <= width`` codes in one pass,
    ``key[i] << 5 * step | key[i + step]``: the two keys share ``width -
    step`` codes, which sit at the same bits in both.  So ``n`` codes take
    ceil(log2 n) passes instead of Horner's ``n - 1``, the way Intermediate
    N-Gramming builds long n-grams from shorter ones.
    """
    keys = np.frombuffer(bytes(data).translate(_TRANSLATE), dtype=np.uint8).astype(np.uint64)
    width = 1
    while width < n:
        step = min(width, n - width)
        grown = keys[: max(keys.size - step, 0)] << np.uint64(CODE_BITS * step)
        grown |= keys[step:]
        keys, width = grown, width + step
    return keys


def unpack_ngram(value: int, n: int = DEFAULT_N) -> tuple[int, ...]:
    """Unpack an integer n-gram key back into its character codes."""
    mask = (1 << CODE_BITS) - 1
    value = int(value)
    return tuple((value >> (CODE_BITS * (n - 1 - i))) & mask for i in range(n))


def ngram_to_string(value: int, n: int = DEFAULT_N) -> str:
    """Human-readable rendering of a packed n-gram (for debugging and reports)."""
    return decode_codes(np.asarray(unpack_ngram(value, n=n)))


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
    """Return the ``t`` most frequent n-grams of a packed stream.

    :func:`count_ngrams` followed by :func:`top_ngrams_from_counts`, which
    fixes the order.
    """
    return top_ngrams_from_counts(*count_ngrams(packed), t)


def top_ngrams_from_counts(
    values: np.ndarray, counts: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``t`` most frequent entries of an already-counted n-gram table.

    Ties are broken by ascending n-gram value so that profile construction is
    reproducible across runs and platforms.  Batch training reaches this
    through :func:`top_ngrams`; streaming/out-of-core profile building calls
    it directly on its merged table, where the full stream never exists in
    memory.

    Returns
    -------
    (values, counts):
        Both of length ``min(t, #distinct n-grams)``, ordered by decreasing count
        (then increasing value).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    values = np.asarray(values, dtype=np.uint64)
    counts = np.asarray(counts, dtype=np.int64)
    if values.shape != counts.shape:
        raise ValueError("values and counts must have the same length")
    if values.size == 0:
        return values, counts
    # np.lexsort sorts by the last key first: primary = -counts, secondary = values.
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


def segment_sums(values: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sum integer ``values`` over the ranges ``[starts[i], starts[i] + lengths[i])``.

    Reduces a batch stream (hits, scores, counter lanes) back to per-document
    totals — the reduction shared by every batch classification path.  The
    ranges run along the last axis of ``values``, in ascending order and
    without overlap; values in the gaps between them (the windows that cross
    a document boundary) and past the last range are not counted.
    ``values`` is 1-D, or 2-D with one row per language (score rows) or per
    counter lane (the table backends' ``int64`` lanes); the result has
    ``values``' leading shape plus one int64 total per range.

    One ``np.add.reduceat`` per row over every range's start and end: the
    sums from the starts are the ranges', those from the ends (the gaps')
    are dropped.  One call per row, not one over the flattened matrix: the
    reduction casts its whole input to int64 first, and a row's cast is 8
    bytes per value where the matrix's would be 8 bytes per value per row.
    ``reduceat`` reads an empty range as the single value at its start, so
    when some range is empty, the empty ones are left out of the call and
    stay 0.
    """
    values = np.asarray(values)
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not (lengths.size and lengths.all()):
        sums = np.zeros(values.shape[:-1] + lengths.shape, dtype=np.int64)
        kept = lengths > 0
        if kept.any():
            sums[..., kept] = segment_sums(values, starts[kept], lengths[kept])
        return sums
    bounds = np.empty((lengths.size, 2), dtype=np.int64)
    bounds[:, 0] = starts
    np.add(starts, lengths, out=bounds[:, 1])
    end = int(bounds[-1, 1])
    # every index but the last end lies inside the rows cut at that end
    bounds = bounds.ravel()[:-1]
    sums = np.empty(values.shape[:-1] + lengths.shape, dtype=np.int64)
    for row, out in zip(values[..., :end].reshape(-1, end), sums.reshape(-1, lengths.size)):
        out[:] = np.add.reduceat(row, bounds, dtype=np.int64)[::2]
    return sums


def gather_ranges(
    values: np.ndarray, starts: np.ndarray, counts: np.ndarray, stride: int
) -> np.ndarray:
    """``values[starts[i] + stride * j]`` for every ``j < counts[i]``, range after range.

    One slice per range, copied once into the result: no index array is
    built, so the result is the only new memory.
    """
    return np.concatenate(
        [values[:0]]
        + [
            values[start : start + stride * count : stride]
            for start, count in zip(np.asarray(starts).tolist(), np.asarray(counts).tolist())
        ]
    )


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
    subsample_stride:
        If greater than 1, only every ``subsample_stride``-th n-gram is emitted
        (HAIL-style subsampling of the test stream).  Training extracts every
        n-gram, so trainers build their extractor with the default stride.

    Each window's 5-bit codes are concatenated into one integer key, so ``n``
    is capped at ``64 // CODE_BITS`` (12).  :meth:`extract` and
    :meth:`extract_batch` share one packing routine: ``bytes.translate``
    with the alphabet table, then keys built by doubling in ceil(log2 n)
    passes.  They equal :func:`pack_ngrams`' keys, which are built one code
    at a time.
    """

    def __init__(self, n: int = DEFAULT_N, subsample_stride: int = 1):
        if n <= 0:
            raise ValueError("n must be positive")
        if subsample_stride <= 0:
            raise ValueError("subsample_stride must be positive")
        if n * CODE_BITS > 64:
            raise ValueError(f"{n}-grams of {CODE_BITS}-bit codes do not fit in 64 bits")
        self.n = int(n)
        self.subsample_stride = int(subsample_stride)

    def extract(self, text: str | bytes) -> np.ndarray:
        """Extract the packed n-grams of a document.

        A ``str`` is serialised to Latin-1 (:func:`encode_text`); ``bytes`` are
        read as given.
        """
        packed = _pack_bytes(_latin1(text), self.n)
        if self.subsample_stride > 1:
            packed = subsample(packed, self.subsample_stride)
        return packed

    def extract_batch(
        self, texts: Iterable[str | bytes]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Extract a batch as one stream: its keys and each document's range.

        Returns ``(packed, starts, lengths)``: the ``uint64`` keys of the
        batch's documents, and for each document the ``int64`` index of its
        first key and its key count.  ``packed[starts[i] : starts[i] +
        lengths[i]]`` is :meth:`extract` of document ``i``.  This is the
        input every batch kernel takes.

        The batch is read as one byte stream, the way the paper's engine
        reads documents separated by end-of-document commands (Section 5.4):
        each document is encoded by :meth:`extract`'s rule, the bytes are
        joined and packed by :meth:`extract`'s routine in one pass, and every
        window of the stream is kept.  The ``n - 1`` windows that cross a
        boundary between two documents lie in the gaps between the ranges,
        and no kernel counts them.  An empty range (a document shorter than
        ``n``) may start past the stream's last window.  With a stride,
        :func:`gather_ranges` keeps each document's windows 0, s, 2s, … and
        the ranges tile the gathered keys.
        """
        data = [_latin1(text) for text in texts]
        sizes = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
        packed = _pack_bytes(b"".join(data), self.n)
        # document i's first window starts at its first byte
        starts = np.cumsum(sizes) - sizes
        lengths = np.maximum(sizes - (self.n - 1), 0)
        stride = self.subsample_stride
        if stride > 1:
            lengths = -(-lengths // stride)
            packed = gather_ranges(packed, starts, lengths, stride)
            starts = np.cumsum(lengths) - lengths
        return packed, starts, lengths

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"NGramExtractor(n={self.n}, subsample_stride={self.subsample_stride})"
