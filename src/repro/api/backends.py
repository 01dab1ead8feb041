"""Backend adapters: every classifier flavour behind the one :class:`Backend` contract.

Five engines are registered:

``bloom``
    The paper's design — per-language Parallel Bloom Filters sharing one hash
    family, stored as one ``(k, languages, m_bits)`` bit matrix.  Persists
    that matrix so a loaded model answers without re-programming, straight
    out of the mapped artifact.  At n <= 4 every key's verdicts are read out
    of it once, on first use, into a key table that answers each n-gram with
    one gather.
``exact``
    The no-false-positive reference — exact profile membership (a software
    stand-in for HAIL's direct memory table), used to separate errors inherent
    to the n-gram method from errors introduced by Bloom false positives.
``hw-sim``
    The cycle-approximate FPGA datapath
    (:class:`repro.hardware.classifier_engine.ParallelMultiLanguageClassifier`),
    bit-exact with ``bloom`` for the same seed but also accounting clock cycles.
``mguesser``
    An mguesser-style frequency scorer over the packed n-gram pipeline: each
    language scores a document by the summed training-set frequency of its
    n-grams.  Frequencies are rounded once, at fit, to fixed-point integers
    (1e-6 units), so the backend shares the integer counter semantics of the
    hardware.
``hail``
    The competing HAIL design — a direct-lookup SRAM table with per-bucket
    language bitmaps (:class:`repro.baselines.hail.HailClassifier`).

All adapters consume the same per-language :class:`~repro.core.profile.LanguageProfile`
objects and classify a whole batch in ``match_counts_batch``, which reads
the batch as one stream of n-grams with each document's range, the
boundary windows between documents left in the gaps.
The four *table backends* — ``bloom``, ``exact``, ``hail`` and ``mguesser``,
whose per-n-gram answer is a lookup — share that kernel.  ``bloom`` (from
its key table, n <= 4), ``exact`` (a word column in its sorted table) and
``hail`` (its SRAM words) hand it one *language word* per n-gram, bit ``j``
= language ``j``.  One spread table turns each ten bits of a word into a
*lane*: an ``int64`` holding ten 6-bit language counters, like the paper's
bank of match counters stepping together.  A document is counted in
pieces of at most 63 n-grams, one reduction per lane gives every piece's
counts, and one more adds each document's pieces.  ``mguesser``'s
weights and bloom's hash-and-probe path (n > 4, or more than 64 languages)
are reduced one language row at a time.  ``exact`` and ``mguesser`` find
each n-gram's column with one ``searchsorted`` per batch over one sorted
array of every profile's n-grams.  ``ngram_hits`` (the segmenter's input)
returns per-language rows, unpacked from the words where there are any.
Only ``hw-sim`` (cycle model) and ``ensemble`` (votes) keep their own batch
kernel.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.api.config import ClassifierConfig
from repro.api.registry import Backend, register_backend
from repro.baselines.hail import HailClassifier
from repro.core.fpr import false_positive_rate
from repro.core.ngram import segment_sums
from repro.core.profile import LanguageProfile
from repro.hardware.classifier_engine import ParallelMultiLanguageClassifier
from repro.hashes.families import make_hash_family

__all__ = [
    "BloomBackend",
    "ExactBackend",
    "HardwareSimBackend",
    "MguesserBackend",
    "HailBackend",
]

#: fixed-point scale of the mguesser backend's frequency scores
MGUESSER_SCORE_SCALE = 1_000_000

#: n-grams hashed per step of the batch path; sized so the hash temporaries
#: (~9 arrays of 8 bytes per key) stay cache-resident instead of streaming
#: multi-megabyte intermediates through DRAM
BATCH_CHUNK_NGRAMS = 1 << 16

#: widest packed key (n <= 4) whose bloom verdicts are read out into a key
#: table: one word per key, 2 MB at 2^20 keys and up to 16 languages
KEY_TABLE_MAX_BITS = 20
#: most languages a key-table word holds (one bit each in a uint64)
KEY_TABLE_MAX_LANGUAGES = 64
#: log2 of the keys read out per step of the key-table build; 16 K keys keep
#: each step's k address blocks (128 KB each) cache-resident
KEY_TABLE_BLOCK_BITS = 14

#: width of one language's match counter in a lane
FIELD_BITS = 6
#: most n-grams one counter counts: a document is counted in pieces of at most this many
FIELD_MAX = (1 << FIELD_BITS) - 1
#: counters per ``int64`` lane: ten use 60 of its 64 bits, so a lane's sum
#: over one piece never carries into the next counter or the sign bit
LANE_FIELDS = 64 // FIELD_BITS
#: each counter's shift within its lane
FIELD_SHIFTS = np.arange(0, FIELD_BITS * LANE_FIELDS, FIELD_BITS)
#: a word's bits per lane, each lane's index into :data:`SPREAD`
LANE_MASK = (1 << LANE_FIELDS) - 1
#: the spread table: entry ``w`` holds bit ``j`` of the ten-bit ``w`` in counter
#: ``j`` of one lane; every lane of every language count spreads through it (8 KB)
SPREAD = ((np.arange(LANE_MASK + 1)[:, None] >> np.arange(LANE_FIELDS) & 1) << FIELD_SHIFTS).sum(1)
SPREAD.flags.writeable = False
#: n-grams per block of pieces: a block's lanes span at most this many plus
#: one piece (1 MB per lane), however large the batch, while 64 long
#: documents (~95 K n-grams) still count in one block
LANE_BLOCK_NGRAMS = 1 << 17
#: the masks :meth:`_MembershipBackend._unpack_words` tests the words
#: against: entry ``j`` is ``1 << j``, the bit of language ``j``
WORD_BITS = np.uint64(1) << np.arange(64, dtype=np.uint64)
WORD_BITS.flags.writeable = False
#: words per block of :meth:`_MembershipBackend._unpack_words`: the masked
#: block is one word per language and n-gram (1.3 MB at ten ``uint16``
#: languages), beside the rows' one byte per language and n-gram
UNPACK_BLOCK_WORDS = 1 << 16


class _MembershipBackend(Backend):
    """A table backend: its per-n-gram answer is a lookup.

    Subclasses supply :meth:`ngram_hits`, integer per-n-gram scores: 0/1
    hits for ``bloom``, ``exact`` and ``hail``, fixed-point weights for
    ``mguesser``.  A document's count for a language is the sum of its
    n-grams' scores, so summing ``ngram_hits`` along the n-gram axis
    reproduces the document's counts exactly.

    ``bloom`` (from its key table), ``exact`` and ``hail`` also supply
    :meth:`_language_words`: one word per n-gram whose bit ``j`` is language
    ``j``'s hit.  Their counts come from the paper's counter bank, where
    every language's counter steps at once: :func:`_lane_counts` spreads
    each ten bits of the words through :data:`SPREAD` into an ``int64`` lane
    of ten 6-bit counters, and reduces each lane once per block of pieces of
    at most 63 n-grams: at ten languages, one gather and one reduction
    where unpacking and reducing one row per language took three calls per
    language.  ``mguesser``'s ``int32`` weights and bloom's
    :meth:`~BloomBackend.probe` have no words; one
    :func:`~repro.core.ngram.segment_sums` call reduces their score rows.
    Either way the kernel reads the batch stream as it is, and only each
    document's range of it is counted.
    """

    def match_counts_batch(
        self, packed: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        self._check_trained()
        starts = np.asarray(starts, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        words = self._language_words(packed)
        if words is None:
            return segment_sums(self.ngram_hits(packed), starts, lengths).T
        return _lane_counts(words, starts, lengths, len(self.profiles))

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Boolean ``(languages, N)`` hits: the language words, one row per bit."""
        self._check_trained()
        return self._unpack_words(self._language_words(packed), len(self.profiles))

    def _language_words(self, packed: np.ndarray) -> np.ndarray | None:
        """Each n-gram's word (bit ``j`` = language ``j``), or ``None`` without words."""
        return None

    @staticmethod
    def _unpack_words(words: np.ndarray, languages: int) -> np.ndarray:
        """Boolean ``(languages, N)`` matrix whose row ``j`` is bit ``j`` of each word.

        One mask-and-compare per block of at most :data:`UNPACK_BLOCK_WORDS`
        words fills the rows: the block against ``1 << j`` for every language
        ``j`` at once (:data:`WORD_BITS`, in the words' dtype).  The rows are
        C-contiguous, so a reduction along the n-gram axis reads each
        language in order, and the masked block bounds the temporary however
        many words there are.
        """
        bits = WORD_BITS[:languages, None].astype(words.dtype)
        rows = np.empty((languages, words.size), dtype=bool)
        for start in range(0, words.size, UNPACK_BLOCK_WORDS):
            block = slice(start, start + UNPACK_BLOCK_WORDS)
            np.not_equal(words[block] & bits, 0, out=rows[:, block])
        return rows


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Words whose bit ``j`` is ``rows[j]``: the inverse of ``_unpack_words``."""
    dtype = np.min_scalar_type((1 << rows.shape[0]) - 1)
    words = np.zeros(rows.shape[1:], dtype=dtype)
    for bit, row in enumerate(rows):
        words |= row.astype(dtype) << dtype.type(bit)
    return words


def _lane_counts(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, languages: int
) -> np.ndarray:
    """``(documents, languages)`` counts of the set bits of each document's words.

    Document ``i``'s words are ``words[starts[i] : starts[i] + lengths[i]]``.
    Each document is counted in pieces of at most ``FIELD_MAX`` n-grams (an
    empty document in one empty piece), so no 6-bit counter overflows, and
    one ``np.add.reduceat`` adds each document's pieces.  The pieces are
    counted in blocks: those that start in one stretch of
    ``LANE_BLOCK_NGRAMS`` n-grams, so a block's lanes hold at most that many
    plus one piece however large the batch.
    """
    per_document = np.maximum((lengths + (FIELD_MAX - 1)) // FIELD_MAX, 1)
    first = np.cumsum(per_document) - per_document
    # piece j of document i starts FIELD_MAX * j n-grams after the document
    offsets = np.repeat(starts - FIELD_MAX * first, per_document)
    offsets += np.arange(0, FIELD_MAX * offsets.size, FIELD_MAX)
    pieces = np.minimum(np.repeat(starts + lengths, per_document) - offsets, FIELD_MAX)
    bounds = [0, offsets.size]
    if offsets.size and offsets[-1] >= LANE_BLOCK_NGRAMS:
        bounds[1:1] = (np.flatnonzero(np.diff(offsets // LANE_BLOCK_NGRAMS)) + 1).tolist()
    counts = [
        _block_counts(words, offsets[first_piece:stop], pieces[first_piece:stop], languages)
        for first_piece, stop in zip(bounds, bounds[1:])
    ]
    return np.add.reduceat(counts[0] if len(counts) == 1 else np.concatenate(counts), first, axis=0)


def _block_counts(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray, languages: int
) -> np.ndarray:
    """``(pieces, languages)`` counts of one block of pieces, through counter lanes.

    Each lane takes one gather from :data:`SPREAD`, over the words from the
    block's first piece to its last, and one
    :func:`~repro.core.ngram.segment_sums` call reduces every lane's pieces.
    A lane's sum over a piece is exact: the piece holds at most
    ``FIELD_MAX`` n-grams, so no carry crosses into the next counter.  The
    counters are split with a shift and a mask (not a byte view, which
    would depend on byte order).
    """
    begin, end = (int(starts[0]), int(starts[-1] + lengths[-1])) if starts.size else (0, 0)
    block = words[begin:end]
    lanes = np.empty((-(-languages // LANE_FIELDS), block.size), dtype=np.int64)
    for group, lane in enumerate(lanes):
        index = block if lanes.shape[0] == 1 else block >> (LANE_FIELDS * group) & LANE_MASK
        # every index is in range; "clip" only spares np.take buffering ``out``
        np.take(SPREAD, index, out=lane, mode="clip")
    sums = segment_sums(lanes, starts - begin, lengths)
    counts = (sums.T[:, :, None] >> FIELD_SHIFTS) & FIELD_MAX
    return counts.reshape(lengths.size, LANE_FIELDS * lanes.shape[0])[:, :languages]


def _require_profiles(profiles: Mapping[str, LanguageProfile]) -> None:
    if not profiles:
        raise ValueError("at least one language profile is required")


@register_backend("bloom")
class BloomBackend(_MembershipBackend):
    """The paper's Parallel-Bloom-Filter classifier.

    Every language's filter shares one hash family, so each n-gram is hashed
    once and its ``k`` addresses are tested against every language's
    bit-vectors — the sharing the hardware gets by broadcasting the hashed
    addresses to every filter.  Built with the same seed, the filters address
    the same cells as the ``hw-sim`` engine.

    The one bit store is :attr:`bits`, a ``(k, languages, m_bits)`` matrix
    with one byte per bit (vector ``i`` of language ``j`` is ``bits[i, j]``),
    plus :attr:`n_items`, each language's programmed-key count.

    Keys of at most ``KEY_TABLE_MAX_BITS`` bits (n <= 4) are few enough to
    read every key's verdict out of :attr:`bits` once: the *key table* holds
    one word per key whose bit ``j`` is language ``j``'s verdict, so
    :meth:`ngram_hits` answers each n-gram with one gather instead of ``k``
    hashes and ``k`` probes — HAIL's direct lookup, built from the Bloom
    filters themselves.  The table is derived data: built on the first probe
    after :meth:`fit_profiles` or :meth:`import_state`, and never exported.
    Wider keys and more than ``KEY_TABLE_MAX_LANGUAGES`` languages use
    :meth:`probe`.
    """

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self.hashes = make_hash_family(
            config.hash_family,
            k=config.k,
            key_bits=config.key_bits,
            out_bits=int(np.log2(config.m_bits)),
            seed=config.seed,
        )
        self.bits: np.ndarray | None = None
        self.n_items: np.ndarray | None = None
        self._key_table: np.ndarray | None = None

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        """Program every language's bit-vectors with one ``hash_all`` per profile."""
        _require_profiles(profiles)
        bits = np.zeros((self.config.k, len(profiles), self.config.m_bits), dtype=bool)
        for column, profile in enumerate(profiles.values()):
            addresses = self.hashes.hash_all(profile.ngrams)
            for i in range(self.config.k):
                bits[i, column, addresses[i]] = True
        self.bits = bits
        self.n_items = np.asarray([len(p) for p in profiles.values()], dtype=np.int64)
        self.profiles = dict(profiles)
        self._key_table = None

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Boolean ``(languages, n_ngrams)`` membership matrix.

        The key table's words, unpacked into one row per language, where
        the table applies (see the class docstring); otherwise :meth:`probe`.
        Both give the same matrix, the windowed segmentation scorer's input.
        """
        self._check_trained()
        words = self._language_words(packed)
        if words is None:
            return self.probe(packed)
        return self._unpack_words(words, self.bits.shape[1])

    def _language_words(self, packed: np.ndarray) -> np.ndarray | None:
        """One key-table gather per n-gram; ``None`` where no key table applies."""
        packed = np.asarray(packed, dtype=np.uint64)
        table = self._key_table
        if table is None:
            if (
                self.config.key_bits > KEY_TABLE_MAX_BITS
                or self.bits.shape[1] > KEY_TABLE_MAX_LANGUAGES
            ):
                return None
            # built into a local and published with one assignment: racing
            # first calls at worst build it twice
            table = self._key_table = self._build_key_table()
        if packed.size and int(packed.max()) >> self.config.key_bits:
            raise ValueError(
                f"key does not fit in {self.config.key_bits} bits "
                f"(max value seen: {int(packed.max())})"
            )
        # every key is below 2^key_bits, so its intp view is the same index:
        # np.take gathers through it without a cast copy of the keys, and
        # "clip" never clips (it only skips the bounds check)
        return np.take(table, packed.view(np.intp), mode="clip")

    def probe(self, packed: np.ndarray) -> np.ndarray:
        """:meth:`ngram_hits` by hashing: ``k`` hashes and ``k`` probes per n-gram.

        Each n-gram is hashed exactly once and each hash function's addresses
        are tested against every language in a single gather; chunking keeps
        the hash temporaries cache-resident.  The only path for keys too wide
        for a key table, and the key table's reference.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        bits = self.bits
        hits = np.empty((bits.shape[1], packed.size), dtype=bool)
        for start in range(0, packed.size, BATCH_CHUNK_NGRAMS):
            segment = packed[start : start + BATCH_CHUNK_NGRAMS]
            addresses = self.hashes.hash_all(segment)
            chunk_hits = bits[0][:, addresses[0]]
            for i in range(1, self.config.k):
                chunk_hits &= bits[i][:, addresses[i]]
            hits[:, start : start + segment.size] = chunk_hits
        return hits

    def _build_key_table(self) -> np.ndarray:
        """Every key's language word: the AND over the ``k`` vectors' cells it hashes to."""
        k = self.config.k
        # cell a of vector i as one word whose bit j is bits[i, j, a]
        cells = _pack_rows(self.bits.transpose(1, 0, 2))
        table = np.empty(1 << self.config.key_bits, dtype=cells.dtype)
        start = 0
        for addresses in zip(*(h.hash_key_space(KEY_TABLE_BLOCK_BITS) for h in self.hashes)):
            words = np.take(cells[0], addresses[0])
            for i in range(1, k):
                words &= np.take(cells[i], addresses[i])
            table[start : start + words.size] = words
            start += words.size
        table.flags.writeable = False
        return table

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict[str, np.ndarray]:
        """The bit store, ready to be mapped zero-copy.

        ``stacked_bits`` is :attr:`bits` viewed as ``uint8`` (one byte per
        bit, training-language order) and ``n_items`` each language's
        programmed-key count.  Stored unpacked precisely so a read-only
        memory map of the model file can back the live bits with zero copies.
        """
        self._check_trained()
        return {"stacked_bits": self.bits.view(np.uint8), "n_items": self.n_items}

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Adopt :meth:`export_state` arrays as the bit store, zero-copy.

        The stacked matrix becomes a read-only view that :meth:`ngram_hits`
        gathers from, so when the arrays are views of a memory-mapped model
        file this backend owns no bit storage of its own — every replica
        process that maps the file reads one physical copy.  Incomplete or mismatched state
        falls back to a deterministic rebuild from the profiles.
        """
        stacked = state.get("stacked_bits")
        n_items = state.get("n_items")
        expected_shape = (self.config.k, len(profiles), self.config.m_bits)
        if (
            stacked is None
            or n_items is None
            or np.asarray(stacked).shape != expected_shape
            or np.asarray(stacked).dtype not in (np.dtype(bool), np.dtype(np.uint8))
            or np.asarray(n_items).shape != (len(profiles),)
        ):
            self.fit_profiles(profiles)
            return
        bits = np.asarray(stacked).view(bool)
        bits.flags.writeable = False
        self.bits = bits
        self.n_items = np.asarray(n_items)
        self.profiles = dict(profiles)
        self._key_table = None

    def describe(self) -> dict:
        info = super().describe()
        info["memory_bits_per_language"] = self.config.memory_bits_per_language
        info["expected_fpr"] = (
            false_positive_rate(
                max(len(p) for p in self.profiles.values()), self.config.m_bits, self.config.k
            )
            if self.profiles
            else None
        )
        info["shared_bit_vectors"] = self.bits is not None and not self.bits.flags.writeable
        return info


class _SortedTableBackend(_MembershipBackend):
    """A table backend that answers every language with one sorted-key lookup.

    One ``searchsorted`` over :attr:`_keys` for the whole batch finds each
    n-gram's column of the table; an n-gram no profile holds reads the
    all-zero last column.  Subclasses supply only :meth:`_scores`.  The
    table is derived from the profiles at fit (and so on load), and never
    stored.
    """

    #: every profile's distinct n-grams, ascending, then a pad key (uint64 max)
    _keys: np.ndarray | None = None
    #: ``(languages, keys + 1)`` scores; column ``i`` is key ``i``'s, the pad's is zero
    _values: np.ndarray | None = None

    def _scores(self, profile: LanguageProfile) -> np.ndarray:
        """Each of ``profile.ngrams``' scores in its language, in profile order."""
        raise NotImplementedError

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        keys, columns = np.unique(
            np.concatenate([profile.ngrams for profile in profiles.values()]), return_inverse=True
        )
        rows = np.repeat(np.arange(len(profiles)), [len(profile) for profile in profiles.values()])
        scores = np.concatenate([self._scores(profile) for profile in profiles.values()])
        self._values = np.zeros((len(profiles), keys.size + 1), dtype=scores.dtype)
        self._values[rows, columns] = scores
        self._keys = np.append(keys, np.iinfo(np.uint64).max)
        self.profiles = dict(profiles)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """``(languages, N)`` scores from one ``searchsorted`` over the shared keys."""
        self._check_trained()
        words = self._language_words(packed)
        if words is None:
            return np.take(self._values, self._positions(packed), axis=1)
        return self._unpack_words(words, len(self.profiles))

    def _positions(self, packed: np.ndarray) -> np.ndarray:
        """Each n-gram's column: its key's, or the pad's where no profile holds it."""
        packed = np.asarray(packed, dtype=np.uint64)
        # the pad key is no smaller than any n-gram, so positions stay in range
        positions = np.searchsorted(self._keys, packed)
        positions[self._keys[positions] != packed] = self._keys.size - 1
        return positions


@register_backend("exact")
class ExactBackend(_SortedTableBackend):
    """Exact profile membership — the accuracy reference without false positives.

    Up to ``KEY_TABLE_MAX_LANGUAGES`` languages, the sorted table is one
    language word per key (:attr:`_words`, bit ``j`` = language ``j``),
    counted in lanes like bloom's key table; with more, it stays the
    boolean score columns of :attr:`_values`.
    """

    #: ``(keys + 1,)`` language words, the pad's zero; ``None`` past 64 languages
    _words: np.ndarray | None = None

    def _scores(self, profile: LanguageProfile) -> np.ndarray:
        return np.ones(len(profile), dtype=bool)

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        super().fit_profiles(profiles)
        self._words = None
        if len(profiles) <= KEY_TABLE_MAX_LANGUAGES:
            self._words, self._values = _pack_rows(self._values), None

    def _language_words(self, packed: np.ndarray) -> np.ndarray | None:
        return None if self._words is None else np.take(self._words, self._positions(packed))


@register_backend("hw-sim")
class HardwareSimBackend(Backend):
    """Cycle-approximate FPGA engine (4 copies × dual-ported filters, 8 n-grams/clock)."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        if config.hash_family != "h3":
            raise ValueError(
                "the hw-sim backend models the paper's H3 hash hardware; "
                f"hash_family={config.hash_family!r} is not supported"
            )
        self.engine = ParallelMultiLanguageClassifier(
            m_bits=config.m_bits,
            k=config.k,
            key_bits=config.key_bits,
            seed=config.seed,
        )

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        self.engine.load_profiles_fast(profiles)
        self.profiles = dict(profiles)

    def match_counts_batch(
        self, packed: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Stream each document's range through the simulated datapath on its own.

        The engine's match counters (and cycle accounting) are per document,
        exactly as in the hardware, which resets its counters between
        documents.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        out = np.zeros((len(lengths), len(self.languages)), dtype=np.int64)
        ranges = zip(np.asarray(starts).tolist(), np.asarray(lengths).tolist())
        for row, (start, length) in enumerate(ranges):
            report = self.engine.process_document(packed[start : start + length])
            out[row] = [report.match_counts[language] for language in self.languages]
        return out

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Functional per-n-gram membership from the RAM snapshots, one hash pass.

        Reads the first engine copy's bit-vector snapshots directly (every copy
        is programmed identically), so the result is bit-exact with the
        cycle-accurate datapath but skips the per-cycle simulation.  No cycles
        are accounted.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.zeros((len(self.languages), 0), dtype=bool)
        unit = self.engine.units[0]
        addresses = self.engine.hashes.hash_all(packed)
        out = np.empty((len(unit.engines), packed.size), dtype=bool)
        for row, engine in enumerate(unit.engines.values()):
            hits = np.ones(packed.size, dtype=bool)
            for i, vector in enumerate(engine.vectors):
                hits &= vector.snapshot()[addresses[i]]
            out[row] = hits
        return out

    def describe(self) -> dict:
        info = super().describe()
        info["ngrams_per_clock"] = self.engine.ngrams_per_clock
        info["copies"] = self.engine.copies
        return info


@register_backend("mguesser")
class MguesserBackend(_SortedTableBackend):
    """Mguesser-style frequency scoring over the packed n-gram pipeline.

    Each language weights its profile n-grams by normalised training
    frequency, rounded once, at fit, to fixed-point integers in units of
    ``1 / MGUESSER_SCORE_SCALE``.  An n-gram's score is its weight in each
    language (0 where the profile lacks it), read from the same sorted key
    table as ``exact``'s membership, and a document's score is the sum of
    its n-grams' scores (with multiplicity).  A weight is at most
    ``MGUESSER_SCORE_SCALE``, so the table and the score rows are ``int32``;
    every reduction of them sums in ``int64``.
    """

    def _scores(self, profile: LanguageProfile) -> np.ndarray:
        total = float(profile.counts.sum()) or 1.0
        return np.round(profile.counts / total * MGUESSER_SCORE_SCALE).astype(np.int32)

    def describe(self) -> dict:
        info = super().describe()
        info["score_scale"] = MGUESSER_SCORE_SCALE
        return info


@register_backend("hail")
class HailBackend(_MembershipBackend):
    """The competing HAIL design: one SRAM lookup per n-gram, language bitmaps."""

    #: log2 of the SRAM hash-table bucket count (the real board's SRAM is generous)
    TABLE_BITS = 20

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self.table = HailClassifier(table_bits=self.TABLE_BITS, n=config.n, seed=config.seed)

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        self.table.fit_profiles(profiles)
        self.profiles = dict(profiles)

    def _language_words(self, packed: np.ndarray) -> np.ndarray:
        """Each n-gram's SRAM word: bit ``i`` is its hit for language ``i``."""
        return self.table.lookup(packed)

    def describe(self) -> dict:
        info = super().describe()
        info["table_bits"] = self.TABLE_BITS
        info["table_fill_ratio"] = self.table.table_fill_ratio
        return info
