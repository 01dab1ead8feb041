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
objects and classify a whole concatenated batch in ``match_counts_batch``.
The four *table backends* — ``bloom``, ``exact``, ``hail`` and ``mguesser``,
whose per-n-gram answer is a lookup — share that kernel.  ``bloom`` (from
its key table, n <= 4), ``exact`` (a word column in its sorted table) and
``hail`` (its SRAM words) hand it one *language word* per n-gram, bit ``j``
= language ``j``.  Small spread tables, derived from the language count,
turn the words into *lanes*: ``int64`` values holding four 16-bit language
counters each, like the paper's bank of match counters stepping together.
One reduction per lane gives every document's counts.  ``mguesser``'s
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
FIELD_BITS = 16
#: most n-grams one counter counts; longer documents are reduced in pieces
FIELD_MAX = (1 << FIELD_BITS) - 1
#: counters per ``int64`` lane
LANE_FIELDS = 64 // FIELD_BITS
#: each counter's shift within its lane
FIELD_SHIFTS = np.arange(0, 64, FIELD_BITS)
#: languages per spread table, which has a column for every word of that many bits
SPREAD_GROUP_LANGUAGES = 16
SPREAD_GROUP_MASK = (1 << SPREAD_GROUP_LANGUAGES) - 1
#: n-grams per block of lanes: a block spans under twice this many, so its
#: lanes stay under 6.3 MB at ten languages however large the batch, while 64
#: long documents (~97 K n-grams) still count in one block
LANE_BLOCK_NGRAMS = 1 << 17


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
    every language's counter steps at once: :func:`_lane_counts` spreads the
    words through :attr:`_spread` into 16-bit counters packed four to an
    ``int64`` lane and reduces each lane once: up to 16 languages, one
    gather and ``ceil(languages / 4)`` reductions where unpacking and
    reducing one row per language took three calls per language.
    ``mguesser``'s ``int64`` weights and bloom's :meth:`~BloomBackend.probe`
    have no words; one :func:`~repro.core.ngram.segment_sums` call reduces
    their score rows.
    """

    #: :func:`_spread_tables` of the language count, set with the word source
    _spread: tuple[np.ndarray, ...] | None = None

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        lengths = np.asarray(lengths, dtype=np.int64)
        words = self._language_words(packed)
        if words is None:
            return segment_sums(self.ngram_hits(packed), lengths).T
        return _lane_counts(words, lengths, self._spread, len(self.profiles))

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

        One row at a time, through one scratch word array, so no
        ``(languages, N)`` word-sized temporary is ever built.
        """
        hits = np.empty((languages, words.size), dtype=bool)
        scratch = np.empty_like(words)
        for row in range(languages):
            np.bitwise_and(words, words.dtype.type(1 << row), out=scratch)
            np.not_equal(scratch, 0, out=hits[row])
        return hits


def _pack_rows(rows: np.ndarray) -> np.ndarray:
    """Words whose bit ``j`` is ``rows[j]``: the inverse of ``_unpack_words``."""
    dtype = np.min_scalar_type((1 << rows.shape[0]) - 1)
    words = np.zeros(rows.shape[1:], dtype=dtype)
    for bit, row in enumerate(rows):
        words |= row.astype(dtype) << dtype.type(bit)
    return words


def _spread_tables(languages: int) -> tuple[np.ndarray, ...]:
    """Tables that spread a language word into counter lanes.

    Languages go in groups of ``SPREAD_GROUP_LANGUAGES``; a group of ``g``
    languages has one ``(ceil(g / 4), 2 ** g)`` ``int64`` table whose column
    ``w`` holds bit ``j`` of the group's ``w`` in bit ``16 * (j % 4)`` of
    lane ``j // 4``.  Derived from the language count alone: 24 KB at ten
    languages, 2 MB per full group.
    """
    tables = []
    for first in range(0, languages, SPREAD_GROUP_LANGUAGES):
        group = min(SPREAD_GROUP_LANGUAGES, languages - first)
        lanes = -(-group // LANE_FIELDS)
        bits = np.arange(lanes * LANE_FIELDS)
        # a bit past the group's last language is zero in every word
        fields = (np.arange(1 << group, dtype=np.int64) >> bits[:, None]) & 1
        fields <<= FIELD_BITS * (bits % LANE_FIELDS)[:, None]
        table = fields.reshape(lanes, LANE_FIELDS, -1).sum(axis=1)
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _lane_counts(
    words: np.ndarray, lengths: np.ndarray, spread: tuple[np.ndarray, ...], languages: int
) -> np.ndarray:
    """``(documents, languages)`` counts of the set bits of each document's words.

    A document of more than ``FIELD_MAX`` n-grams is counted in pieces of at
    most ``FIELD_MAX``, whose counts are added, so no 16-bit counter
    overflows.  The pieces are counted in blocks: those that start in one
    stretch of ``LANE_BLOCK_NGRAMS`` n-grams, so a block's lanes hold fewer
    than twice that many n-grams however large the batch.
    """
    pieces = lengths
    split = lengths.size > 0 and int(lengths.max()) > FIELD_MAX
    if split:
        per_document = np.maximum(-(-lengths // FIELD_MAX), 1)
        last = np.cumsum(per_document) - 1
        pieces = np.full(last[-1] + 1, FIELD_MAX, dtype=np.int64)
        pieces[last] = lengths - FIELD_MAX * (per_document - 1)
    piece_bounds, word_bounds = [0, pieces.size], [0, words.size]
    if words.size > LANE_BLOCK_NGRAMS:
        starts = np.cumsum(pieces) - pieces
        cuts = np.flatnonzero(np.diff(starts // LANE_BLOCK_NGRAMS)) + 1
        piece_bounds[1:1] = cuts.tolist()
        word_bounds[1:1] = starts[cuts].tolist()
    counts = np.concatenate([
        _block_counts(words[start:end], pieces[first:stop], spread, languages)
        for first, stop, start, end in zip(
            piece_bounds, piece_bounds[1:], word_bounds, word_bounds[1:]
        )
    ])
    if split:
        counts = np.add.reduceat(counts, last + 1 - per_document, axis=0)
    return counts


def _block_counts(
    words: np.ndarray, pieces: np.ndarray, spread: tuple[np.ndarray, ...], languages: int
) -> np.ndarray:
    """``(pieces, languages)`` counts of one block, through counter lanes.

    One gather per spread table turns the words into ``int64`` lanes of four
    16-bit counters each, and one :func:`~repro.core.ngram.segment_sums`
    call reduces each lane once.  A lane's sum wraps, but exactly: no piece
    holds more than ``FIELD_MAX`` n-grams, so no carry crosses into the next
    counter.  The counters are split with a shift and a mask (not a
    ``uint16`` view, which would depend on byte order); an arithmetic shift
    differs from a logical one only above the mask.
    """
    lanes = np.empty((sum(table.shape[0] for table in spread), words.size), dtype=np.int64)
    row = 0
    for group, table in enumerate(spread):
        index = words
        if len(spread) > 1:
            index = (words >> (group * SPREAD_GROUP_LANGUAGES)) & SPREAD_GROUP_MASK
        # every index is in range; "clip" only spares np.take buffering ``out``
        np.take(table, index, axis=1, out=lanes[row : row + table.shape[0]], mode="clip")
        row += table.shape[0]
    sums = segment_sums(lanes, pieces)
    counts = (sums.T[:, :, None] >> FIELD_SHIFTS) & FIELD_MAX
    return counts.reshape(-1, LANE_FIELDS * lanes.shape[0])[:, :languages]


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

        The key table's words, unpacked one language row at a time, where
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
            # built into a local and published with one assignment, after the
            # spread tables: racing first calls at worst build it twice
            self._spread = _spread_tables(self.bits.shape[1])
            table = self._key_table = self._build_key_table()
        if packed.size and int(packed.max()) >> self.config.key_bits:
            raise ValueError(
                f"key does not fit in {self.config.key_bits} bits "
                f"(max value seen: {int(packed.max())})"
            )
        return np.take(table, packed)

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
            self._spread = _spread_tables(len(profiles))
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

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Stream each document through the simulated datapath on its own.

        The engine's match counters (and cycle accounting) are per document,
        exactly as in the hardware, which resets its counters between
        documents.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        lengths = np.asarray(lengths, dtype=np.int64)
        out = np.zeros((lengths.size, len(self.languages)), dtype=np.int64)
        ends = np.cumsum(lengths)
        for row, (start, end) in enumerate(zip(ends - lengths, ends)):
            report = self.engine.process_document(packed[start:end])
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
    its n-grams' scores (with multiplicity).
    """

    def _scores(self, profile: LanguageProfile) -> np.ndarray:
        total = float(profile.counts.sum()) or 1.0
        return np.round(profile.counts / total * MGUESSER_SCORE_SCALE).astype(np.int64)

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
        self._spread = _spread_tables(len(profiles))
        self.profiles = dict(profiles)

    def _language_words(self, packed: np.ndarray) -> np.ndarray:
        """Each n-gram's SRAM word: bit ``i`` is its hit for language ``i``."""
        return self.table.lookup(packed)

    def describe(self) -> dict:
        info = super().describe()
        info["table_bits"] = self.TABLE_BITS
        info["table_fill_ratio"] = self.table.table_fill_ratio
        return info
