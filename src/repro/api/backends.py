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
whose per-n-gram answer is a lookup — supply only integer per-n-gram scores
(``ngram_hits``); their per-document counts come from one shared reduction.
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


class _MembershipBackend(Backend):
    """A table backend: its per-n-gram answer is a lookup.

    Subclasses supply only :meth:`ngram_hits`, integer per-n-gram scores:
    0/1 hits for ``bloom``, ``exact`` and ``hail``, fixed-point weights for
    ``mguesser``.  A document's count for a language is the sum of its
    n-grams' scores — one :func:`~repro.core.ngram.segment_sums` reduction per
    language over the whole batch's score matrix — so summing ``ngram_hits``
    along the n-gram axis reproduces the document's counts exactly.
    """

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        lengths = np.asarray(lengths, dtype=np.int64)
        out = np.zeros((lengths.size, len(self.languages)), dtype=np.int64)
        if packed.size == 0:
            return out
        hits = self.ngram_hits(packed)
        for column in range(out.shape[1]):
            out[:, column] = segment_sums(hits[column], lengths)
        return out


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

        One key-table gather per n-gram where the table applies (see the
        class docstring), unpacked one language row at a time; otherwise
        :meth:`probe`.  Both give the same matrix, which is the batch path's
        intermediate and the windowed segmentation scorer's input.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        table = self._key_table
        if table is None:
            if (
                self.config.key_bits > KEY_TABLE_MAX_BITS
                or self.bits.shape[1] > KEY_TABLE_MAX_LANGUAGES
            ):
                return self.probe(packed)
            # built into a local and published with one assignment: racing
            # first calls at worst build it twice
            table = self._key_table = self._build_key_table()
        if packed.size and int(packed.max()) >> self.config.key_bits:
            raise ValueError(
                f"key does not fit in {self.config.key_bits} bits "
                f"(max value seen: {int(packed.max())})"
            )
        words = np.take(table, packed)
        hits = np.empty((self.bits.shape[1], packed.size), dtype=bool)
        scratch = np.empty_like(words)
        for row in range(hits.shape[0]):
            np.bitwise_and(words, table.dtype.type(1 << row), out=scratch)
            np.not_equal(scratch, 0, out=hits[row])
        return hits

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
        k, languages, m_bits = self.bits.shape
        dtype = np.min_scalar_type((1 << languages) - 1)
        # cell a of vector i as one word whose bit j is bits[i, j, a]
        cells = np.zeros((k, m_bits), dtype=dtype)
        for row in range(languages):
            cells |= self.bits[:, row].astype(dtype) << dtype.type(row)
        table = np.empty(1 << self.config.key_bits, dtype=dtype)
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
        mmap/shared-memory buffer can back the live bits with zero copies.
        """
        self._check_trained()
        return {"stacked_bits": self.bits.view(np.uint8), "n_items": self.n_items}

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Adopt :meth:`export_state` arrays as the bit store, zero-copy.

        The stacked matrix becomes a read-only view that :meth:`ngram_hits`
        gathers from, so when the arrays are buffer-backed (mmap / shared
        memory) this backend owns no bit storage of its own — every replica
        process reads one physical copy.  Incomplete or mismatched state
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


def _profile_positions(sorted_ngrams: np.ndarray, packed: np.ndarray):
    """Look ``packed`` up in one language's sorted, non-empty profile n-grams.

    Returns ``(positions, member)``: ``member`` marks the n-grams the profile
    holds, and for those ``sorted_ngrams[positions] == packed``.
    """
    positions = np.searchsorted(sorted_ngrams, packed)
    np.clip(positions, 0, sorted_ngrams.size - 1, out=positions)
    return positions, sorted_ngrams[positions] == packed


@register_backend("exact")
class ExactBackend(_MembershipBackend):
    """Exact profile membership — the accuracy reference without false positives."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self._sorted_profiles: list[np.ndarray] = []

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        self._sorted_profiles = [np.sort(profile.ngrams) for profile in profiles.values()]
        self.profiles = dict(profiles)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """One ``searchsorted`` per language over the sorted profile n-grams."""
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        hits = np.zeros((len(self._sorted_profiles), packed.size), dtype=bool)
        for row, sorted_ngrams in enumerate(self._sorted_profiles):
            if sorted_ngrams.size:
                hits[row] = _profile_positions(sorted_ngrams, packed)[1]
        return hits


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
class MguesserBackend(_MembershipBackend):
    """Mguesser-style frequency scoring over the packed n-gram pipeline.

    Each language weights its profile n-grams by normalised training
    frequency, rounded once, at fit, to fixed-point integers in units of
    ``1 / MGUESSER_SCORE_SCALE``.  An n-gram's score is its weight in each
    language (0 where the profile lacks it, found by exact's sorted-profile
    lookup), and a document's score is the sum of its n-grams' scores (with
    multiplicity).
    """

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self._sorted_profiles: list[np.ndarray] = []
        self._weights: list[np.ndarray] = []

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        self._sorted_profiles = []
        self._weights = []
        for profile in profiles.values():
            order = np.argsort(profile.ngrams)
            total = float(profile.counts.sum()) or 1.0
            frequencies = profile.counts[order].astype(np.float64) / total
            self._sorted_profiles.append(profile.ngrams[order])
            self._weights.append(np.round(frequencies * MGUESSER_SCORE_SCALE).astype(np.int64))
        self.profiles = dict(profiles)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Each n-gram's fixed-point weight in every language's profile."""
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        scores = np.zeros((len(self._weights), packed.size), dtype=np.int64)
        for row, (sorted_ngrams, weights) in enumerate(zip(self._sorted_profiles, self._weights)):
            if sorted_ngrams.size:
                positions, member = _profile_positions(sorted_ngrams, packed)
                scores[row] = np.where(member, weights[positions], 0)
        return scores

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

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Bit ``i`` of each n-gram's table word is its hit for language ``i``."""
        self._check_trained()
        bitmaps = self.table.lookup(packed)
        shifts = np.arange(len(self.languages), dtype=np.uint64)[:, None]
        return ((bitmaps >> shifts) & np.uint64(1)).astype(bool)

    def describe(self) -> dict:
        info = super().describe()
        info["table_bits"] = self.TABLE_BITS
        info["table_fill_ratio"] = self.table.table_fill_ratio
        return info
