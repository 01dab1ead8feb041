"""Backend adapters: every classifier flavour behind the one :class:`Backend` contract.

Five engines are registered:

``bloom``
    The paper's design — per-language Parallel Bloom Filters
    (:class:`~repro.core.bloom.ParallelBloomFilter`) sharing one hash family.
    Persists its bit-vectors so a loaded model answers without re-programming,
    straight out of the mapped artifact.
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
    n-grams.  Scores are fixed-point integers (1e-6 units) so the backend shares
    the integer counter semantics of the hardware.
``hail``
    The competing HAIL design — a direct-lookup SRAM table with per-bucket
    language bitmaps (:class:`repro.baselines.hail.HailClassifier`).

All adapters consume the same per-language :class:`~repro.core.profile.LanguageProfile`
objects and classify a whole concatenated batch in ``match_counts_batch``.
``bloom``, ``exact`` and ``hail`` only supply per-n-gram membership
(``ngram_hits``); their per-document counts come from one shared reduction.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.api.config import ClassifierConfig
from repro.api.registry import Backend, register_backend
from repro.baselines.hail import HailClassifier
from repro.core.bloom import ParallelBloomFilter
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


class _MembershipBackend(Backend):
    """A backend whose per-n-gram scores are 0/1 profile-membership hits.

    Subclasses supply :meth:`ngram_hits`; a document's count for a language
    is the number of its n-grams that hit, which is one
    :func:`~repro.core.ngram.segment_sums` reduction per language over the
    whole batch's hit matrix.
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
        self.filters: dict[str, ParallelBloomFilter] = {}
        self._stacked_bits: np.ndarray | None = None

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        self.filters = {}
        for language, profile in profiles.items():
            filt = ParallelBloomFilter(
                m_bits=self.config.m_bits,
                k=self.config.k,
                key_bits=self.config.key_bits,
                hashes=self.hashes,
            )
            filt.add_many(profile.ngrams)
            self.filters[language] = filt
        self.profiles = dict(profiles)
        self._stacked_bits = None

    def _stacked_bit_vectors(self) -> np.ndarray:
        """All languages' bit-vectors as one ``(k, languages, m_bits)`` matrix.

        Gathering from the stacked matrix tests one hash function against every
        language in a single fancy-index, instead of one gather per (language,
        hash) pair.
        """
        if self._stacked_bits is None:
            self._stacked_bits = np.stack(
                [filt.bit_vectors for filt in self.filters.values()], axis=1
            )
        return self._stacked_bits

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Boolean ``(languages, n_ngrams)`` membership matrix, one hash pass.

        Each n-gram is hashed exactly once and the addresses are reused across
        every language's bit-vectors; chunking keeps the hash temporaries
        cache-resident.  This matrix is both the batch path's intermediate and
        the windowed segmentation scorer's input.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        n_languages = len(self.filters)
        if packed.size == 0:
            return np.zeros((n_languages, 0), dtype=bool)
        stacked = self._stacked_bit_vectors()
        hits = np.empty((n_languages, packed.size), dtype=bool)
        for start in range(0, packed.size, BATCH_CHUNK_NGRAMS):
            segment = packed[start : start + BATCH_CHUNK_NGRAMS]
            addresses = self.hashes.hash_all(segment)
            chunk_hits = stacked[0][:, addresses[0]]
            for i in range(1, self.config.k):
                chunk_hits &= stacked[i][:, addresses[i]]
            hits[:, start : start + segment.size] = chunk_hits
        return hits

    # -- persistence ---------------------------------------------------------

    def export_state(self) -> dict[str, np.ndarray]:
        """The unpacked stacked bit-vectors, ready to be mapped zero-copy.

        ``stacked_bits`` is the hot-path ``(k, languages, m_bits)`` matrix
        (one byte per bit) that :meth:`ngram_hits` gathers from, in
        training-language order; ``n_items`` carries each language's
        programmed-key count.  Stored unpacked precisely so a read-only
        mmap/shared-memory buffer can back the live filters with zero copies.
        """
        self._check_trained()
        stacked = self._stacked_bit_vectors()
        return {
            "stacked_bits": np.ascontiguousarray(stacked).view(np.uint8),
            "n_items": np.asarray(
                [filt.n_items for filt in self.filters.values()], dtype=np.int64
            ),
        }

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Adopt :meth:`export_state` arrays as live filter state, zero-copy.

        The stacked matrix becomes *the* batch-path gather target and each
        language's filter a ``(k, m_bits)`` view into it, so when the arrays
        are buffer-backed (mmap / shared memory) this backend owns no bit
        storage of its own — every replica process reads one physical copy.
        Incomplete or mismatched state falls back to a deterministic rebuild
        from the profiles.
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
        self._stacked_bits = bits
        self.profiles = dict(profiles)
        self.filters = {
            language: ParallelBloomFilter.from_arrays(
                bits[:, index, :], count, key_bits=self.config.key_bits, hashes=self.hashes
            )
            for index, (language, count) in enumerate(zip(profiles, n_items))
        }

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
        info["shared_bit_vectors"] = (
            self._stacked_bits is not None and not self._stacked_bits.flags.writeable
        )
        return info


@register_backend("exact")
class ExactBackend(_MembershipBackend):
    """Exact profile membership — the accuracy reference without false positives."""

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self._sorted_profiles: dict[str, np.ndarray] = {}

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        self._sorted_profiles = {
            language: np.sort(profile.ngrams) for language, profile in profiles.items()
        }
        self.profiles = dict(profiles)

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """One ``searchsorted`` per language over the sorted profile n-grams."""
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        hits = np.zeros((len(self._sorted_profiles), packed.size), dtype=bool)
        if packed.size == 0:
            return hits
        for row, sorted_ngrams in enumerate(self._sorted_profiles.values()):
            if sorted_ngrams.size:
                positions = np.searchsorted(sorted_ngrams, packed)
                np.clip(positions, 0, sorted_ngrams.size - 1, out=positions)
                hits[row] = sorted_ngrams[positions] == packed
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
        cycle-accurate datapath but skips the per-cycle simulation — without
        this override the generic fallback would run one full
        ``process_document`` simulation per n-gram.  No cycles are accounted.
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
class MguesserBackend(Backend):
    """Mguesser-style frequency scoring over the packed n-gram pipeline.

    Each language weights its profile n-grams by normalised training frequency;
    a document's score is the summed weight of its n-grams (with multiplicity),
    reported as fixed-point integers in units of ``1 / MGUESSER_SCORE_SCALE``.
    """

    def __init__(self, config: ClassifierConfig):
        super().__init__(config)
        self._sorted_ngrams: dict[str, np.ndarray] = {}
        self._weights: dict[str, np.ndarray] = {}

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        _require_profiles(profiles)
        self._sorted_ngrams = {}
        self._weights = {}
        for language, profile in profiles.items():
            order = np.argsort(profile.ngrams)
            total = float(profile.counts.sum()) or 1.0
            self._sorted_ngrams[language] = profile.ngrams[order]
            self._weights[language] = profile.counts[order].astype(np.float64) / total
        self.profiles = dict(profiles)

    def _weights_of(self, language: str, packed: np.ndarray) -> np.ndarray:
        sorted_ngrams = self._sorted_ngrams[language]
        weights = self._weights[language]
        positions = np.searchsorted(sorted_ngrams, packed)
        positions = np.clip(positions, 0, max(sorted_ngrams.size - 1, 0))
        if sorted_ngrams.size == 0:
            return np.zeros(packed.size, dtype=np.float64)
        member = sorted_ngrams[positions] == packed
        return np.where(member, weights[positions], 0.0)

    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        self._check_trained()
        lengths = np.asarray(lengths, dtype=np.int64)
        out = np.zeros((lengths.size, len(self.languages)), dtype=np.int64)
        if packed.size == 0:
            return out
        packed = np.asarray(packed, dtype=np.uint64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        for column, language in enumerate(self.languages):
            weights = self._weights_of(language, packed)
            # Sum each document's slice on its own, then round: a whole-batch
            # cumulative sum would make a document's fixed-point score depend
            # on the documents batched before it.
            for row in range(lengths.size):
                score = float(weights[starts[row] : ends[row]].sum())
                out[row, column] = int(round(score * MGUESSER_SCORE_SCALE))
        return out

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.zeros((len(self.languages), 0), dtype=np.int64)
        out = np.zeros((len(self.languages), packed.size), dtype=np.int64)
        for row, language in enumerate(self.languages):
            out[row] = np.round(
                self._weights_of(language, packed) * MGUESSER_SCORE_SCALE
            ).astype(np.int64)
        return out

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
