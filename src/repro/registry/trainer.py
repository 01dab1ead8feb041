"""Out-of-core streaming training: constant-memory profile building.

Batch training (:meth:`LanguageIdentifier.train`) concatenates every packed
n-gram of the corpus before counting — memory grows linearly with corpus
size, which caps training at whatever fits in RAM.  The paper's ambition
marker (Infini-gram / KiloGrams in PAPERS.md) is corpora orders of magnitude
larger, so the :class:`StreamingTrainer` folds a *document iterator* into
per-language profiles with bounded memory:

* documents are extracted into per-language n-gram buffers that flush into a
  :class:`TopKAccumulator` every ``chunk_ngrams`` n-grams, so the raw stream
  never accumulates;
* each accumulator keeps a merged ``(values, counts)`` table bounded at
  ``capacity`` entries — when a merge overflows, the lowest-count entries are
  pruned (KiloGrams-style bounded accumulation).  With
  ``capacity >= distinct n-grams`` the result is *exactly* the batch-training
  profile; below that it is an approximation whose worst case is bounded by
  the largest pruned count, which the accumulator tracks
  (:attr:`TopKAccumulator.max_pruned_count`) so the error bound is observable
  rather than assumed;
* :meth:`StreamingTrainer.build` materialises a trained
  :class:`~repro.api.identifier.LanguageIdentifier` from the accumulator
  state at any point, and :meth:`StreamingTrainer.extend` keeps folding new
  documents into the *same* accumulators afterwards — the incremental-update
  path that produces child versions in the model registry.

The peak working set is ``O(languages x capacity + chunk_ngrams)`` no matter
how many documents stream through, which is what the
``benchmarks/test_registry.py`` memory gate asserts.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.api.config import ClassifierConfig
from repro.core.ngram import (
    NGramExtractor,
    count_ngrams,
    merge_ngram_counts,
    top_ngrams_from_counts,
)
from repro.core.profile import LanguageProfile

__all__ = ["StreamingTrainer", "TopKAccumulator", "DEFAULT_CAPACITY_FACTOR"]

#: default accumulator capacity as a multiple of the profile size ``t``; the
#: 8x headroom keeps mid-frequency n-grams alive across prunes so the top-t
#: selection matches batch training on realistic (Zipf-ish) distributions
DEFAULT_CAPACITY_FACTOR = 8

#: default n-gram count that triggers a buffer -> accumulator flush
DEFAULT_CHUNK_NGRAMS = 1 << 18


class TopKAccumulator:
    """Bounded merged count table over an unbounded n-gram stream.

    ``update`` folds a chunk of packed n-grams in; the table never exceeds
    ``capacity`` distinct entries.  Pruning keeps the highest-count entries
    (ties broken by ascending value, matching :func:`repro.core.ngram.top_ngrams`)
    and records what was dropped: ``pruned_mass`` (total discarded count) and
    ``max_pruned_count`` (the largest single discarded count — an upper bound
    on how much any surviving or future entry's count may be understated).
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.values = np.empty(0, dtype=np.uint64)
        self.counts = np.empty(0, dtype=np.int64)
        self.ngrams_total = 0
        self.pruned_mass = 0
        self.max_pruned_count = 0

    def __len__(self) -> int:
        return int(self.values.size)

    def update(self, packed: np.ndarray) -> None:
        """Fold one chunk of packed n-grams into the bounded table."""
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return
        self.ngrams_total += int(packed.size)
        chunk_values, chunk_counts = count_ngrams(packed)
        self.merge_counts(chunk_values, chunk_counts)

    def merge_counts(self, values: np.ndarray, counts: np.ndarray) -> None:
        """Fold an already-counted distinct-value table into the accumulator."""
        self.values, self.counts = merge_ngram_counts(
            self.values, self.counts, values, counts
        )
        if self.values.size > self.capacity:
            keep_values, keep_counts = top_ngrams_from_counts(
                self.values, self.counts, self.capacity
            )
            dropped = int(self.counts.sum() - keep_counts.sum())
            self.pruned_mass += dropped
            if keep_counts.size:
                # every pruned count is <= the smallest surviving count
                self.max_pruned_count = max(self.max_pruned_count, int(keep_counts[-1]))
            # store sorted by value so future merges see canonical order
            order = np.argsort(keep_values)
            self.values = keep_values[order]
            self.counts = keep_counts[order]

    def top(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """The current top-``t`` table (decreasing count, ties ascending value)."""
        return top_ngrams_from_counts(self.values, self.counts, t)

    def stats(self) -> dict:
        """Accumulator telemetry (recorded in registry manifests)."""
        return {
            "entries": len(self),
            "capacity": self.capacity,
            "ngrams_total": self.ngrams_total,
            "pruned_mass": self.pruned_mass,
            "max_pruned_count": self.max_pruned_count,
        }


def _as_pairs(stream) -> Iterator[tuple[str, str]]:
    """Normalise a document stream to ``(language, text)`` pairs.

    Accepts :class:`~repro.corpus.corpus.Document`-shaped objects (anything
    with ``language``/``text`` attributes, including a whole ``Corpus``) or
    plain ``(language, text)`` tuples.
    """
    for item in stream:
        language = getattr(item, "language", None)
        if language is not None:
            yield str(language), item.text
        else:
            language, text = item
            yield str(language), text


class StreamingTrainer:
    """Constant-memory trainer over document streams, with incremental update.

    Parameters
    ----------
    config:
        The :class:`~repro.api.config.ClassifierConfig` of the model being
        trained (same defaults as :class:`~repro.api.identifier.LanguageIdentifier`).
    capacity:
        Distinct-n-gram bound per language accumulator; defaults to
        ``DEFAULT_CAPACITY_FACTOR * config.t``.
    chunk_ngrams:
        Buffered n-grams per language before a flush into the accumulator.
    **overrides:
        Convenience config-field overrides, e.g. ``StreamingTrainer(t=2000)``.
    """

    def __init__(
        self,
        config: ClassifierConfig | None = None,
        capacity: int | None = None,
        chunk_ngrams: int = DEFAULT_CHUNK_NGRAMS,
        **overrides,
    ):
        if config is None:
            config = ClassifierConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        if capacity is None:
            capacity = DEFAULT_CAPACITY_FACTOR * config.t
        if capacity < config.t:
            raise ValueError(
                f"capacity {capacity} is smaller than the profile size t={config.t}"
            )
        if chunk_ngrams <= 0:
            raise ValueError("chunk_ngrams must be positive")
        self.config = config
        self.capacity = int(capacity)
        self.chunk_ngrams = int(chunk_ngrams)
        self.extractor = NGramExtractor(n=config.n, subsample_stride=config.subsample_stride)
        self._accumulators: dict[str, TopKAccumulator] = {}
        self._buffers: dict[str, list[np.ndarray]] = {}
        self._buffered: dict[str, int] = {}
        self._documents: dict[str, int] = {}
        self._bytes: dict[str, int] = {}

    # ------------------------------------------------------------ seeding

    @classmethod
    def resume(
        cls,
        identifier,
        capacity: int | None = None,
        chunk_ngrams: int = DEFAULT_CHUNK_NGRAMS,
    ) -> "StreamingTrainer":
        """Seed a trainer from a trained identifier's profiles.

        The published profiles only retain each language's top-``t`` table, so
        a resumed trainer continues from that truncated view — counts below
        the original cut-off are gone.  That is the registry's incremental
        contract: a child version extends the parent's *profile*, it does not
        replay the parent's corpus.
        """
        trainer = cls(identifier.config, capacity=capacity, chunk_ngrams=chunk_ngrams)
        for language, profile in identifier.profiles.items():
            accumulator = trainer._accumulator(language)
            order = np.argsort(profile.ngrams)
            accumulator.merge_counts(profile.ngrams[order], profile.counts[order])
            accumulator.ngrams_total += int(profile.counts.sum())
        return trainer

    # ------------------------------------------------------------ feeding

    def _accumulator(self, language: str) -> TopKAccumulator:
        accumulator = self._accumulators.get(language)
        if accumulator is None:
            accumulator = self._accumulators[language] = TopKAccumulator(self.capacity)
            self._buffers[language] = []
            self._buffered[language] = 0
            self._documents[language] = 0
            self._bytes[language] = 0
        return accumulator

    def _flush(self, language: str) -> None:
        parts = self._buffers[language]
        if not parts:
            return
        packed = parts[0] if len(parts) == 1 else np.concatenate(parts)
        self._buffers[language] = []
        self._buffered[language] = 0
        self._accumulators[language].update(packed)

    def feed_text(self, language: str, text: str | bytes) -> None:
        """Fold one document into the given language's accumulator."""
        self._accumulator(language)
        packed = self.extractor.extract(text)
        self._documents[language] += 1
        self._bytes[language] += (
            len(text) if isinstance(text, (bytes, bytearray)) else len(text.encode("utf-8"))
        )
        if packed.size:
            self._buffers[language].append(packed)
            self._buffered[language] += int(packed.size)
            if self._buffered[language] >= self.chunk_ngrams:
                self._flush(language)

    def feed(self, documents: Iterable) -> "StreamingTrainer":
        """Stream documents through the trainer (constant memory).

        ``documents`` is any iterable of :class:`~repro.corpus.corpus.Document`
        objects (or a whole ``Corpus``) or ``(language, text)`` pairs; it is
        consumed lazily, one document at a time.
        """
        for language, text in _as_pairs(documents):
            self.feed_text(language, text)
        return self

    # ------------------------------------------------------------ building

    @property
    def languages(self) -> list[str]:
        """Languages seen so far, in first-seen order."""
        return list(self._accumulators)

    def profiles(self) -> dict[str, LanguageProfile]:
        """Current per-language top-``t`` profiles (flushes pending buffers)."""
        out: dict[str, LanguageProfile] = {}
        for language in self._accumulators:
            self._flush(language)
            values, counts = self._accumulators[language].top(self.config.t)
            out[language] = LanguageProfile.from_counts(
                language, values, counts, n=self.config.n, t=self.config.t
            )
        return out

    def build(self):
        """Materialise a trained identifier from the current accumulator state.

        Can be called repeatedly: each call reflects everything fed so far,
        and feeding may continue afterwards (the incremental-update loop).
        """
        from repro.api.identifier import LanguageIdentifier

        profiles = self.profiles()
        if not profiles:
            raise RuntimeError("no documents have been fed; stream a corpus first")
        return LanguageIdentifier(self.config).train_profiles(profiles)

    def extend(self, documents: Iterable):
        """Fold more documents in and return the updated identifier.

        The incremental-update step of the model lifecycle: ``extend`` on a
        trainer whose previous :meth:`build` was published produces the model
        for the *child* version (``registry.publish(child, parent=v)``).
        """
        return self.feed(documents).build()

    def stats(self) -> dict:
        """Training-corpus statistics for the registry manifest."""
        for language in self._accumulators:
            self._flush(language)
        return {
            "documents": sum(self._documents.values()),
            "bytes": sum(self._bytes.values()),
            "capacity": self.capacity,
            "chunk_ngrams": self.chunk_ngrams,
            "languages": {
                language: {
                    "documents": self._documents[language],
                    "bytes": self._bytes[language],
                    **self._accumulators[language].stats(),
                }
                for language in self._accumulators
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StreamingTrainer(languages={len(self._accumulators)}, "
            f"capacity={self.capacity}, chunk_ngrams={self.chunk_ngrams})"
        )
