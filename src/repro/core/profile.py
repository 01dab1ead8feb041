"""Language profiles: the top-*t* most frequent n-grams of a language's training set.

Section 2 (HAIL preprocessing) and Section 4 of the paper: *"We use the top
t = 5,000 most frequently occurring n-grams from a language training set to generate
a profile."*  Profiles are what gets programmed into the per-language Bloom filters.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.ngram import (
    DEFAULT_N,
    NGramExtractor,
    gather_ranges,
    ngram_to_string,
    top_ngrams,
    top_ngrams_from_counts,
)

__all__ = ["LanguageProfile", "build_profiles", "DEFAULT_PROFILE_SIZE"]

#: profile size used throughout the paper
DEFAULT_PROFILE_SIZE = 5000


@dataclass
class LanguageProfile:
    """The n-gram profile of one language.

    Attributes
    ----------
    language:
        Language code or name this profile represents.
    ngrams:
        Packed n-gram values ordered by decreasing training-set frequency
        (ties broken by ascending value).
    counts:
        Training-set occurrence count for each entry of ``ngrams``.
    n:
        N-gram order the profile was built with.
    t:
        Requested profile size (the arrays may be shorter if the training data
        contained fewer distinct n-grams).
    """

    language: str
    ngrams: np.ndarray
    counts: np.ndarray
    n: int = DEFAULT_N
    t: int = DEFAULT_PROFILE_SIZE
    _ngram_set: frozenset = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.ngrams = np.asarray(self.ngrams, dtype=np.uint64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.ngrams.shape != self.counts.shape:
            raise ValueError("ngrams and counts must have the same length")
        ordered = np.sort(self.ngrams)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("profile n-grams must be distinct")

    # ------------------------------------------------------------ constructors

    @classmethod
    def from_packed(
        cls,
        language: str,
        packed: np.ndarray,
        n: int = DEFAULT_N,
        t: int = DEFAULT_PROFILE_SIZE,
    ) -> "LanguageProfile":
        """Build a profile from a stream of packed n-grams (training text already extracted)."""
        values, counts = top_ngrams(packed, t)
        return cls(language=language, ngrams=values, counts=counts, n=n, t=t)

    @classmethod
    def from_counts(
        cls,
        language: str,
        values: np.ndarray,
        counts: np.ndarray,
        n: int = DEFAULT_N,
        t: int = DEFAULT_PROFILE_SIZE,
    ) -> "LanguageProfile":
        """Build a profile from an already-counted ``(values, counts)`` table.

        The entry point for streaming/out-of-core training: the bounded
        accumulator hands over its merged count table (in any order) and this
        applies the canonical top-``t`` selection with the same deterministic
        tie-breaking as :meth:`from_packed`.
        """
        top_values, top_counts = top_ngrams_from_counts(values, counts, t)
        return cls(language=language, ngrams=top_values, counts=top_counts, n=n, t=t)

    @classmethod
    def from_documents(
        cls,
        language: str,
        texts: Iterable[str],
        n: int = DEFAULT_N,
        t: int = DEFAULT_PROFILE_SIZE,
    ) -> "LanguageProfile":
        """Build a profile from raw training documents: every n-gram of every document.

        Only each document's own range of the batch stream is counted, not
        the windows that cross a boundary between two documents.
        """
        packed, starts, lengths = NGramExtractor(n=n).extract_batch(texts)
        # rebound, so the stream is freed before the n-grams are counted
        packed = gather_ranges(packed, starts, lengths, 1)
        return cls.from_packed(language, packed, n=n, t=t)

    # ------------------------------------------------------------ queries

    def __len__(self) -> int:
        return int(self.ngrams.size)

    def __contains__(self, ngram: int) -> bool:
        return int(ngram) in self._as_set()

    def _as_set(self) -> frozenset:
        if self._ngram_set is None:
            object.__setattr__(self, "_ngram_set", frozenset(int(v) for v in self.ngrams))
        return self._ngram_set

    def contains_many(self, packed: np.ndarray) -> np.ndarray:
        """Exact membership of each packed n-gram in the profile (no false positives).

        This is the ground-truth membership used to measure the Bloom filters'
        realised false-positive rates.  The ``exact`` backend does not call it:
        it looks every language up at once in its own sorted key table.
        """
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.empty(0, dtype=bool)
        return np.isin(packed, self.ngrams)

    def rank_of(self, ngram: int) -> int:
        """0-based frequency rank of ``ngram`` in this profile; raises ``KeyError`` if absent."""
        matches = np.nonzero(self.ngrams == np.uint64(ngram))[0]
        if matches.size == 0:
            raise KeyError(f"n-gram {ngram} not in profile {self.language!r}")
        return int(matches[0])

    def top(self, count: int) -> "LanguageProfile":
        """A new profile restricted to the ``count`` most frequent n-grams."""
        if count <= 0:
            raise ValueError("count must be positive")
        return LanguageProfile(
            language=self.language,
            ngrams=self.ngrams[:count].copy(),
            counts=self.counts[:count].copy(),
            n=self.n,
            t=min(count, self.t),
        )

    def readable_ngrams(self, count: int = 10) -> list[str]:
        """Human-readable rendering of the most frequent n-grams (debugging/reporting)."""
        return [ngram_to_string(int(v), n=self.n) for v in self.ngrams[:count]]

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> dict:
        """Plain-Python serialisation (e.g. for JSON dumping in the CLI)."""
        return {
            "language": self.language,
            "n": self.n,
            "t": self.t,
            "ngrams": [int(v) for v in self.ngrams],
            "counts": [int(c) for c in self.counts],
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "LanguageProfile":
        """Inverse of :meth:`to_dict`."""
        return cls(
            language=str(payload["language"]),
            ngrams=np.asarray(payload["ngrams"], dtype=np.uint64),
            counts=np.asarray(payload["counts"], dtype=np.int64),
            n=int(payload["n"]),
            t=int(payload["t"]),
        )


def build_profiles(
    training_texts: Mapping[str, Iterable[str]],
    n: int = DEFAULT_N,
    t: int = DEFAULT_PROFILE_SIZE,
) -> dict[str, LanguageProfile]:
    """Build profiles for several languages.

    Parameters
    ----------
    training_texts:
        Mapping from language code to an iterable of training documents.
    n, t:
        Profile parameters; see :class:`LanguageProfile`.
    """
    return {
        language: LanguageProfile.from_documents(language, texts, n=n, t=t)
        for language, texts in training_texts.items()
    }
