"""The vectorized windowed scorer: per-language hit counts over sliding windows.

The paper's classifier reduces a whole document to one match counter per
language.  Segmentation needs the same counters *per window*, and the naive
way — one ``classify`` call per window — re-hashes every n-gram once per
window it appears in (``window / stride`` times).  The scorer here is O(doc)
regardless of window count:

1. every n-gram is scored once against every language
   (:meth:`repro.api.registry.Backend.ngram_hits`, the same probe the batch
   path reduces; at n <= 4 the ``bloom`` backend reads each n-gram's
   language word from its key table, otherwise it hashes each n-gram once
   and gathers each hash function's addresses for every language at once);
2. a per-language cumulative sum over the n-gram axis turns any window's hit
   count into two lookups: ``cum[end] - cum[start]``.

The resulting ``(n_windows, n_languages)`` count matrix feeds the smoothing
pass (:mod:`repro.segment.smoothing`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WindowScores", "WindowedScorer"]


@dataclass
class WindowScores:
    """Sliding-window score matrix for one document.

    Attributes
    ----------
    counts:
        ``(n_windows, n_languages)`` integer matrix of per-window hit counts
        (fixed-point scores for the scoring backends).
    starts, ends:
        Per-window half-open n-gram ranges ``[starts[w], ends[w])``; windows
        advance by the scorer's stride, and the final window is clipped to the
        document's n-gram count.
    cumulative:
        ``(n_languages, n_ngrams + 1)`` cumulative hit sums: the count of
        language ``l`` over any n-gram range ``[a, b)`` is
        ``cumulative[l, b] - cumulative[l, a]``.
    languages:
        Language order of the count columns (the backend's training order).
    """

    counts: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    cumulative: np.ndarray
    languages: list[str]

    @property
    def n_windows(self) -> int:
        return int(self.starts.size)

    @property
    def n_ngrams(self) -> int:
        return int(self.cumulative.shape[1] - 1)

    @property
    def sizes(self) -> np.ndarray:
        """Per-window n-gram counts (the last window may be short)."""
        return self.ends - self.starts

    def range_counts(self, start: int, end: int) -> np.ndarray:
        """Per-language counts over the n-gram range ``[start, end)`` — O(languages)."""
        return self.cumulative[:, end] - self.cumulative[:, start]


class WindowedScorer:
    """Scores sliding windows of a packed n-gram stream against every language.

    Parameters
    ----------
    backend:
        A trained :class:`~repro.api.registry.Backend`; only its
        :meth:`~repro.api.registry.Backend.ngram_hits` primitive is used.
    window_ngrams:
        Window length in n-grams.  With the paper's 4-grams a window of 160
        n-grams covers ~163 characters — roughly a sentence.
    stride_ngrams:
        Distance between consecutive window starts.  A stride below the window
        length overlaps windows (finer boundaries at no extra hashing cost —
        the cumulative sum already paid for every n-gram).
    """

    def __init__(self, backend, window_ngrams: int = 160, stride_ngrams: int | None = None):
        if window_ngrams <= 0:
            raise ValueError("window_ngrams must be positive")
        if stride_ngrams is None:
            stride_ngrams = max(1, window_ngrams // 4)
        if stride_ngrams <= 0:
            raise ValueError("stride_ngrams must be positive")
        if stride_ngrams > window_ngrams:
            raise ValueError(
                "stride_ngrams beyond window_ngrams would leave unscored gaps "
                f"(stride={stride_ngrams}, window={window_ngrams})"
            )
        self.backend = backend
        self.window_ngrams = int(window_ngrams)
        self.stride_ngrams = int(stride_ngrams)

    def score(self, packed: np.ndarray) -> WindowScores:
        """Score every sliding window of a packed n-gram stream.

        Cost is one :meth:`~repro.api.registry.Backend.ngram_hits` pass plus
        one cumulative sum — independent of how many windows overlap each
        n-gram.
        """
        packed = np.asarray(packed, dtype=np.uint64)
        hits = self.backend.ngram_hits(packed)
        n_languages, n_ngrams = hits.shape
        cumulative = np.zeros((n_languages, n_ngrams + 1), dtype=np.int64)
        np.cumsum(hits, axis=1, dtype=np.int64, out=cumulative[:, 1:])
        if n_ngrams == 0:
            starts = np.empty(0, dtype=np.int64)
        else:
            # Always at least one window; stride multiples, plus a final
            # full-length window flush with the document end when the last
            # multiple would leave a sub-stride tail of n-grams unscored.
            starts = np.arange(
                0, max(n_ngrams - self.window_ngrams, 0) + 1, self.stride_ngrams, dtype=np.int64
            )
            tail_start = max(n_ngrams - self.window_ngrams, 0)
            if tail_start > starts[-1]:
                starts = np.append(starts, tail_start)
        ends = np.minimum(starts + self.window_ngrams, n_ngrams)
        counts = (cumulative[:, ends] - cumulative[:, starts]).T
        return WindowScores(
            counts=counts,
            starts=starts,
            ends=ends,
            cumulative=cumulative,
            languages=list(self.backend.languages),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WindowedScorer(window_ngrams={self.window_ngrams}, "
            f"stride_ngrams={self.stride_ngrams})"
        )
