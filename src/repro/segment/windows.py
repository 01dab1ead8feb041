"""The vectorized windowed scorer: per-language hit counts over sliding windows.

The paper's classifier reduces a whole document to one match counter per
language.  Segmentation needs the same counters *per window*, and the naive
way — one ``classify`` call per window — re-hashes every n-gram once per
window it appears in (``window / stride`` times).  The scorer here is O(doc)
regardless of window count:

1. every n-gram is scored once against every language
   (:meth:`repro.api.registry.Backend.ngram_hits`, the same lookup the batch
   path counts; at n <= 4 the ``bloom`` backend reads each n-gram's
   language word from its key table, otherwise it hashes each n-gram once
   and gathers each hash function's addresses for every language at once);
2. the window starts and ends cut the n-gram axis into intervals at the
   window *edges*; one reduction sums every interval's hits (one per
   :data:`EDGE_BLOCK_NGRAMS` n-grams of a long document), and their
   running sum at the edges turns any window's count into two lookups:
   ``cumulative[edge of end] - cumulative[edge of start]``.

The resulting ``(n_windows, n_languages)`` count matrix feeds the Viterbi
decode (:func:`~repro.segment.smoothing.viterbi_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WindowScores", "WindowedScorer", "EDGE_BLOCK_NGRAMS"]

#: the most n-grams one window-edge reduction reads: it casts what it reads
#: to ``int64``, so this bounds that copy to 0.5 MB per language
EDGE_BLOCK_NGRAMS = 1 << 16


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
    edges:
        The sorted distinct window starts and ends, 0 and the document's
        n-gram count included.
    cumulative:
        ``(n_languages, edges.size)`` hit sums up to each edge: the count of
        language ``l`` over the n-grams ``[edges[i], edges[j])`` is
        ``cumulative[l, j] - cumulative[l, i]``.
    languages:
        Language order of the count columns (the backend's training order).
    """

    counts: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    edges: np.ndarray
    cumulative: np.ndarray
    languages: list[str]

    @property
    def n_windows(self) -> int:
        return int(self.starts.size)

    @property
    def n_ngrams(self) -> int:
        return int(self.edges[-1])

    @property
    def sizes(self) -> np.ndarray:
        """Per-window n-gram counts (the last window may be short)."""
        return self.ends - self.starts


def _edge_sums(hits: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """``int64`` hit sums of the intervals between consecutive ``edges``.

    ``np.add.reduceat`` first casts the hit columns it reads to ``int64``, so
    a long document is read in blocks of whole intervals that span at most
    :data:`EDGE_BLOCK_NGRAMS` n-grams (a longer interval alone).
    """
    if edges[-1] <= EDGE_BLOCK_NGRAMS:
        return np.add.reduceat(hits, edges[:-1], axis=1, dtype=np.int64)
    sums = np.empty((hits.shape[0], edges.size - 1), dtype=np.int64)
    first = 0
    while first < sums.shape[1]:
        last = max(first + 1, edges.searchsorted(edges[first] + EDGE_BLOCK_NGRAMS, "right") - 1)
        offsets = edges[first:last] - edges[first]
        block = hits[:, edges[first] : edges[last]]
        sums[:, first:last] = np.add.reduceat(block, offsets, axis=1, dtype=np.int64)
        first = last
    return sums


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
        the edge sums already paid for every n-gram).
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
        one ``np.add.reduceat`` of the hit rows over the window edges (one
        per :data:`EDGE_BLOCK_NGRAMS` n-grams of a longer document) —
        independent of how many windows overlap each n-gram.  Consecutive
        edges differ, so every interval it sums is non-empty; the running
        sum is then taken over the edges only, not over every n-gram.
        """
        packed = np.asarray(packed, dtype=np.uint64)
        hits = self.backend.ngram_hits(packed)
        n_languages, n_ngrams = hits.shape
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
        bounds = np.concatenate((starts, ends))
        # the sorted distinct bounds (a sort and a mask: np.unique costs twice
        # as much on these few values); starts[0] is 0 and ends[-1] is n, so
        # both are edges, and an empty document has the one edge 0
        edges = np.sort(bounds) if n_ngrams else np.zeros(1, dtype=np.int64)
        distinct = np.ones(edges.size, dtype=bool)
        np.not_equal(edges[1:], edges[:-1], out=distinct[1:])
        edges = edges[distinct]
        cumulative = np.zeros((n_languages, edges.size), dtype=np.int64)
        _edge_sums(hits, edges).cumsum(axis=1, out=cumulative[:, 1:])
        at_bounds = cumulative[:, edges.searchsorted(bounds)]
        counts = (at_bounds[:, starts.size :] - at_bounds[:, : starts.size]).T
        return WindowScores(
            counts=counts,
            starts=starts,
            ends=ends,
            edges=edges,
            cumulative=cumulative,
            languages=list(self.backend.languages),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"WindowedScorer(window_ngrams={self.window_ngrams}, "
            f"stride_ngrams={self.stride_ngrams})"
        )
