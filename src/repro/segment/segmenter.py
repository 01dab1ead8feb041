"""The `Segmenter`: windowed scoring + Viterbi decoding + run merging, one call.

Pipeline for one document (:meth:`Segmenter.segment`):

1. extract packed n-grams once (the identifier's configured pipeline);
2. score sliding windows from hit sums at the window edges
   (:class:`~repro.segment.windows.WindowedScorer` — O(doc) however many
   windows overlap);
3. decode the per-window counts into stable label runs
   (:func:`~repro.segment.smoothing.viterbi_labels`, the only decoder);
4. merge runs into :class:`~repro.segment.types.Span` objects with character
   offsets and per-span confidences.

Degenerate documents stay consistent with ``classify``: a document whose
decoded labels never switch comes back as exactly one span whose language is
the argmax of the *total* per-language counts — for the membership backends
that is precisely the label ``classify`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.classifier import UNDETERMINED_LANGUAGE, normalized_separation
from repro.segment.smoothing import viterbi_labels
from repro.segment.types import SegmentationResult, Span
from repro.segment.windows import WindowedScorer

__all__ = ["SegmenterConfig", "Segmenter"]


@dataclass(frozen=True)
class SegmenterConfig:
    """Settings of one :class:`Segmenter`.

    Attributes
    ----------
    window_ngrams:
        Sliding-window length in n-grams (~characters for 4-grams).
    stride_ngrams:
        Window start spacing; ``None`` means ``window_ngrams // 4``
        (overlapping windows — finer boundaries at no extra hashing cost).
    switch_penalty:
        Viterbi cost of one language change, in units of one window's
        normalized emission mass; ``0`` follows the per-window argmax (where
        no two languages tie), ``inf`` never switches, NaN is rejected.
    """

    window_ngrams: int = 160
    stride_ngrams: int | None = None
    switch_penalty: float = 0.35

    def __post_init__(self) -> None:
        if self.window_ngrams <= 0:
            raise ValueError("window_ngrams must be positive")
        if self.stride_ngrams is not None and self.stride_ngrams <= 0:
            raise ValueError("stride_ngrams must be positive")
        if not self.switch_penalty >= 0:  # NaN too: it would never switch
            raise ValueError("switch_penalty must be non-negative")


class Segmenter:
    """Labels spans of mixed-language documents against a trained identifier.

    Parameters
    ----------
    identifier:
        A trained :class:`~repro.api.identifier.LanguageIdentifier`.  Any
        backend works (the scorer only needs
        :meth:`~repro.api.registry.Backend.ngram_hits`); ``bloom`` and
        ``exact`` have fully vectorized hit paths.
    config:
        The :class:`SegmenterConfig` (``None``: the defaults, which
        :meth:`~repro.api.identifier.LanguageIdentifier.segment` runs).
    """

    def __init__(self, identifier, config: SegmenterConfig | None = None):
        if config is None:
            config = SegmenterConfig()
        if not identifier.is_trained:
            raise RuntimeError("identifier has not been trained; call train() first")
        # the extractor and backend, not the identifier: the identifier caches
        # its default segmenter, and a reference back would make a cycle that
        # keeps a dropped identifier (and its mapped model file) alive until
        # the next full garbage collection
        self.extractor = identifier.extractor
        self.config = config
        self.scorer = WindowedScorer(
            identifier.backend,
            window_ngrams=config.window_ngrams,
            stride_ngrams=config.stride_ngrams,
        )

    # ------------------------------------------------------------ segmentation

    def segment(self, text: str | bytes) -> SegmentationResult:
        """Segment one document into contiguous single-language spans."""
        text_length = len(text)
        packed = self.extractor.extract(text)
        scores = self.scorer.score(packed)
        if scores.n_windows == 0:
            # Too short for a single n-gram: no evidence, so label the whole
            # document "und" the way classify labels zero-n-gram documents.
            if text_length == 0:
                return SegmentationResult(spans=[], text_length=0, ngram_count=0, window_count=0)
            language = UNDETERMINED_LANGUAGE
            return SegmentationResult(
                spans=[Span(0, text_length, language, 0.0)],
                text_length=text_length,
                ngram_count=int(packed.size),
                window_count=0,
            )
        labels = viterbi_labels(scores.counts, switch_penalty=self.config.switch_penalty)
        spans = self._merge_runs(labels, scores, text_length)
        return SegmentationResult(
            spans=spans,
            text_length=text_length,
            ngram_count=int(packed.size),
            window_count=scores.n_windows,
        )

    # ------------------------------------------------------------ internals

    def _merge_runs(self, labels, scores, text_length: int) -> list[Span]:
        """Merge consecutive same-label windows into character-offset spans.

        Window ``w`` owns the n-grams ``[starts[w], starts[w+1])`` (the last
        window owns the tail), so runs of equal labels own contiguous n-gram
        ranges; n-gram ``i`` begins at character ``i * subsample_stride``.
        Spans tile the document: the first starts at 0, each run boundary cuts
        at the first n-gram of the new run, and the last span ends at the
        document length.  The run boundaries are found in the label list.
        Every cut is a window start, and so one of ``scores.edges``: one
        gather of the edge sums ``scores.cumulative`` gives every run's
        per-language counts, and the spans are built from lists, so the
        NumPy calls do not grow with the number of runs.
        """
        labels = labels.tolist()
        # the first window of every run but the first
        firsts = [w for w in range(1, len(labels)) if labels[w] != labels[w - 1]]
        starts = scores.starts.tolist()
        cuts = [starts[w] for w in firsts]
        columns = scores.edges.searchsorted([0, *cuts, scores.n_ngrams])
        sums = scores.cumulative[:, columns].T.tolist()
        run_counts = [[b - a for a, b in zip(low, high)] for low, high in zip(sums, sums[1:])]
        if len(run_counts) == 1:
            # Degenerate document: label from the total counts so the single
            # span agrees with classify() bit for bit.
            counts = run_counts[0]
            run_labels = [counts.index(max(counts)) if counts else 0]
        else:
            run_labels = [labels[0], *(labels[w] for w in firsts)]
        stride = self.extractor.subsample_stride
        char_edges = [0, *(cut * stride for cut in cuts), text_length]
        languages = scores.languages
        return [
            Span(start, end, languages[label], _margin_confidence(counts, label))
            for start, end, label, counts in zip(
                char_edges, char_edges[1:], run_labels, run_counts
            )
        ]


def _margin_confidence(counts: list[int], label: int) -> float:
    """Separation of ``label`` over its strongest rival (clamped at 0 when the
    decode kept a label the raw counts would not pick)."""
    rival = max(counts[:label] + counts[label + 1 :], default=0)
    return normalized_separation(counts[label], rival)
