"""Result types of the segmentation subsystem: labelled spans over one document.

A :class:`Span` is a half-open character range ``[start, end)`` carrying one
language label and a normalized confidence; a :class:`SegmentationResult` is
the full tiling of a document into such spans (consecutive spans touch, the
first starts at 0, the last ends at the document length).  Character offsets
index the document exactly as it was handed to
:meth:`~repro.segment.segmenter.Segmenter.segment`: for ``str`` input they are
Python string indices (the 5-bit alphabet encodes one code per character), for
``bytes`` input they are byte offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Span", "SegmentationResult", "span_to_json", "segmentation_to_json"]


@dataclass(frozen=True)
class Span:
    """One contiguous single-language run of a document.

    Attributes
    ----------
    start, end:
        Half-open character range ``[start, end)`` of the run.
    language:
        The language labelling the run.
    confidence:
        Normalized separation of the run's evidence, in ``[0, 1]``:
        ``(top - runner_up) / top`` over the per-language scores summed across
        the run's n-grams (0 when the run has no evidence, or when the
        Viterbi decode kept a label that the raw counts would not pick).
    """

    start: int
    end: int
    language: str
    confidence: float

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span range [{self.start}, {self.end})")

    def __len__(self) -> int:
        return self.end - self.start

    def overlap(self, start: int, end: int) -> int:
        """Number of characters this span shares with ``[start, end)``."""
        return max(0, min(self.end, end) - max(self.start, start))


@dataclass
class SegmentationResult:
    """Outcome of segmenting one document into single-language spans.

    Attributes
    ----------
    spans:
        The spans in document order; they tile ``[0, text_length)`` exactly
        (empty for an empty document).
    text_length:
        Length of the segmented document in characters (bytes for ``bytes``
        input).
    ngram_count:
        Number of n-grams the scorer tested (document length minus ``n - 1``,
        after any subsampling).
    window_count:
        Number of sliding windows the scorer evaluated.
    """

    spans: list[Span] = field(default_factory=list)
    text_length: int = 0
    ngram_count: int = 0
    window_count: int = 0

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    @property
    def languages(self) -> list[str]:
        """Distinct span languages in order of first appearance."""
        seen: list[str] = []
        for span in self.spans:
            if span.language not in seen:
                seen.append(span.language)
        return seen

    @property
    def dominant_language(self) -> str | None:
        """The language covering the most characters (``None`` for no spans)."""
        coverage: dict[str, int] = {}
        for span in self.spans:
            coverage[span.language] = coverage.get(span.language, 0) + len(span)
        if not coverage:
            return None
        # ties break towards first appearance, mirroring the classifier's
        # training-order tie-break
        best = max(coverage.values())
        for span in self.spans:
            if coverage[span.language] == best:
                return span.language
        return None  # pragma: no cover - unreachable

    def label_at(self, position: int) -> str | None:
        """The language labelling character ``position`` (``None`` if outside)."""
        for span in self.spans:
            if span.start <= position < span.end:
                return span.language
        return None


def span_to_json(span: Span) -> dict:
    """Wire form of one span."""
    return {
        "start": span.start,
        "end": span.end,
        "language": span.language,
        "confidence": span.confidence,
    }


def segmentation_to_json(result: SegmentationResult) -> dict:
    """Wire form of one segmentation result (served by ``POST /segment``)."""
    return {
        "spans": [span_to_json(span) for span in result.spans],
        "languages": result.languages,
        "dominant_language": result.dominant_language,
        "text_length": result.text_length,
        "ngram_count": result.ngram_count,
        "window_count": result.window_count,
    }
