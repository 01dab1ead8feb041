"""repro.segment — mixed-language document segmentation on the Bloom hot path.

The paper classifies each document as exactly one language; real traffic is
full of code-switched and concatenated text where a single label is simply
wrong.  This subsystem labels *spans* instead, reusing the vectorized batch
machinery end to end:

:class:`~repro.segment.windows.WindowedScorer`
    Hashes each n-gram once against every language's stacked bit-vectors
    (:meth:`~repro.api.registry.Backend.ngram_hits`) and derives per-language
    hit counts for arbitrarily many sliding windows from one reduction of
    the hits between the window edges — O(doc) regardless of window count or
    overlap.
:func:`~repro.segment.smoothing.viterbi_labels`
    Turns noisy per-window winners into stable runs: exact Viterbi decoding
    of a switch-penalised HMM, the one decoder.
:class:`~repro.segment.segmenter.Segmenter`
    The facade: extract → score → decode → merge into contiguous
    :class:`~repro.segment.types.Span` runs with character offsets and
    normalized confidences; its :class:`~repro.segment.segmenter.SegmenterConfig`
    holds the window, the stride and the switch penalty.

Surfaced as :meth:`repro.api.identifier.LanguageIdentifier.segment` (the
default settings), ``Segmenter(identifier, SegmenterConfig(...))`` (any
other), the ``repro segment`` CLI command, and the serving stack's
``POST /segment`` endpoint (micro-batched like ``/classify``, under both
executors).
"""

from __future__ import annotations

from repro.segment.segmenter import Segmenter, SegmenterConfig
from repro.segment.smoothing import viterbi_labels, window_emissions
from repro.segment.types import (
    SegmentationResult,
    Span,
    segmentation_to_json,
    span_to_json,
)
from repro.segment.windows import WindowedScorer, WindowScores

__all__ = [
    "Span",
    "SegmentationResult",
    "span_to_json",
    "segmentation_to_json",
    "WindowedScorer",
    "WindowScores",
    "window_emissions",
    "viterbi_labels",
    "SegmenterConfig",
    "Segmenter",
]
