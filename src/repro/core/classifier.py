"""Classification results: what every backend returns for one document.

Given a set of per-language profiles, classification of a document proceeds exactly
as in the HAIL recipe (Section 2), with the profile membership test realised by
Parallel Bloom Filters (Section 3):

1. Convert the document to the 5-bit alphabet and extract its 4-grams.
2. Test every 4-gram against every language's filter; count the matches per language.
3. The language with the highest match count is the classification result.

The membership engines live behind :class:`repro.api.identifier.LanguageIdentifier`
(see :mod:`repro.api.backends`); this module holds the result type they all
produce, the shared confidence definition and the zero-evidence ``und`` result.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

__all__ = [
    "ClassificationResult",
    "normalized_separation",
    "undetermined_result",
    "UNDETERMINED_LANGUAGE",
]

#: the explicit zero-evidence label (ISO 639-2 "undetermined"): returned when a
#: document yields no n-grams at all (empty, or shorter than ``n``), so callers
#: can tell "no evidence" apart from "first language won a genuine tie"
UNDETERMINED_LANGUAGE = "und"


def undetermined_result(
    languages: Iterable[str],
    *,
    ngram_count: int = 0,
    abstain_reason: str | None = None,
) -> "ClassificationResult":
    """The canonical zero-evidence result: ``und`` label, all-zero counts.

    Shared by every classification surface (raw classifiers, the
    :class:`~repro.api.identifier.LanguageIdentifier` facade, the segmenter's
    too-short path and the ensemble backend's abstention) so abstention logic
    can rely on one representation of "this document carried no usable
    evidence".  The ensemble passes ``ngram_count``/``abstain_reason`` to say
    *why* it declined to label a document that did carry n-grams.
    """
    return ClassificationResult(
        language=UNDETERMINED_LANGUAGE,
        match_counts={language: 0 for language in languages},
        ngram_count=ngram_count,
        abstain_reason=abstain_reason,
    )


def normalized_separation(top: int, rival: int) -> float:
    """Normalized separation ``(top - rival) / top``, clamped to ``[0, 1]``.

    The one confidence definition shared by whole-document classification
    (:attr:`ClassificationResult.confidence`) and span labelling
    (:class:`repro.segment.types.Span`), so the two surfaces stay comparable:
    0 when the top two scores tie (or nothing matched), 1 when no rival
    matched at all.
    """
    if top <= 0:
        return 0.0
    return max(0.0, (top - rival) / top)


@dataclass
class ClassificationResult:
    """Outcome of classifying one document.

    Attributes
    ----------
    language:
        The predicted language (highest match count; ties broken by language order,
        which mirrors the deterministic priority encoder a hardware design would
        use).  A document yielding no n-grams at all (empty or shorter than
        ``n``) carries no evidence and is labelled
        :data:`UNDETERMINED_LANGUAGE` (``"und"``) with zero confidence instead
        of silently winning the all-zero tie for the first language.
    match_counts:
        Mapping from language to its match counter value.
    ngram_count:
        Number of n-grams tested (document length minus ``n - 1``).
    calibrated_confidence:
        A measured P(correct) in ``[0, 1]`` when the producing backend carries
        fitted calibrators (the ensemble's vote share); ``None`` everywhere
        else — :attr:`confidence` stays the raw separation score.
    abstain_reason:
        Why the ensemble declined to label this document (``"too_short"``,
        ``"low_alpha_rate"``, ``"tie"``); ``None`` for ordinary predictions
        and for the plain zero-evidence ``und``.
    member_votes:
        Per-member vote breakdown ``{member: {"language": ..., "weight": ...}}``
        from the ensemble backend; ``None`` for single-engine results.
    """

    language: str
    match_counts: dict[str, int]
    ngram_count: int
    calibrated_confidence: float | None = None
    abstain_reason: str | None = None
    member_votes: dict[str, dict] | None = None

    @property
    def scores(self) -> dict[str, float]:
        """Match counts normalised by the number of tested n-grams."""
        if self.ngram_count == 0:
            return {lang: 0.0 for lang in self.match_counts}
        return {lang: count / self.ngram_count for lang, count in self.match_counts.items()}

    @property
    def margin(self) -> int:
        """Difference between the two highest match counts (Section 5.1's separation)."""
        counts = sorted(self.match_counts.values(), reverse=True)
        if len(counts) < 2:
            return counts[0] if counts else 0
        return counts[0] - counts[1]

    @property
    def confidence(self) -> float:
        """Normalized separation ``(top - runner_up) / top``, in ``[0, 1]``.

        0 means the top two languages tied (or no n-gram matched anything);
        1 means no other language matched at all.  Unlike :attr:`margin`, the
        value is comparable across document lengths and across backends whose
        counters use different scales (Bloom hits vs fixed-point scores).

        This is a *raw separation score*, not a probability: the classifier is
        right far more often than the value suggests.  To turn it into a
        measured P(correct), fit a
        :class:`repro.eval.calibration.ConfidenceCalibrator` (the evaluation
        matrix of :mod:`repro.eval` does this per backend and reports the
        expected calibration error before and after).
        """
        # single pass for the top two counts: this runs once per document on
        # the serving/analytics hot path, where a full sort is measurable
        # (match counters are non-negative, so 0 is a safe floor)
        top = runner = 0
        for count in self.match_counts.values():
            if count > top:
                runner = top
                top = count
            elif count > runner:
                runner = count
        return normalized_separation(top, runner)

    def ranking(self) -> list[tuple[str, int]]:
        """Languages ordered by decreasing match count."""
        return sorted(self.match_counts.items(), key=lambda kv: (-kv[1], kv[0]))
