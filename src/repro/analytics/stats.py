"""Constant-memory per-source streaming statistics with integer counters.

The unit of state is one :class:`SourceStats`: everything the analytics layer
knows about one traffic source (a feed, a tenant, a newspaper title).  The
aggregation layer (:mod:`repro.analytics.aggregator`) folds each document
into the stat block of its time window, and when a window is pruned from its
ring the block is merged into the source's archive; all-time totals are the
archive merged with the live windows.  Those totals come out exact, whatever
was pruned and in whatever order blocks were merged, because no float is
ever accumulated:

* counters (documents, bytes, n-grams, ``und``, cache hits, per-language
  labels, confidence-histogram bins) are Python ints — exact at any magnitude;
* per-document confidences are quantised once, at observation time, to
  integer micro-units (:data:`CONFIDENCE_SCALE`) and summed as ints;
* ratios that need a numerator and denominator (alphabetical rate) keep both
  as ints and divide only at :meth:`SourceStats.snapshot` time.

Every derived float (mean confidence, language mix, rates) is therefore a
single division over exact integers.
"""

from __future__ import annotations

from collections import Counter

__all__ = [
    "CONFIDENCE_BINS",
    "CONFIDENCE_SCALE",
    "SourceStats",
    "quantize_confidence",
]

#: micro-unit scale for confidence accumulation: one part per million is far
#: below the resolution of the raw separation score, and int sums are exact
CONFIDENCE_SCALE = 1_000_000

#: confidence-histogram resolution over [0, 1]
CONFIDENCE_BINS = 10


def quantize_confidence(confidence: float) -> int:
    """One confidence in [0, 1] as exact integer micro-units.

    Quantisation happens once per document, *before* any accumulation, so
    every stat block a document reaches sums the same integer.
    """
    return round(float(confidence) * CONFIDENCE_SCALE)


class SourceStats:
    """Streaming statistics for one traffic source.

    Constant memory: the state is a handful of ints, a bounded confidence
    histogram and a language counter whose cardinality is bounded by the label
    set of the model (plus ``und``).  ``update`` is O(1); ``merge`` is
    O(languages + bins).

    Attributes
    ----------
    docs_total / bytes_total / ngrams_total:
        Document, payload-character and tested-n-gram volume.
    languages:
        ``label -> document count`` (the classifier's output labels, including
        the explicit ``und`` abstention).
    und_total:
        Documents labelled ``und`` (no n-gram evidence / abstained) — kept as
        a dedicated counter so the abstain rate survives language-counter
        truncation in compact views.
    cached_total:
        Documents answered from the serving result cache; lets reports state
        the *effective* (cache-inclusive) traffic mix.
    confidence_sum_micro / confidence_bins:
        Exact micro-unit confidence sum and a fixed-bin histogram over [0, 1].
    length_min / length_max:
        Document-length extremes (characters); the mean is
        ``bytes_total / docs_total``.
    quality_docs_total / quality_chars_total / quality_alpha_total:
        Alphabetical-rate accounting over the (possibly sampled) documents
        whose text was actually scanned: letters / characters, exactly.
    """

    __slots__ = (
        "docs_total",
        "bytes_total",
        "ngrams_total",
        "languages",
        "und_total",
        "cached_total",
        "confidence_sum_micro",
        "confidence_bins",
        "length_min",
        "length_max",
        "quality_docs_total",
        "quality_chars_total",
        "quality_alpha_total",
    )

    def __init__(self):
        self.docs_total = 0
        self.bytes_total = 0
        self.ngrams_total = 0
        self.languages: Counter[str] = Counter()
        self.und_total = 0
        self.cached_total = 0
        self.confidence_sum_micro = 0
        self.confidence_bins = [0] * CONFIDENCE_BINS
        self.length_min: int | None = None
        self.length_max: int | None = None
        self.quality_docs_total = 0
        self.quality_chars_total = 0
        self.quality_alpha_total = 0

    # ------------------------------------------------------------ recording

    def update(
        self,
        language: str,
        micro: int,
        chars: int,
        ngrams: int = 0,
        und: bool = False,
        cached: bool = False,
        alpha_chars: int | None = None,
    ) -> None:
        """Fold one classified document in.

        ``micro`` is the document's confidence already quantised
        (:func:`quantize_confidence`); it is binned here.  ``alpha_chars`` is
        the letter count of the document when the caller scanned the text
        (quality sampling may skip the scan — pass ``None`` and the document
        simply doesn't enter the alphabetical-rate ratio).  The serving hot
        path calls this positionally, once per document.
        """
        self.docs_total += 1
        self.bytes_total += chars
        self.ngrams_total += ngrams
        self.languages[language] += 1
        if und:
            self.und_total += 1
        if cached:
            self.cached_total += 1
        self.confidence_sum_micro += micro
        self.confidence_bins[
            min(micro * CONFIDENCE_BINS // CONFIDENCE_SCALE, CONFIDENCE_BINS - 1)
            if micro > 0
            else 0
        ] += 1
        if self.length_min is None or chars < self.length_min:
            self.length_min = chars
        if self.length_max is None or chars > self.length_max:
            self.length_max = chars
        if alpha_chars is not None:
            self.quality_docs_total += 1
            self.quality_chars_total += chars
            self.quality_alpha_total += int(alpha_chars)

    def merge(self, other: "SourceStats") -> "SourceStats":
        """Fold ``other`` in (in place).  Associative, commutative, exact."""
        self.docs_total += other.docs_total
        self.bytes_total += other.bytes_total
        self.ngrams_total += other.ngrams_total
        self.languages.update(other.languages)
        self.und_total += other.und_total
        self.cached_total += other.cached_total
        self.confidence_sum_micro += other.confidence_sum_micro
        for index, count in enumerate(other.confidence_bins):
            self.confidence_bins[index] += count
        if other.length_min is not None:
            if self.length_min is None or other.length_min < self.length_min:
                self.length_min = other.length_min
        if other.length_max is not None:
            if self.length_max is None or other.length_max > self.length_max:
                self.length_max = other.length_max
        self.quality_docs_total += other.quality_docs_total
        self.quality_chars_total += other.quality_chars_total
        self.quality_alpha_total += other.quality_alpha_total
        return self

    def copy(self) -> "SourceStats":
        return SourceStats().merge(self)

    # ------------------------------------------------------------ derived

    @property
    def language_mix(self) -> dict[str, float]:
        """``label -> fraction of documents``, sorted by label (deterministic)."""
        if not self.docs_total:
            return {}
        return {
            language: count / self.docs_total
            for language, count in sorted(self.languages.items())
        }

    @property
    def mean_confidence(self) -> float:
        if not self.docs_total:
            return 0.0
        return self.confidence_sum_micro / (self.docs_total * CONFIDENCE_SCALE)

    @property
    def und_rate(self) -> float:
        return self.und_total / self.docs_total if self.docs_total else 0.0

    @property
    def alphabetical_rate(self) -> float:
        """Letters per character over the quality-scanned documents."""
        if not self.quality_chars_total:
            return 0.0
        return self.quality_alpha_total / self.quality_chars_total

    def dominant_language(self) -> str | None:
        """Most frequent label (ties broken alphabetically, deterministic)."""
        if not self.languages:
            return None
        return min(self.languages, key=lambda lang: (-self.languages[lang], lang))

    def snapshot(self) -> dict:
        """JSON-ready view of the counters and the rates derived from them."""
        bins = CONFIDENCE_BINS
        return {
            "docs": self.docs_total,
            "bytes": self.bytes_total,
            "ngrams": self.ngrams_total,
            "languages": dict(sorted(self.languages.items())),
            "language_mix": self.language_mix,
            "dominant_language": self.dominant_language(),
            "und": self.und_total,
            "und_rate": self.und_rate,
            "cached": self.cached_total,
            "mean_confidence": self.mean_confidence,
            "confidence_histogram": {
                f"{index / bins:.2f}-{(index + 1) / bins:.2f}": count
                for index, count in enumerate(self.confidence_bins)
            },
            "doc_length": {
                "mean": self.bytes_total / self.docs_total if self.docs_total else 0.0,
                "min": self.length_min,
                "max": self.length_max,
            },
            "quality": {
                "scanned_docs": self.quality_docs_total,
                "alphabetical_rate": self.alphabetical_rate,
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SourceStats(docs={self.docs_total}, "
            f"dominant={self.dominant_language()!r}, "
            f"mean_confidence={self.mean_confidence:.3f})"
        )
