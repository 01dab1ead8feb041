"""The streaming aggregation layer over classify outputs.

:class:`AnalyticsAggregator` is the corpus-analytics workhorse: it folds each
classification result, once, into the per-source
:class:`~repro.analytics.stats.SourceStats` block of its **time-bucketed
window** (a bounded ring), ages displaced windows into a per-source *archive*,
and derives drift verdicts by comparing the newest window against a baseline
window (:mod:`repro.analytics.drift`).  All-time totals are a read-side
derivation — archive plus live windows — so the hot path performs exactly one
stat-block update per document.

Two properties carry the design:

* **Constant memory.**  State is bounded by ``sources x (max_windows + 1)``
  stat blocks; a billion-document stream costs the same resident set as a
  thousand-document one.  The ring keeps the ``max_windows`` newest bucket
  indices seen; a document older than all of them opens its window, is
  folded in, and the window is pruned at once.  A pruned window's documents
  are not lost — they age into the archive, so all-time totals stay exact
  (all-integer accumulators, see :mod:`repro.analytics.stats`).
* **Deterministic derivation.**  Every float in a snapshot is one division
  over exact integers, so equal streams give equal snapshots.

The same type serves both deployment layers: the ``repro analyze`` batch
CLI and the live :class:`~repro.analytics.hook.AnalyticsHook` behind
``GET /stats``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from repro.analytics.drift import DRIFT_METRICS, compare_windows
from repro.analytics.stats import (
    CONFIDENCE_BINS,
    CONFIDENCE_SCALE,
    SourceStats,
    quantize_confidence,
)
from repro.core.classifier import UNDETERMINED_LANGUAGE

__all__ = ["AnalyticsConfig", "AnalyticsAggregator", "DEFAULT_SOURCE", "count_letters"]

#: source label applied when the caller supplied none (unattributed traffic)
DEFAULT_SOURCE = "_default"

#: everything that is not a letter (Unicode-aware: ``\w`` minus digits and
#: underscore is exactly the letter class) and its complement
_NON_LETTERS = re.compile(r"[\W\d_]+")
_LETTERS = re.compile(r"[^\W\d_]+")

#: lazily-built boolean table over the Basic Multilingual Plane: entry c is
#: True iff chr(c) matches the letter class above.  The scan is the analytics
#: plane's only per-document O(len) cost, and a vectorized table gather runs
#: ~8x faster than the regex substitution it replaces.
_BMP_LETTERS: "np.ndarray | None" = None


def _bmp_letter_table() -> "np.ndarray":
    global _BMP_LETTERS
    if _BMP_LETTERS is None:
        table = np.zeros(0x10000, dtype=bool)
        plane = "".join(map(chr, range(0x10000)))
        for run in _LETTERS.finditer(plane):
            table[run.start() : run.end()] = True
        _BMP_LETTERS = table
    return _BMP_LETTERS


def count_letters(text: str) -> int:
    """Number of Unicode letters in ``text`` (the alphabetical-rate numerator)."""
    try:
        codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    except UnicodeEncodeError:  # lone surrogates: the regex handles them
        return len(_NON_LETTERS.sub("", text))
    table = _bmp_letter_table()
    try:
        return int(np.count_nonzero(table[codes]))
    except IndexError:  # astral code points (rare): split them out
        bmp = codes < 0x10000
        astral = "".join(map(chr, codes[~bmp].tolist()))
        return int(np.count_nonzero(table[codes[bmp]])) + len(
            _NON_LETTERS.sub("", astral)
        )


@dataclass(frozen=True)
class AnalyticsConfig:
    """Tuning knobs of one :class:`AnalyticsAggregator`.

    Attributes
    ----------
    window_seconds:
        Width of one time bucket.  Callers without wall-clock timestamps
        (batch analysis) can feed any monotone scalar — ``repro analyze``
        uses the document index, making this "documents per window".
    max_windows:
        Bound on retained window buckets (the newest win).  Needs at least 2
        so a baseline and a current window can coexist.
    drift_metric:
        ``"js"`` (Jensen–Shannon divergence, bounded [0, 1]) or ``"psi"``
        (population stability index, conventional alarm at 0.2+).
    drift_threshold:
        Language-mix drift score above which a window alarms.
    confidence_drift_threshold:
        Absolute mean-confidence delta above which a window alarms (the
        model-degradation proxy).
    min_window_docs:
        Windows with fewer documents than this never alarm (noise guard).
    """

    window_seconds: float = 60.0
    max_windows: int = 32
    drift_metric: str = "js"
    drift_threshold: float = 0.1
    confidence_drift_threshold: float = 0.1
    min_window_docs: int = 20

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.max_windows < 2:
            raise ValueError("max_windows must be at least 2 (baseline + current)")
        if self.drift_metric not in DRIFT_METRICS:
            raise ValueError(
                f"unknown drift metric {self.drift_metric!r}; "
                f"choose from {list(DRIFT_METRICS)}"
            )
        if self.drift_threshold < 0 or self.confidence_drift_threshold < 0:
            raise ValueError("drift thresholds must be non-negative")
        if self.min_window_docs < 1:
            raise ValueError("min_window_docs must be at least 1")

    def to_json(self) -> dict:
        return {
            "window_seconds": self.window_seconds,
            "max_windows": self.max_windows,
            "confidence_bins": CONFIDENCE_BINS,
            "drift_metric": self.drift_metric,
            "drift_threshold": self.drift_threshold,
            "confidence_drift_threshold": self.confidence_drift_threshold,
            "min_window_docs": self.min_window_docs,
        }


class AnalyticsAggregator:
    """Per-source totals + a bounded ring of time-bucketed window stats.

    Not thread-safe on its own; the serving tier's
    :class:`~repro.analytics.hook.AnalyticsHook` serialises access.
    """

    def __init__(self, config: AnalyticsConfig | None = None):
        self.config = config if config is not None else AnalyticsConfig()
        #: per-source stats aged out of the window ring (documents are never
        #: lost to pruning; all-time totals = archive + live windows)
        self.archive: dict[str, SourceStats] = {}
        #: bucket index -> (source -> window stats); pruned to max_windows
        self.windows: dict[int, dict[str, SourceStats]] = {}
        # hot-path copies of the (frozen) config fields ``update`` touches:
        # two attribute hops per document are measurable at serving rates
        self._window_seconds = self.config.window_seconds
        self._max_windows = self.config.max_windows
        # memo of the last (bucket, source) -> stats resolution: serving
        # traffic arrives in same-source bursts inside one window, so this
        # hits almost always; invalidated whenever stats blocks move
        self._last_bucket: int | None = None
        self._last_source: str | None = None
        self._last_stats: SourceStats | None = None

    # ------------------------------------------------------------ recording

    def update(
        self,
        result,
        source: str | None = None,
        timestamp: float = 0.0,
        text: str | None = None,
        chars: int | None = None,
        cached: bool = False,
    ) -> None:
        """Fold one classification result into its time window.

        ``result`` is a :class:`~repro.core.classifier.ClassificationResult`
        (or anything with ``language`` / ``confidence`` / ``ngram_count``).
        Pass ``text`` to have the document scanned for quality metrics
        (length + alphabetical rate); pass only ``chars`` to skip the scan —
        the document still counts everywhere except the alphabetical-rate
        ratio.  ``timestamp`` picks the window; a NaN or infinite one raises
        ``ValueError`` and counts nothing.
        """
        if source is None:
            source = DEFAULT_SOURCE
        if text is not None:
            chars = len(text)
            alpha = count_letters(text)
        else:
            chars = int(chars) if chars is not None else 0
            alpha = None
        # quantise once, update exactly one stat block: this is the serving
        # hot path, priced at a few dict lookups and integer adds.  The
        # top-two scan mirrors ClassificationResult.confidence +
        # quantize_confidence exactly (0-floored separation, rounded to
        # micro-units) without the property/function-call overhead.
        counts = getattr(result, "match_counts", None)
        if counts is not None:
            top = runner = 0
            for count in counts.values():
                if count > top:
                    runner = top
                    top = count
                elif count > runner:
                    runner = count
            # identical op order to quantize_confidence(confidence): the
            # division happens first, then the scale multiply, then round
            micro = round((top - runner) / top * CONFIDENCE_SCALE) if top > 0 else 0
        else:  # duck-typed result: fall back to its confidence attribute
            micro = quantize_confidence(result.confidence)
        try:
            bucket = int(timestamp // self._window_seconds)
        except ValueError:  # NaN, and ±inf, whose floor division is NaN
            raise ValueError(f"timestamp must be finite, got {timestamp!r}") from None
        if bucket == self._last_bucket and source == self._last_source:
            stats = self._last_stats
        else:
            window = self.windows.get(bucket)
            if window is None:
                window = self.windows[bucket] = {}
            stats = window.get(source)
            if stats is None:
                stats = window[source] = SourceStats()
            self._last_bucket = bucket
            self._last_source = source
            self._last_stats = stats
        language = result.language
        stats.update(
            language,
            micro,
            chars,
            result.ngram_count,
            language == UNDETERMINED_LANGUAGE,
            cached,
            alpha,
        )
        if len(self.windows) > self._max_windows:
            self._prune_oldest_window()

    def _prune_oldest_window(self) -> None:
        # one update opens at most one window, so one goes: the oldest, which
        # is the new one itself when its document is older than every
        # retained window.  It folds into the archive, not the void: all-time
        # totals stay exact.
        self._last_bucket = self._last_source = self._last_stats = None
        for source, stats in self.windows.pop(min(self.windows)).items():
            archived = self.archive.get(source)
            if archived is None:
                self.archive[source] = stats
            else:
                archived.merge(stats)

    # ------------------------------------------------------------ derived

    @property
    def sources(self) -> dict[str, SourceStats]:
        """All-time per-source totals: archive + live windows, freshly merged.

        A read-side derivation (the hot path only ever touches one window stat
        block); the result is a snapshot-in-time copy — mutating it does not
        affect the aggregator.
        """
        totals = {source: stats.copy() for source, stats in self.archive.items()}
        for window in self.windows.values():
            for source, stats in window.items():
                mine = totals.get(source)
                if mine is None:
                    totals[source] = stats.copy()
                else:
                    mine.merge(stats)
        return totals

    @property
    def docs_total(self) -> int:
        archived = sum(stats.docs_total for stats in self.archive.values())
        live = sum(
            stats.docs_total
            for window in self.windows.values()
            for stats in window.values()
        )
        return archived + live

    def _window_merged(self, bucket: int) -> SourceStats:
        merged = SourceStats()
        for stats in self.windows.get(bucket, {}).values():
            merged.merge(stats)
        return merged

    def drift(self, baseline_bucket: int | None = None) -> dict:
        """Drift verdicts: newest window vs baseline window, per source + overall.

        The baseline defaults to the oldest *retained* window (set
        ``max_windows`` to cover the reference period you care about), or pin
        an explicit bucket index.  Sources absent from either window simply
        cannot alarm (``min_window_docs`` guards the comparison).
        """
        buckets = sorted(self.windows)
        if len(buckets) < 2:
            return {
                "status": "insufficient-windows",
                "windows": len(buckets),
                "alarm": False,
                "sources": {},
            }
        current_bucket = buckets[-1]
        if baseline_bucket is None:
            baseline_bucket = buckets[0]
        elif baseline_bucket not in self.windows:
            raise ValueError(f"baseline bucket {baseline_bucket} is not retained")
        if baseline_bucket == current_bucket:
            return {
                "status": "insufficient-windows",
                "windows": 1,
                "alarm": False,
                "sources": {},
            }
        kwargs = {
            "metric": self.config.drift_metric,
            "drift_threshold": self.config.drift_threshold,
            "confidence_drift_threshold": self.config.confidence_drift_threshold,
            "min_window_docs": self.config.min_window_docs,
        }
        baseline_window = self.windows[baseline_bucket]
        current_window = self.windows[current_bucket]
        empty = SourceStats()
        verdicts = {}
        for source in sorted(set(baseline_window) | set(current_window)):
            verdicts[source] = compare_windows(
                current_window.get(source, empty),
                baseline_window.get(source, empty),
                **kwargs,
            )
        overall = compare_windows(
            self._window_merged(current_bucket),
            self._window_merged(baseline_bucket),
            **kwargs,
        )
        return {
            "status": "ok",
            "baseline_bucket": baseline_bucket,
            "current_bucket": current_bucket,
            "overall": overall,
            "sources": verdicts,
            "alarm": overall["alarm"] or any(v["alarm"] for v in verdicts.values()),
        }

    def priors(self) -> dict:
        """The per-source language-priors artifact for the ensemble backend.

        Relative label frequencies over each source's all-time stream —
        exactly the ``P(language | source)`` table the planned ensemble
        backend weights votes with (see ROADMAP).
        """
        return {
            "schema": "repro.analytics.priors/v1",
            "sources": {
                source: {
                    "docs": stats.docs_total,
                    "languages": stats.language_mix,
                }
                for source, stats in sorted(self.sources.items())
            },
        }

    def snapshot(self, include_windows: bool = True) -> dict:
        """JSON-ready view: totals, window ring, drift verdicts."""
        ws = self.config.window_seconds
        payload = {
            "config": self.config.to_json(),
            "docs_total": self.docs_total,
            "sources": {
                source: stats.snapshot()
                for source, stats in sorted(self.sources.items())
            },
            "drift": self.drift(),
        }
        if include_windows:
            payload["windows"] = [
                {
                    "bucket": bucket,
                    "start": bucket * ws,
                    "end": (bucket + 1) * ws,
                    "docs": sum(s.docs_total for s in window.values()),
                    "sources": {
                        source: {
                            "docs": stats.docs_total,
                            "language_mix": stats.language_mix,
                            "mean_confidence": stats.mean_confidence,
                            "und_rate": stats.und_rate,
                        }
                        for source, stats in sorted(window.items())
                    },
                }
                for bucket, window in sorted(self.windows.items())
            ]
        return payload
