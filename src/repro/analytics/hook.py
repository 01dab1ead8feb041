"""Live serving integration: the analytics hook behind ``GET /stats``.

:class:`AnalyticsHook` wraps one :class:`~repro.analytics.aggregator.AnalyticsAggregator`
with the three things the serving hot path needs and the aggregator
deliberately doesn't have:

* **thread safety** — one uncontended lock around each update/read;
* **a record path cheap enough for the hot path** — the per-request cost is
  a few dict lookups and integer additions, with the only O(len(text)) piece
  (the alphabetical-rate letter scan) throttled by ``quality_sample_every``
  so the measured overhead stays inside the same ≤5% budget the tracing
  layer is held to (``benchmarks/test_analytics_overhead.py``);
* **alarm-edge logging** — when a drift verdict *transitions* into alarm the
  hook emits one structured ``drift_alarm`` line through the service's
  :class:`~repro.obs.logging.JsonLogger` (and one ``drift_clear`` on the way
  back), rather than spamming every scrape;
* **a bounded set of sources** — the ``source`` tag comes from the request,
  so the hook keeps at most :data:`MAX_SOURCES` tags apart and folds any
  later new tag, or one longer than :data:`MAX_SOURCE_LENGTH` characters,
  into :data:`OVERFLOW_SOURCE`; ``/stats``, ``/metrics`` and the scan
  cadence then hold a bounded set of sources however many tags clients send
  (``repro analyze`` reads trusted files through the aggregator, uncapped).

The service calls :meth:`record` once per classification response (cache
hits included, so ``/stats`` reports the *effective* traffic mix);
``GET /stats`` serves :meth:`snapshot`, and ``GET /metrics`` picks up
:meth:`gauges` (JSON) / :meth:`render_text_gauges` (Prometheus exposition).
"""

from __future__ import annotations

import threading
import time

from repro.analytics.aggregator import (
    DEFAULT_SOURCE,
    AnalyticsAggregator,
    AnalyticsConfig,
)

__all__ = ["AnalyticsHook"]

#: distinct source tags one hook keeps apart (the untagged source included)
MAX_SOURCES = 256
#: longest source tag kept as given, in characters
MAX_SOURCE_LENGTH = 128
#: the source that every tag past either bound is folded into
OVERFLOW_SOURCE = "_overflow"


class AnalyticsHook:
    """Thread-safe, hot-path-priced analytics recorder for one service.

    Parameters
    ----------
    config:
        The :class:`~repro.analytics.aggregator.AnalyticsConfig`; defaults
        give 60 s windows with a 32-window ring.
    quality_sample_every:
        Scan every K-th document per source for the alphabetical-rate quality
        metric (1 scans everything; the scan is the only per-request cost
        proportional to document length).
    logger:
        Optional :class:`~repro.obs.logging.JsonLogger` for alarm-edge events.
    clock:
        Injectable wall clock (UNIX seconds) for deterministic tests.
    """

    def __init__(
        self,
        config: AnalyticsConfig | None = None,
        *,
        quality_sample_every: int = 8,
        logger=None,
        clock=time.time,
    ):
        if quality_sample_every < 1:
            raise ValueError("quality_sample_every must be at least 1")
        self.aggregator = AnalyticsAggregator(config)
        self.quality_sample_every = int(quality_sample_every)
        self.logger = logger
        self._clock = clock
        self._update = self.aggregator.update  # pre-bound: record() is hot
        self._lock = threading.Lock()
        self._alarming = False
        #: the source tags kept apart so far (at most MAX_SOURCES); untagged
        #: traffic keeps its own source however many tags came first
        self._sources = {DEFAULT_SOURCE}
        #: per-source document counters driving the quality-scan cadence (the
        #: aggregator's own totals are a read-side derivation, too costly to
        #: consult per request)
        self._doc_counts: dict[str, int] = {}
        self.drift_alarms_total = 0
        self.records_total = 0

    # ------------------------------------------------------------ hot path

    def record(
        self,
        result,
        source: str | None = None,
        text: str | bytes | None = None,
        chars: int | None = None,
        cached: bool = False,
    ) -> None:
        """Fold one served classification in (called per response).

        A ``source`` past :data:`MAX_SOURCES` distinct tags, or longer than
        :data:`MAX_SOURCE_LENGTH`, is counted under :data:`OVERFLOW_SOURCE`.
        """
        if source is None:
            source = DEFAULT_SOURCE
        elif source not in self._sources:  # the set only grows: _admit re-checks
            source = self._admit(source)
        scanned = None
        if text is not None and not isinstance(text, str):
            text, chars = None, len(text)  # bytes: count volume, skip the scan
        with self._lock:
            self.records_total += 1
            if text is not None:
                chars = len(text)
                seen = self._doc_counts.get(source, 0)
                self._doc_counts[source] = seen + 1
                if seen % self.quality_sample_every == 0:
                    scanned = text
            # positional call into the pre-bound update: keyword marshalling
            # is measurable at this call rate
            self._update(result, source, self._clock(), scanned, chars, cached)

    def _admit(self, source: str) -> str:
        """``source`` if it is, or may become, one of the kept tags; else the overflow."""
        with self._lock:
            if source in self._sources:
                return source
            if len(self._sources) < MAX_SOURCES and len(source) <= MAX_SOURCE_LENGTH:
                self._sources.add(source)
                return source
        return OVERFLOW_SOURCE

    # ------------------------------------------------------------ read side

    def snapshot(self, include_windows: bool = True) -> dict:
        """Full analytics snapshot (the ``GET /stats`` payload)."""
        with self._lock:
            payload = self.aggregator.snapshot(include_windows=include_windows)
            self._track_alarm_edge(payload["drift"])
            payload["records_total"] = self.records_total
            payload["quality_sample_every"] = self.quality_sample_every
            payload["drift_alarms_total"] = self.drift_alarms_total
        return payload

    def check_drift(self) -> dict:
        """Current drift verdicts (alarm-edge logging included)."""
        with self._lock:
            drift = self.aggregator.drift()
            self._track_alarm_edge(drift)
        return drift

    def _track_alarm_edge(self, drift: dict) -> None:
        alarm = drift.get("alarm", False)
        if alarm and not self._alarming:
            self.drift_alarms_total += 1
            if self.logger is not None:
                tripped = sorted(
                    source
                    for source, verdict in drift.get("sources", {}).items()
                    if verdict["alarm"]
                )
                self.logger.event(
                    "drift_alarm",
                    metric=self.aggregator.config.drift_metric,
                    sources=tripped,
                    overall_score=drift.get("overall", {}).get("score"),
                )
        elif not alarm and self._alarming and self.logger is not None:
            self.logger.event("drift_clear")
        self._alarming = alarm

    def priors(self) -> dict:
        """The per-source language-priors artifact over the served stream."""
        with self._lock:
            return self.aggregator.priors()

    def gauges(self) -> dict:
        """Compact per-source gauges for the ``/metrics`` JSON snapshot."""
        with self._lock:
            sources = {
                source: {
                    "docs": stats.docs_total,
                    "language_mix": stats.language_mix,
                    "mean_confidence": stats.mean_confidence,
                    "und_rate": stats.und_rate,
                }
                for source, stats in sorted(self.aggregator.sources.items())
            }
            drift = self.aggregator.drift()
            self._track_alarm_edge(drift)
            records_total = self.records_total
            drift_alarms_total = self.drift_alarms_total
        compact_drift = {
            "status": drift.get("status"),
            "alarm": drift.get("alarm", False),
            "overall_score": drift.get("overall", {}).get("score", 0.0),
            "sources": {
                source: {"score": verdict["score"], "alarm": verdict["alarm"]}
                for source, verdict in drift.get("sources", {}).items()
            },
        }
        return {
            "records_total": records_total,
            "drift_alarms_total": drift_alarms_total,
            "sources": sources,
            "drift": compact_drift,
        }

    def render_text_gauges(self) -> str:
        """Prometheus exposition lines for the ``/metrics?format=text`` page."""
        gauges = self.gauges()
        lines = [
            "# HELP repro_serve_analytics_records_total Classifications folded "
            "into the analytics plane.",
            "# TYPE repro_serve_analytics_records_total counter",
            f"repro_serve_analytics_records_total {gauges['records_total']}",
            "# HELP repro_serve_drift_alarms_total Drift alarm activations "
            "(edge-triggered).",
            "# TYPE repro_serve_drift_alarms_total counter",
            f"repro_serve_drift_alarms_total {gauges['drift_alarms_total']}",
            "# HELP repro_serve_source_docs_total Classified documents by source.",
            "# TYPE repro_serve_source_docs_total counter",
        ]
        for source, stats in gauges["sources"].items():
            lines.append(
                f'repro_serve_source_docs_total{{source="{source}"}} {stats["docs"]}'
            )
        lines.append(
            "# HELP repro_serve_language_mix Fraction of a source's documents "
            "per predicted language."
        )
        lines.append("# TYPE repro_serve_language_mix gauge")
        for source, stats in gauges["sources"].items():
            for language, fraction in stats["language_mix"].items():
                lines.append(
                    "repro_serve_language_mix"
                    f'{{source="{source}",language="{language}"}} {fraction}'
                )
        lines.append(
            "# HELP repro_serve_mean_confidence Mean raw confidence by source."
        )
        lines.append("# TYPE repro_serve_mean_confidence gauge")
        for source, stats in gauges["sources"].items():
            lines.append(
                f'repro_serve_mean_confidence{{source="{source}"}} '
                f"{stats['mean_confidence']}"
            )
        drift = gauges["drift"]
        lines.append(
            "# HELP repro_serve_drift_score Language-mix drift of the newest "
            "window vs baseline."
        )
        lines.append("# TYPE repro_serve_drift_score gauge")
        lines.append(f'repro_serve_drift_score{{source="_overall"}} {drift["overall_score"]}')
        for source, verdict in drift["sources"].items():
            lines.append(
                f'repro_serve_drift_score{{source="{source}"}} {verdict["score"]}'
            )
        lines.append("# HELP repro_serve_drift_alarm 1 while any drift alarm is raised.")
        lines.append("# TYPE repro_serve_drift_alarm gauge")
        lines.append(f"repro_serve_drift_alarm {int(drift['alarm'])}")
        return "\n".join(lines) + "\n"
