"""repro.analytics — streaming corpus analytics and drift monitoring.

The content-level observability layer: where :mod:`repro.obs` answers "how is
the *service* behaving", this subsystem answers "what does the *traffic* look
like, and is the model quietly degrading on it".  Modelled on the per-source
newspaper/collection statistics workload of the impresso language-id pipeline
(PAPERS.md), scaled to the firehose by the same discipline as the rest of the
serving tier: constant memory, exact integer counters, O(1) hot-path cost.

:class:`~repro.analytics.stats.SourceStats`
    Per-source language counters, confidence histogram, document-length and
    alphabetical-rate quality summaries, ``und``/abstain and cache-hit rates —
    all-integer accumulators, so the all-time totals built by merging pruned
    windows into the archive are exact.
:class:`~repro.analytics.aggregator.AnalyticsAggregator`
    ``update / snapshot`` over a bounded ring of time-bucketed windows plus
    the archive of pruned ones: each document is folded once, into its
    window.
:mod:`~repro.analytics.drift`
    Jensen–Shannon / PSI language-mix drift plus mean-confidence drift of the
    newest window against a baseline window, with configurable alarms.
:class:`~repro.analytics.hook.AnalyticsHook`
    The live serving integration behind ``GET /stats`` and the drift /
    language-mix gauges in ``GET /metrics`` (hot-path overhead gated ≤5%,
    ``benchmarks/test_analytics_overhead.py``).

Batch entry point: ``repro analyze`` streams JSONL/text corpora through the
vectorized classify path and emits the per-source report plus the
language-priors artifact the planned ensemble backend consumes.
"""

from __future__ import annotations

from repro.analytics.aggregator import (
    DEFAULT_SOURCE,
    AnalyticsAggregator,
    AnalyticsConfig,
    count_letters,
)
from repro.analytics.drift import (
    DRIFT_METRICS,
    compare_windows,
    jensen_shannon_divergence,
    population_stability_index,
)
from repro.analytics.hook import AnalyticsHook
from repro.analytics.report import render_report, write_priors
from repro.analytics.stats import CONFIDENCE_SCALE, SourceStats, quantize_confidence

__all__ = [
    "AnalyticsAggregator",
    "AnalyticsConfig",
    "AnalyticsHook",
    "SourceStats",
    "DEFAULT_SOURCE",
    "DRIFT_METRICS",
    "CONFIDENCE_SCALE",
    "compare_windows",
    "count_letters",
    "jensen_shannon_divergence",
    "population_stability_index",
    "quantize_confidence",
    "render_report",
    "write_priors",
]
