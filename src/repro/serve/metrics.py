"""Service metrics: counters, batch-size histogram, per-stage latency histograms.

The asynchronous host driver of the paper was judged on two axes — realised
throughput (Figure 4) and how full it kept the engine's pipeline.  The
software service mirrors both: MB/s over the serving window, and the
batch-size histogram, which shows directly whether the micro-batcher is
coalescing requests (mass at ``max_batch``) or degenerating into the
request-at-a-time baseline (mass at 1).

Every request is recorded in two steps by the service: once at admission
(:meth:`ServiceMetrics.record_request`) and once at its exit
(:meth:`ServiceMetrics.record_outcome`), which records everything else the
request learned — its cache lookup, its spans, and whether it was answered,
rejected or failed.  A counter that another one already implies is derived
when read, not stored twice: ``responses_total`` is the ``request``
histogram's count, ``cache_hits`` the sum of the per-operation hits, and
``batches_total`` the batch-size histogram's total.

Latency is decomposed, not averaged: every pipeline stage a request's trace
records (see :mod:`repro.obs.trace`) lands in its own bucketed
:class:`LatencyHistogram` — ``admission``, ``queue_wait``, ``ipc_roundtrip``,
``kernel``, ... plus the end-to-end ``request`` series of answered requests
— so "where does a slow request spend its time" is answerable from
``/metrics`` alone, without catching an exemplar trace.  Buckets are
explicit and fixed, which keeps recording O(log buckets) forever and makes
the Prometheus exposition (``_bucket{le=...}`` / ``_sum`` / ``_count`` with
HELP/TYPE lines) aggregatable across replicas and restarts; the reported
percentiles are interpolated within buckets, exactly as
``histogram_quantile`` would.

Confidence note: the ``confidence`` field these metrics ride alongside in
``/classify`` responses is the *raw* normalized separation score.  It is
ordinally meaningful but not a probability — see :mod:`repro.eval.calibration`
for reliability bins, ECE and the fitted calibrator that turn it into a
measured P(correct).
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from collections import Counter

__all__ = ["ServiceMetrics", "LatencyHistogram", "DEFAULT_LATENCY_BUCKETS"]

#: bucket upper bounds in seconds, spanning sub-millisecond cache hits to
#: multi-second pathological requests (an implicit +Inf bucket tops them off)
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def _bound_label(bound: float) -> str:
    """Prometheus ``le`` label for a bucket bound (no trailing zeros)."""
    return format(bound, "g")


class LatencyHistogram:
    """Fixed-bucket latency histogram (Prometheus ``histogram`` semantics).

    Observations are counted into the first bucket whose upper bound is
    ``>= value`` (``le`` buckets); values beyond the last bound land in the
    implicit ``+Inf`` overflow bucket.  Not thread-safe on its own — callers
    (:class:`ServiceMetrics`) serialise access under their lock.
    """

    __slots__ = ("counts", "sum", "count")

    #: bucket upper bounds, seconds (:data:`DEFAULT_LATENCY_BUCKETS`)
    bounds = DEFAULT_LATENCY_BUCKETS

    def __init__(self):
        self.counts = [0] * (len(self.bounds) + 1)  # +1: the +Inf overflow bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100), interpolated within its bucket.

        Mirrors Prometheus ``histogram_quantile``: linear interpolation
        between the bucket's bounds, with the overflow bucket clamped to the
        largest finite bound (there is nothing to interpolate toward).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be between 0 and 100")
        if self.count == 0:
            return 0.0
        rank = (q / 100.0) * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):  # overflow: clamp to last bound
                    return self.bounds[-1]
                low = self.bounds[index - 1] if index else 0.0
                high = self.bounds[index]
                fraction = (rank - (cumulative - bucket_count)) / bucket_count
                return low + max(fraction, 0.0) * (high - low)
        return self.bounds[-1]  # pragma: no cover - rank <= count always hits

    def snapshot(self) -> dict:
        """Cumulative ``le -> count`` buckets plus sum/count (JSON-ready)."""
        cumulative = 0
        buckets = {}
        for bound, bucket_count in zip(self.bounds, self.counts):
            cumulative += bucket_count
            buckets[_bound_label(bound)] = cumulative
        buckets["+Inf"] = self.count
        return {"count": self.count, "sum": self.sum, "buckets": buckets}


class ServiceMetrics:
    """Mutable metric registry owned by one :class:`~repro.serve.service.ClassificationService`.

    All methods are synchronous and nothing here blocks for long: recording is
    a counter bump under an uncontended lock.  The lock matters for the *read*
    side — ``snapshot()`` iterates the batch-size histogram and the stage
    histograms, and without it a concurrent ``record_batch`` from a replica
    worker thread can mutate the histogram mid-iteration (a
    ``RuntimeError: dictionary changed size during iteration``) or tear the
    view.  Reads therefore take the same (reentrant) lock and always observe a
    consistent snapshot; ``render_text`` renders from exactly one such
    snapshot, so a text exposition can never pair a histogram with counters
    taken at a different instant.
    """

    #: requested latency quantiles; JSON keys keep the historical ``p50``
    #: style while the Prometheus exposition uses spec ``quantile="0.5"``
    QUANTILES = (50.0, 95.0, 99.0)

    def __init__(self, clock=time.monotonic):
        self._lock = threading.RLock()
        self._clock = clock
        self.started_at = clock()
        self.requests_total = 0
        self.segment_requests_total = 0
        #: per-operation cache lookup outcomes (op -> count): classify hits
        #: vs segment hits are different savings, and the analytics plane
        #: needs them to report the effective (cache-inclusive) traffic mix
        self.cache_hits_by_op: Counter[str] = Counter()
        self.cache_misses_by_op: Counter[str] = Counter()
        self.rejected_overload = 0
        self.rejected_too_large = 0
        self.errors_total = 0
        #: ensemble voting outcomes: classify responses that abstained
        #: (``und`` with a reason), broken down by reason, and how often the
        #: casting members agreed unanimously — the two health signals of a
        #: calibrated-voting ensemble (a rising abstain rate means the feed
        #: outgrew the gates; falling unanimity means the members diverge)
        self.abstentions_total = 0
        self.abstentions_by_reason: Counter[str] = Counter()
        self.ensemble_votes_total = 0
        self.ensemble_unanimous_total = 0
        self.worker_respawns_total = 0
        self.model_swaps_total = 0
        self.model_version: str | None = None
        self.model_fingerprint: str | None = None
        self.bytes_total = 0
        self.batch_sizes: Counter[int] = Counter()
        #: per-stage latency histograms, keyed by stage name; the end-to-end
        #: latency lives under the ``request`` stage
        self._stages: dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------ recording

    def record_request(self, n_bytes: int, kind: str = "classify") -> None:
        """Count one *admitted* request, at admission, so a live snapshot
        counts the requests in flight; rejections are counted only by
        :meth:`record_outcome`.  ``kind="segment"`` additionally ticks the
        segmentation counter, so ``requests_total`` stays the overall
        admitted volume."""
        with self._lock:
            self.requests_total += 1
            self.bytes_total += int(n_bytes)
            if kind == "segment":
                self.segment_requests_total += 1

    def record_outcome(
        self,
        op: str,
        outcome: str | None,
        hit: bool | None = None,
        spans=(),
        latency_seconds: float = 0.0,
        result=None,
    ) -> None:
        """Record everything one finished request learned, under one lock.

        ``outcome`` is ``"ok"`` (answered, by the kernel or from the cache),
        ``"too-large"`` or ``"overload"`` (rejected: ``rejected_too_large`` /
        ``rejected_overload``), ``"error"`` (failed for any other reason:
        ``errors_total``), or ``None`` for a cancelled request, which counts
        nothing but its lookup and spans.  ``hit`` is the request's cache
        lookup for ``op`` (``None`` when it never reached the cache), and
        every ``(stage, offset, duration)`` span feeds its stage histogram.
        An answered request also feeds the ``request`` histogram with
        ``latency_seconds``, and its ``result`` is folded into the ensemble
        voting-health counters when it carries ``abstain_reason`` or
        ``member_votes`` (other results carry neither and count nothing).
        """
        with self._lock:
            if hit is not None:
                (self.cache_hits_by_op if hit else self.cache_misses_by_op)[op] += 1
            for stage, _offset, duration in spans:
                self._stage_locked(stage).observe(duration)
            if outcome == "overload":
                self.rejected_overload += 1
            elif outcome == "too-large":
                self.rejected_too_large += 1
            elif outcome == "error":
                self.errors_total += 1
            elif outcome == "ok":
                self._stage_locked("request").observe(latency_seconds)
                reason = getattr(result, "abstain_reason", None)
                if reason is not None:
                    self.abstentions_total += 1
                    self.abstentions_by_reason[reason] += 1
                votes = getattr(result, "member_votes", None) or {}
                cast = [
                    vote["language"]
                    for vote in votes.values()
                    if vote.get("language") is not None
                ]
                if cast:
                    self.ensemble_votes_total += 1
                    if len(set(cast)) == 1:
                        self.ensemble_unanimous_total += 1

    def record_batch(self, size: int) -> None:
        with self._lock:
            self.batch_sizes[int(size)] += 1

    def record_worker_respawn(self) -> None:
        """Count one crashed-and-replaced replica worker process."""
        with self._lock:
            self.worker_respawns_total += 1

    def record_model_swap(self) -> None:
        """Count one completed blue/green model swap (failures don't tick this)."""
        with self._lock:
            self.model_swaps_total += 1

    def set_model_info(self, version: str | None, fingerprint: str) -> None:
        """Record which model is answering: registry version (if any) + fingerprint."""
        with self._lock:
            self.model_version = version
            self.model_fingerprint = fingerprint

    # ------------------------------------------------------------ stages

    def _stage_locked(self, stage: str) -> LatencyHistogram:
        histogram = self._stages.get(stage)
        if histogram is None:
            histogram = self._stages[stage] = LatencyHistogram()
        return histogram

    def observe_stage(self, stage: str, seconds: float) -> None:
        """Fold one stage duration into its latency histogram."""
        with self._lock:
            self._stage_locked(stage).observe(seconds)

    def stage_histograms(self) -> dict[str, dict]:
        """JSON-ready per-stage histogram snapshots, sorted by stage name."""
        with self._lock:
            return {name: self._stages[name].snapshot() for name in sorted(self._stages)}

    # ------------------------------------------------------------ derived

    @property
    def responses_total(self) -> int:
        """Answered requests, cache hits included (the ``request`` histogram's count)."""
        with self._lock:
            histogram = self._stages.get("request")
            return histogram.count if histogram is not None else 0

    @property
    def cache_hits(self) -> int:
        """Requests answered from the result cache, over every operation."""
        with self._lock:
            return sum(self.cache_hits_by_op.values())

    @property
    def batches_total(self) -> int:
        """Micro-batcher flushes (the batch-size histogram's total)."""
        with self._lock:
            return sum(self.batch_sizes.values())

    @property
    def uptime_seconds(self) -> float:
        return max(self._clock() - self.started_at, 1e-9)

    @property
    def throughput_mb_s(self) -> float:
        """Accepted payload bytes per second over the whole serving window."""
        return self.bytes_total / self.uptime_seconds / 1e6

    @property
    def requests_per_second(self) -> float:
        """Admitted requests per second over the whole serving window.

        The denominator the per-source rates of ``GET /stats`` are read
        against — a language-mix share only means something at a known
        request rate.
        """
        return self.requests_total / self.uptime_seconds

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            total = sum(size * count for size, count in self.batch_sizes.items())
            batches = self.batches_total
            return total / batches if batches else 0.0

    def latency_percentiles(self, qs=QUANTILES) -> dict[str, float]:
        """Seconds at each requested percentile of end-to-end request latency.

        Interpolated from the ``request`` stage histogram; keys keep the
        historical ``p50`` style (the text exposition uses spec-conformant
        ``quantile="0.5"`` labels instead).
        """
        with self._lock:
            histogram = self._stages.get("request")
            if histogram is None:
                return {f"p{q:g}": 0.0 for q in qs}
            return {f"p{q:g}": histogram.percentile(q) for q in qs}

    def batch_size_histogram(self) -> dict[int, int]:
        """Exact ``batch size -> flush count`` mapping, sorted by batch size."""
        with self._lock:
            return dict(sorted(self.batch_sizes.items()))

    # ------------------------------------------------------------ export

    def snapshot(self) -> dict:
        """JSON-ready view of every metric (served by ``GET /metrics``).

        Taken under the metrics lock, so the counters in one snapshot are
        mutually consistent even while replica threads keep recording.
        """
        with self._lock:
            latencies = self.latency_percentiles()
            return {
                "uptime_seconds": self.uptime_seconds,
                "requests_per_second": self.requests_per_second,
                "requests_total": self.requests_total,
                "responses_total": self.responses_total,
                "segment_requests_total": self.segment_requests_total,
                "cache_hits": self.cache_hits,
                "cache_hits_total": dict(sorted(self.cache_hits_by_op.items())),
                "cache_misses_total": dict(sorted(self.cache_misses_by_op.items())),
                "rejected_overload": self.rejected_overload,
                "rejected_too_large": self.rejected_too_large,
                "errors_total": self.errors_total,
                "abstentions_total": self.abstentions_total,
                "abstentions_by_reason": dict(sorted(self.abstentions_by_reason.items())),
                "ensemble_votes_total": self.ensemble_votes_total,
                "ensemble_unanimous_total": self.ensemble_unanimous_total,
                "batches_total": self.batches_total,
                "worker_respawns_total": self.worker_respawns_total,
                "model_swaps_total": self.model_swaps_total,
                "model_version": self.model_version,
                "model_fingerprint": self.model_fingerprint,
                "mean_batch_size": self.mean_batch_size,
                "batch_size_histogram": {
                    str(size): count for size, count in self.batch_size_histogram().items()
                },
                "bytes_total": self.bytes_total,
                "throughput_mb_s": self.throughput_mb_s,
                "latency_seconds": latencies,
                "latency_ms": {name: 1e3 * value for name, value in latencies.items()},
                "stage_latency_seconds": self.stage_histograms(),
            }

    #: scalar sample name -> (HELP text, TYPE); ordered as rendered
    _SCALARS = {
        "uptime_seconds": ("Seconds since the service metrics started.", "gauge"),
        "requests_per_second": ("Admitted requests/s over the serving window.", "gauge"),
        "requests_total": ("Admitted requests (classify + segment).", "counter"),
        "responses_total": ("Answered requests, including cache hits.", "counter"),
        "segment_requests_total": ("Admitted segmentation requests.", "counter"),
        "cache_hits": ("Responses answered from the LRU result cache.", "counter"),
        "rejected_overload": ("Requests rejected by queue backpressure (429).", "counter"),
        "rejected_too_large": ("Requests rejected for oversized documents (413).", "counter"),
        "errors_total": ("Requests failed other than by a rejection (500).", "counter"),
        "abstentions_total": ("Ensemble classify responses that abstained (und).", "counter"),
        "ensemble_votes_total": ("Ensemble responses with at least one member vote.", "counter"),
        "ensemble_unanimous_total": ("Ensemble responses with unanimous member votes.", "counter"),
        "batches_total": ("Micro-batcher flushes handed to a replica.", "counter"),
        "worker_respawns_total": ("Crashed replica workers replaced.", "counter"),
        "model_swaps_total": ("Completed blue/green model swaps.", "counter"),
        "mean_batch_size": ("Mean documents per flushed batch.", "gauge"),
        "bytes_total": ("Admitted document payload bytes.", "counter"),
        "throughput_mb_s": ("Admitted MB/s over the serving window.", "gauge"),
    }

    def render_text(self) -> str:
        """Prometheus text exposition with HELP/TYPE lines.

        Rendered from a *single* :meth:`snapshot`, so every sample — scalars,
        the batch-size histogram, the per-stage latency histograms and the
        quantile summary — describes the same instant; concurrent recording
        can never make ``batch_size_total`` disagree with ``batches_total``
        within one scrape.
        """
        snapshot = self.snapshot()
        lines = []
        for name, (help_text, metric_type) in self._SCALARS.items():
            lines.append(f"# HELP repro_serve_{name} {help_text}")
            lines.append(f"# TYPE repro_serve_{name} {metric_type}")
            lines.append(f"repro_serve_{name} {snapshot[name]}")
        lines.append("# HELP repro_serve_model_info Active model version and fingerprint.")
        lines.append("# TYPE repro_serve_model_info gauge")
        lines.append(
            "repro_serve_model_info"
            f'{{version="{snapshot["model_version"] or ""}"'
            f',fingerprint="{snapshot["model_fingerprint"] or ""}"}} 1'
        )
        lines.append(
            "# HELP repro_serve_latency_seconds End-to-end request latency quantiles."
        )
        lines.append("# TYPE repro_serve_latency_seconds summary")
        for q in self.QUANTILES:
            value = snapshot["latency_seconds"][f"p{q:g}"]
            lines.append(
                f'repro_serve_latency_seconds{{quantile="{q / 100.0:g}"}} {value}'
            )
        lines.append(
            "# HELP repro_serve_abstentions_by_reason_total "
            "Ensemble abstentions by reason (too_short/low_alpha_rate/tie/no_votes)."
        )
        lines.append("# TYPE repro_serve_abstentions_by_reason_total counter")
        for reason, count in snapshot["abstentions_by_reason"].items():
            lines.append(
                f'repro_serve_abstentions_by_reason_total{{reason="{reason}"}} {count}'
            )
        lines.append("# HELP repro_serve_cache_hits_total Result-cache hits by operation.")
        lines.append("# TYPE repro_serve_cache_hits_total counter")
        for op, count in snapshot["cache_hits_total"].items():
            lines.append(f'repro_serve_cache_hits_total{{op="{op}"}} {count}')
        lines.append(
            "# HELP repro_serve_cache_misses_total Result-cache misses by operation."
        )
        lines.append("# TYPE repro_serve_cache_misses_total counter")
        for op, count in snapshot["cache_misses_total"].items():
            lines.append(f'repro_serve_cache_misses_total{{op="{op}"}} {count}')
        lines.append("# HELP repro_serve_batch_size_total Flush count by batch size.")
        lines.append("# TYPE repro_serve_batch_size_total counter")
        for size, count in snapshot["batch_size_histogram"].items():
            lines.append(f'repro_serve_batch_size_total{{size="{size}"}} {count}')
        lines.append(
            "# HELP repro_serve_stage_duration_seconds "
            "Per-stage pipeline latency (see /debug/traces for exemplars)."
        )
        lines.append("# TYPE repro_serve_stage_duration_seconds histogram")
        for stage, histogram in snapshot["stage_latency_seconds"].items():
            for le, cumulative in histogram["buckets"].items():
                lines.append(
                    "repro_serve_stage_duration_seconds_bucket"
                    f'{{stage="{stage}",le="{le}"}} {cumulative}'
                )
            lines.append(
                f'repro_serve_stage_duration_seconds_sum{{stage="{stage}"}} '
                f"{histogram['sum']}"
            )
            lines.append(
                f'repro_serve_stage_duration_seconds_count{{stage="{stage}"}} '
                f"{histogram['count']}"
            )
        return "\n".join(lines) + "\n"
