"""`ClassificationService` — the programmatic face of the serving subsystem.

Wires the pieces together the way Section 5.4's asynchronous driver wires the
XD1000: submissions land in bounded per-replica queues
(:class:`~repro.serve.batcher.MicroBatcher`), each queue drains through its
replica's vectorized ``classify_batch`` in a dedicated thread
(:class:`~repro.serve.replicas.ReplicaPool`), results resolve the caller's
futures, and an LRU cache short-circuits repeated documents before they ever
reach a queue.  Every decision is observable through
:class:`~repro.serve.metrics.ServiceMetrics`.

Typical use::

    service = ClassificationService(identifier, ServeConfig(max_batch=128))
    async with service:
        result = await service.classify("quel est ce document ?")

Shutdown is graceful by contract: ``close()`` stops admissions, drains every
queued request through the engine, then joins the worker threads.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Sequence

from repro.analytics import AnalyticsConfig, AnalyticsHook
from repro.api.identifier import LanguageIdentifier
from repro.core.classifier import ClassificationResult
from repro.obs import TraceConfig, TraceContext, Tracer
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache, model_fingerprint, text_digest
from repro.serve.errors import (
    RequestTooLargeError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.process_pool import ProcessReplicaPool
from repro.serve.replicas import SHARDING_DISCIPLINES, ReplicaPoolBase, ThreadReplicaPool

__all__ = ["ServeConfig", "ClassificationService", "EXECUTORS"]

#: replica execution tiers: GIL-bound worker threads vs true multi-core processes
EXECUTORS = ("thread", "process")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`ClassificationService`.

    Attributes
    ----------
    max_batch:
        Largest batch handed to ``classify_batch`` (the size flush trigger).
    max_delay_ms:
        Longest a request may wait for its batch to fill (the deadline flush
        trigger); the knee of the latency/throughput trade-off.
    replicas:
        Number of independent model replicas classifying concurrently.
    executor:
        ``"thread"`` runs replicas on worker threads (cheap start-up, but
        CPU-bound work serialises on the GIL); ``"process"`` runs them as
        worker processes sharing one shared-memory model copy — true
        multi-core scaling (see :class:`~repro.serve.process_pool.ProcessReplicaPool`).
    sharding:
        ``"round-robin"`` rotation or ``"hash"`` (shard by document digest).
    cache_size:
        LRU result-cache entries; 0 disables caching.
    max_pending:
        Bound on queued requests per replica; beyond it submissions are
        rejected with :class:`~repro.serve.errors.ServiceOverloadedError`.
    max_document_bytes:
        Largest accepted document; larger ones are rejected with
        :class:`~repro.serve.errors.RequestTooLargeError`.
    trace_sample_rate:
        Probability a request's trace is retained in the exemplar ring served
        by ``GET /debug/traces`` (``repro serve --trace-sample-rate``).
        Per-stage latency histograms cover *every* request regardless.
    trace_slow_ms:
        Requests slower than this are retained even when not sampled
        (always-keep slow exemplars); ``float("inf")`` disables the rule.
    trace_ring_size:
        Bound on retained exemplar traces (most recent win).
    analytics:
        Whether the service folds every classification response into the
        per-source traffic-analytics plane (:mod:`repro.analytics`) behind
        ``GET /stats`` — measured overhead is gated ≤5%
        (``benchmarks/test_analytics_overhead.py``); ``repro serve --no-analytics``
        turns it off.
    analytics_config:
        Optional :class:`~repro.analytics.AnalyticsConfig` overriding the
        window width / ring size / drift thresholds.
    analytics_quality_sample_every:
        Scan every K-th document per source for the alphabetical-rate quality
        metric — the only analytics cost proportional to document length.
    """

    max_batch: int = 64
    max_delay_ms: float = 2.0
    replicas: int = 1
    executor: str = "thread"
    sharding: str = "round-robin"
    cache_size: int = 1024
    max_pending: int = 1024
    max_document_bytes: int = 1 << 20
    trace_sample_rate: float = 0.01
    trace_slow_ms: float = 250.0
    trace_ring_size: int = 256
    analytics: bool = True
    analytics_config: AnalyticsConfig | None = None
    analytics_quality_sample_every: int = 8

    def trace_config(self) -> TraceConfig:
        """The retention policy these knobs describe (validates them too)."""
        return TraceConfig(
            sample_rate=self.trace_sample_rate,
            slow_threshold_ms=self.trace_slow_ms,
            ring_size=self.trace_ring_size,
        )

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")
        if self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if self.replicas <= 0:
            raise ValueError("replicas must be positive")
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r}; choose from {list(EXECUTORS)}"
            )
        if self.sharding not in SHARDING_DISCIPLINES:
            raise ValueError(
                f"unknown sharding discipline {self.sharding!r}; "
                f"choose from {list(SHARDING_DISCIPLINES)}"
            )
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        if self.max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if self.max_document_bytes <= 0:
            raise ValueError("max_document_bytes must be positive")
        if self.analytics_quality_sample_every < 1:
            raise ValueError("analytics_quality_sample_every must be at least 1")
        self.trace_config()  # delegate the tracing-knob validation


class ClassificationService:
    """Async micro-batching language-classification service.

    Parameters
    ----------
    model:
        A trained :class:`~repro.api.identifier.LanguageIdentifier`, or a path
        to a saved ``.npz`` model artifact (loaded on construction).
    config:
        The :class:`ServeConfig`; defaults favour throughput with a 2 ms
        latency budget.
    cache:
        Optional pre-existing :class:`~repro.serve.cache.ResultCache` to reuse
        (e.g. kept warm across a model reload).  Safe by construction: every
        key is prefixed with the model's fingerprint, so entries written by a
        different model can never be replayed by this one.
    model_version:
        Optional registry version name (e.g. ``"v000003"``) of the model;
        reported by ``/healthz`` and ``/metrics`` and updated by
        :meth:`swap_model`.
    logger:
        Optional :class:`~repro.obs.logging.JsonLogger`; when present the
        service emits one structured JSON line per request and per lifecycle
        event (model swaps, worker respawns, rejections) — ``repro serve
        --log-json``.
    tracer:
        Optional pre-built :class:`~repro.obs.trace.Tracer` (tests inject a
        deterministic one); by default one is constructed from the config's
        ``trace_*`` knobs, wired to this service's metrics and logger.
    analytics:
        Optional pre-built :class:`~repro.analytics.AnalyticsHook` (tests
        inject one with a deterministic clock); by default one is constructed
        from the config's ``analytics_*`` knobs when ``config.analytics`` is
        on.  Every classification response — cache hits included — is folded
        into its per-source stream stats, served by ``GET /stats``.
    """

    def __init__(
        self,
        model: LanguageIdentifier | str | Path,
        config: ServeConfig | None = None,
        cache: ResultCache | None = None,
        model_version: str | None = None,
        logger=None,
        tracer: Tracer | None = None,
        analytics: AnalyticsHook | None = None,
    ):
        if isinstance(model, (str, Path)):
            model = LanguageIdentifier.load(model)
        if not model.is_trained:
            raise RuntimeError("the service needs a trained model; call train() first")
        self.identifier = model
        self.config = config if config is not None else ServeConfig()
        self.metrics = ServiceMetrics()
        self.logger = logger
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(self.config.trace_config(), metrics=self.metrics, logger=logger)
        )
        if analytics is not None:
            self.analytics: AnalyticsHook | None = analytics
        elif self.config.analytics:
            self.analytics = AnalyticsHook(
                self.config.analytics_config,
                quality_sample_every=self.config.analytics_quality_sample_every,
                logger=logger,
            )
        else:
            self.analytics = None
        # pre-bound record method (or None): _submit_traced calls this once
        # per classification response, where a wrapper frame is measurable
        self._analytics_record = (
            self.analytics.record if self.analytics is not None else None
        )
        self.cache = cache if cache is not None else ResultCache(self.config.cache_size)
        # Cache keys are (model fingerprint || document digest): a restart with
        # a different model fingerprints differently, so stale replays are
        # structurally impossible even on a shared/warmed cache.
        self._fingerprint = model_fingerprint(model)
        # Prior-aware backends (the ensemble) may answer differently per
        # source tag, so their cache keys must cover the source — otherwise a
        # result computed for source A would be replayed for source B.
        self._source_aware = model.config.backend == "ensemble"
        self.model_version = model_version
        self.metrics.set_model_info(model_version, self._fingerprint.hex())
        #: optional :class:`~repro.registry.switch.ModelSwitch` wired in by the
        #: CLI/HTTP tier when the service fronts a model registry
        self.switch = None
        self._pool: ReplicaPoolBase | None = None
        self._batchers: list[MicroBatcher] = []
        self._segment_batchers: list[MicroBatcher] = []
        self._swap_lock = asyncio.Lock()
        self._started = False
        self._closing = False

    # ------------------------------------------------------------ lifecycle

    @property
    def is_running(self) -> bool:
        return self._started and not self._closing

    async def start(self) -> "ClassificationService":
        """Build the replica pool and start one micro-batcher per replica."""
        if self._started:
            return self
        if self.config.executor == "process":
            self._pool = ProcessReplicaPool(
                self.identifier,
                self.config.replicas,
                on_respawn=self._handle_respawn,
            )
        else:
            self._pool = ThreadReplicaPool(self.identifier, self.config.replicas)
        self._batchers = []
        self._segment_batchers = []
        for replica_index in range(self.config.replicas):
            # Classification and segmentation each get their own queue per
            # replica so one workload's deadline flushes never carry the
            # other's requests; both drain through the same replica engine.
            batcher = MicroBatcher(
                self._make_flush(replica_index),
                max_batch=self.config.max_batch,
                max_delay=self.config.max_delay_ms / 1e3,
                max_pending=self.config.max_pending,
            )
            batcher.start()
            self._batchers.append(batcher)
            segment_batcher = MicroBatcher(
                self._make_segment_flush(replica_index),
                max_batch=self.config.max_batch,
                max_delay=self.config.max_delay_ms / 1e3,
                max_pending=self.config.max_pending,
            )
            segment_batcher.start()
            self._segment_batchers.append(segment_batcher)
        self._started = True
        self._closing = False
        return self

    async def close(self) -> None:
        """Graceful shutdown: reject new work, drain in-flight batches, join workers."""
        if not self._started or self._closing:
            return
        self._closing = True
        for batcher in (*self._batchers, *self._segment_batchers):
            await batcher.close()
        if self._pool is not None:
            # Pool shutdown blocks (joins threads or worker processes); keep
            # the event loop responsive while it happens.
            await asyncio.get_running_loop().run_in_executor(None, self._pool.close)
        self._started = False

    async def __aenter__(self) -> "ClassificationService":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    def _handle_respawn(self, replica_index: int | None = None) -> None:
        """A crashed replica worker was replaced: count it and log it.

        Called from a dispatcher thread mid-crash, so this must stay cheap
        and must never raise.
        """
        self.metrics.record_worker_respawn()
        if self.logger is not None:
            self.logger.event("worker_respawn", replica=replica_index)

    # ------------------------------------------------------------ model swap

    async def swap_model(
        self,
        model: LanguageIdentifier | str | Path,
        version: str | None = None,
    ) -> dict:
        """Blue/green hot swap: roll the running service onto a new model.

        The pool rolls its replicas over one at a time (see
        :meth:`~repro.serve.replicas.ReplicaPoolBase.swap_model`), so
        classification keeps flowing throughout: requests already in flight
        complete on the old (blue) model, requests admitted after the roll
        answer from the new (green) one, and no request is ever dropped.  On
        success the retired model's cache entries are evicted by fingerprint
        prefix, the metrics model-info/``model_swaps_total`` are updated, and
        a small report is returned.  On failure the pool has already rolled
        back — the service keeps serving the old model unchanged.
        """
        if isinstance(model, (str, Path)):
            model = LanguageIdentifier.load(model)
        if not model.is_trained:
            raise RuntimeError("cannot swap to an untrained model")
        async with self._swap_lock:
            if not self.is_running:
                raise ServiceClosedError("cannot swap models on a stopped service")
            old_fingerprint = self._fingerprint
            old_version = self.model_version
            await self._pool.swap_model(model)
            # Past this point every replica answers with the new model; the
            # bookkeeping below only has to catch up.
            self.identifier = model
            self._fingerprint = model_fingerprint(model)
            self._source_aware = model.config.backend == "ensemble"
            self.model_version = version
            evicted = self.cache.evict_fingerprint(old_fingerprint)
            self.metrics.record_model_swap()
            self.metrics.set_model_info(version, self._fingerprint.hex())
            if self.logger is not None:
                self.logger.event(
                    "model_swap",
                    from_version=old_version,
                    from_fingerprint=old_fingerprint.hex(),
                    to_version=version,
                    to_fingerprint=self._fingerprint.hex(),
                    cache_entries_evicted=evicted,
                )
            return {
                "from": {
                    "version": old_version,
                    "fingerprint": old_fingerprint.hex(),
                },
                "to": {
                    "version": version,
                    "fingerprint": self._fingerprint.hex(),
                    "languages": model.languages,
                },
                "cache_entries_evicted": evicted,
                "model_swaps_total": self.metrics.model_swaps_total,
            }

    # ------------------------------------------------------------ classification

    def _open_batch(self, items: Sequence, replica_index: int):
        """Unpack a flushed batch of ``(text, ctx, source)`` triples and stamp its traces.

        Every trace riding the batch closes its ``queue_wait`` span at one
        shared instant (the flush began for all of them at once), learns which
        replica and batch it landed in, then closes ``batch_assembly`` once the
        unpacking/bookkeeping is done — so the spans keep tiling the timeline.
        """
        flushed_at = time.perf_counter()
        texts = [item[0] for item in items]
        contexts = [item[1] for item in items]
        sources = [item[2] for item in items]
        self.metrics.record_batch(len(texts))
        assembled_at = time.perf_counter()
        for ctx in contexts:
            if ctx is None:
                continue
            ctx.stage("queue_wait", now=flushed_at)
            ctx.note(replica=replica_index, batch_size=len(texts))
            ctx.stage("batch_assembly", now=assembled_at)
        return texts, contexts, sources

    def _make_flush(self, replica_index: int):
        async def flush(items: Sequence) -> Sequence[ClassificationResult]:
            texts, contexts, sources = self._open_batch(items, replica_index)
            return await self._pool.classify_batch(
                replica_index, texts, contexts, sources
            )

        return flush

    def _make_segment_flush(self, replica_index: int):
        async def flush(items: Sequence) -> Sequence:
            texts, contexts, _sources = self._open_batch(items, replica_index)
            return await self._pool.segment_batch(replica_index, texts, contexts)

        return flush

    def _document_bytes(self, text: str | bytes) -> int:
        return len(text) if isinstance(text, (bytes, bytearray)) else len(text.encode("utf-8"))

    def _pick_batcher(self, batchers: list[MicroBatcher], digest: bytes) -> MicroBatcher:
        if self.config.sharding == "hash":
            return batchers[self._pool.shard_for(digest)]
        return batchers[self._pool.next_round_robin()]

    async def _submit(
        self,
        text: str | bytes,
        batchers: list[MicroBatcher],
        kind: str,
        source: str | None = None,
    ):
        result, _ctx = await self._submit_traced(text, batchers, kind, source)
        return result

    def _reject(self, ctx: TraceContext, kind: str, reason: str, **fields) -> None:
        self.metrics.record_rejection(reason)
        if self.logger is not None:
            self.logger.event(
                "rejection", request_id=ctx.trace_id, kind=kind, reason=reason, **fields
            )


    async def _submit_traced(
        self,
        text: str | bytes,
        batchers: list[MicroBatcher],
        kind: str,
        source: str | None = None,
    ) -> tuple:
        """The shared admission pipeline: size check, cache, micro-batch, record.

        Every request is minted a :class:`~repro.obs.trace.TraceContext` whose
        spans tile its lifetime — admission, cache_lookup, then (on a miss)
        queue_wait / batch_assembly / ipc_roundtrip / kernel stamped by the
        flush path, and finally respond.  Returns ``(result, context)``; errors
        carry the request id out via ``ServeError.request_id`` and close the
        trace with an ``error:*`` status.
        """
        if not self.is_running:
            raise ServiceClosedError("service is not running; use 'async with' or start()")
        ctx = self.tracer.begin(kind)
        try:
            n_bytes = self._document_bytes(text)
            if n_bytes > self.config.max_document_bytes:
                self._reject(ctx, kind, "too-large", bytes=n_bytes)
                raise RequestTooLargeError(
                    f"document of {n_bytes} bytes exceeds the "
                    f"{self.config.max_document_bytes}-byte limit"
                )
            digest = text_digest(text)
            # The op name is baked into the key so a classify result can never
            # be replayed for a segment request (and vice versa) on the shared
            # cache.
            cache_key = self._fingerprint + kind.encode("ascii") + b":" + digest
            if self._source_aware and kind == "classify":
                # Prior-aware model: the answer may depend on the source tag,
                # so the tag joins the key (untagged traffic keys separately).
                tag = source.encode("utf-8") if source is not None else b""
                cache_key += b"|src:" + tag
            if source is not None:
                ctx.note(source=source)
            ctx.stage("admission")
            cached = self.cache.get(cache_key, op=kind)
            self.metrics.record_cache_lookup(kind, hit=cached is not None)
            ctx.stage("cache_lookup")
            if cached is not None:
                self.metrics.record_request(n_bytes, kind=kind)
                self.tracer.finish(ctx, cached=True)
                self.metrics.record_response(ctx.duration_seconds, cached=True)
                # analytics plane: only classify responses carry the
                # (language, confidence) pair the stream stats are built on;
                # cache hits included so /stats shows the effective mix
                if kind == "classify":
                    self.metrics.record_ensemble_result(cached)
                    if self._analytics_record is not None:
                        self._analytics_record(cached, source, text, None, True)
                return cached, ctx
            try:
                future = self._pick_batcher(batchers, digest).submit_nowait(
                    (text, ctx, source)
                )
            except ServiceOverloadedError:
                self._reject(ctx, kind, "overload")
                raise
            # admitted: requests_total / bytes_total count only documents the
            # service accepted, so rejections never inflate throughput_mb_s
            self.metrics.record_request(n_bytes, kind=kind)
            result = await future
            self.cache.put(cache_key, result)
            self.tracer.finish(ctx)
            self.metrics.record_response(ctx.duration_seconds)
            if kind == "classify":
                self.metrics.record_ensemble_result(result)
                if self._analytics_record is not None:
                    self._analytics_record(result, source, text, None, False)
            return result, ctx
        except BaseException as exc:
            if isinstance(exc, ServeError):
                exc.request_id = ctx.trace_id
            if ctx.duration_seconds is None:  # not finished by a success path
                self.tracer.finish(ctx, status=f"error:{type(exc).__name__}")
            raise

    async def classify(
        self, text: str | bytes, source: str | None = None
    ) -> ClassificationResult:
        """Classify one document through the cache + micro-batch pipeline.

        ``source`` attributes the document to a traffic source in the
        analytics plane (``GET /stats``) and on its trace; unattributed
        traffic lands under :data:`~repro.analytics.DEFAULT_SOURCE`.

        Raises
        ------
        ServiceClosedError
            If the service is not running (not started, or shutting down).
        RequestTooLargeError
            If the document exceeds ``max_document_bytes``.
        ServiceOverloadedError
            If the target replica's queue is full (backpressure).
        """
        return await self._submit(text, self._batchers, "classify", source)

    async def classify_traced(
        self, text: str | bytes, source: str | None = None
    ) -> tuple[ClassificationResult, TraceContext]:
        """:meth:`classify`, returning ``(result, trace_context)``.

        The context carries the request id (the HTTP layer's ``X-Request-Id``)
        and the per-stage span waterfall; same exception contract as
        :meth:`classify`.
        """
        return await self._submit_traced(text, self._batchers, "classify", source)

    async def classify_many(
        self, texts: Sequence[str | bytes], source: str | None = None
    ) -> list[ClassificationResult]:
        """Classify several documents concurrently (one result per input, in order)."""
        return list(
            await asyncio.gather(*(self.classify(text, source) for text in texts))
        )

    async def classify_many_traced(
        self, texts: Sequence[str | bytes], source: str | None = None
    ) -> list[tuple[ClassificationResult, TraceContext]]:
        """:meth:`classify_many`, returning ``(result, trace_context)`` pairs."""
        return list(
            await asyncio.gather(*(self.classify_traced(text, source) for text in texts))
        )

    async def segment(self, text: str | bytes):
        """Segment one mixed-language document into single-language spans.

        Shares the classification pipeline end to end — cache (op-prefixed
        keys), micro-batching (a dedicated per-replica queue), replica pools
        under both executors, and the same rejection contract
        (:class:`ServiceClosedError` / :class:`RequestTooLargeError` /
        :class:`ServiceOverloadedError`).  Returns a
        :class:`~repro.segment.types.SegmentationResult`.
        """
        return await self._submit(text, self._segment_batchers, "segment")

    async def segment_traced(self, text: str | bytes) -> tuple:
        """:meth:`segment`, returning ``(result, trace_context)``."""
        return await self._submit_traced(text, self._segment_batchers, "segment")

    async def segment_many(self, texts: Sequence[str | bytes]) -> list:
        """Segment several documents concurrently (one result per input, in order)."""
        return list(await asyncio.gather(*(self.segment(text) for text in texts)))

    async def segment_many_traced(self, texts: Sequence[str | bytes]) -> list[tuple]:
        """:meth:`segment_many`, returning ``(result, trace_context)`` pairs."""
        return list(await asyncio.gather(*(self.segment_traced(text) for text in texts)))

    # ------------------------------------------------------------ introspection

    @property
    def languages(self) -> list[str]:
        return self.identifier.languages

    def describe(self) -> dict:
        """Service topology + saturation + model description (``GET /healthz``).

        Load balancers get leading indicators, not just ``"ok"``: the live
        queue depth (total and per replica), how long the oldest queued
        request has waited, and per-worker replica liveness — so saturation
        and a dying worker fleet are visible *before* overload rejections or
        crashed batches start.
        """
        snapshot = self.metrics.snapshot()
        info = {
            "status": "ok" if self.is_running else "stopped",
            "languages": self.languages,
            "backend": self.identifier.config.backend,
            "uptime_seconds": snapshot["uptime_seconds"],
            "requests_per_second": snapshot["requests_per_second"],
            "analytics": self.analytics is not None,
            "max_batch": self.config.max_batch,
            "max_delay_ms": self.config.max_delay_ms,
            "replicas": self.config.replicas,
            "executor": self.config.executor,
            "sharding": self.config.sharding,
            "cache": self.cache.stats(),
            "model_fingerprint": self._fingerprint.hex(),
            "model_version": self.model_version,
            "model_swaps_total": self.metrics.model_swaps_total,
            "tracing": self.tracer.describe(),
        }
        if self._pool is not None:
            all_batchers = (*self._batchers, *self._segment_batchers)
            info["pending"] = [len(batcher) for batcher in self._batchers]
            info["segment_pending"] = [len(batcher) for batcher in self._segment_batchers]
            info["queue_depth"] = sum(len(batcher) for batcher in all_batchers)
            info["oldest_wait_ms"] = 1e3 * max(
                (batcher.oldest_wait_seconds() for batcher in all_batchers), default=0.0
            )
            info["pool"] = self._pool.describe()
        return info
