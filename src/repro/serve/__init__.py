"""repro.serve — the asynchronous micro-batching classification service.

A software realisation of the paper's Section 5.4 result: the asynchronous
host driver nearly doubled throughput (~228 → ~470 MB/s) by decoupling
document submission from result collection so the engine never waits.  This
subsystem applies the same architecture to the software engine:

:class:`~repro.serve.batcher.MicroBatcher`
    Bounded request queue flushed by size (``max_batch``) or deadline
    (``max_delay_ms``) into the vectorized ``classify_batch`` path.
:class:`~repro.serve.replicas.ThreadReplicaPool`
    One model replica run inline on the serving thread — no hand-off, but
    the kernel blocks the event loop while it runs.
:class:`~repro.serve.process_pool.ProcessReplicaPool`
    N worker *processes* mapping one private ``model.bin`` file written by
    the pool, dispatched round-robin — multi-core scaling with crash
    detection and respawn, and the event loop stays free while batches run.
:class:`~repro.serve.cache.ResultCache`
    LRU result cache keyed on (model fingerprint, document digest).
:class:`~repro.serve.metrics.ServiceMetrics`
    Request counters, batch-size histogram, per-stage bucketed latency
    histograms (p50/p95/p99 interpolated), MB/s, Prometheus exposition.
:class:`~repro.serve.service.ClassificationService`
    The programmatic API tying the above together with explicit backpressure
    and graceful draining shutdown (``executor="thread"|"process"``).
:func:`~repro.serve.http.serve_http`
    Stdlib-only JSON/HTTP front-end (``POST /classify``, ``POST /segment``,
    ``GET /healthz``, ``GET /metrics``, ``GET /stats``,
    ``GET /debug/traces``); also exposed as ``python -m repro serve``.
    Segmentation requests flow through the same cache / micro-batch / replica
    pipeline as classification (dedicated per-replica queues, op-prefixed
    cache keys) under both executors.

Observability is a first-class layer (:mod:`repro.obs`): every request is
minted a :class:`~repro.obs.trace.TraceContext` whose per-stage spans tile
its lifetime, exemplar traces are retained in a bounded ring behind
``GET /debug/traces``, responses carry ``X-Request-Id``, and
``repro serve --log-json`` streams structured lifecycle events.  The
content-level counterpart is the traffic-analytics plane
(:mod:`repro.analytics`): an :class:`~repro.analytics.hook.AnalyticsHook`
folds every classify result into per-source language-mix / confidence /
quality statistics and time-bucketed drift windows, served by ``GET /stats``
and as gauges in ``GET /metrics`` (disable with ``ServeConfig(analytics=
False)`` or ``repro serve --no-analytics``).

The ``confidence`` field in ``/classify`` responses is the raw normalized
separation score, and its relationship to actual correctness is *measured*,
not assumed: :mod:`repro.eval` sweeps accuracy and expected calibration error
across noise scenarios and document lengths (``repro evaluate``), and its
:class:`~repro.eval.calibration.ConfidenceCalibrator` maps the raw score to an
empirical P(correct) for consumers that need a probability.
"""

from __future__ import annotations

from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResultCache, model_fingerprint, text_digest
from repro.serve.errors import (
    RequestTooLargeError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    WorkerCrashedError,
)
from repro.serve.http import result_to_json, segmentation_to_json, serve_http
from repro.serve.metrics import ServiceMetrics
from repro.serve.process_pool import ProcessReplicaPool
from repro.serve.replicas import ReplicaPoolBase, ThreadReplicaPool
from repro.serve.service import EXECUTORS, ClassificationService, ServeConfig

__all__ = [
    "MicroBatcher",
    "ResultCache",
    "text_digest",
    "model_fingerprint",
    "ServeError",
    "ServiceOverloadedError",
    "ServiceClosedError",
    "RequestTooLargeError",
    "WorkerCrashedError",
    "ServiceMetrics",
    "ReplicaPoolBase",
    "ThreadReplicaPool",
    "ProcessReplicaPool",
    "ClassificationService",
    "ServeConfig",
    "EXECUTORS",
    "serve_http",
    "result_to_json",
    "segmentation_to_json",
]
