"""repro.obs — end-to-end request tracing and structured telemetry.

The observability layer of the serving tier (:mod:`repro.serve`):

:class:`~repro.obs.trace.TraceContext`
    One request's identity (``X-Request-Id``) and its per-stage span
    timeline — admission, cache_lookup, queue_wait, batch_assembly,
    ipc_roundtrip, kernel, respond, serialize — recorded by checkpoint
    chaining so the spans tile the end-to-end latency exactly.
:class:`~repro.obs.trace.Tracer`
    Mints contexts at admission, retains exemplar traces (probabilistic
    sample + always-keep-slow) in a bounded ring served by
    ``GET /debug/traces``, and logs one ``request`` line per finished
    trace.  The service's exit, not the tracer, feeds each request's stage
    timings into the histograms of
    :class:`~repro.serve.metrics.ServiceMetrics`.
:class:`~repro.obs.logging.JsonLogger`
    One structured JSON line per request / lifecycle event (swaps,
    respawns, rejections) — ``repro serve --log-json``.  The analytics
    plane (:mod:`repro.analytics`) logs through the same sink:
    ``drift_alarm`` when the language-mix / mean-confidence drift check
    first trips and ``drift_clear`` when it recovers (edge-triggered, so a
    sustained alarm is two lines, not one per metrics scrape).

The trace rides the whole pipeline: the micro-batcher carries the context
with the queued document, the worker pipe frame protocol carries trace ids
into replica processes and kernel timings back out, and the HTTP layer
returns the id as an ``X-Request-Id`` response header.  Content-level
telemetry — what the *traffic* looks like rather than how the service is
behaving — lives in :mod:`repro.analytics` behind ``GET /stats``.
"""

from __future__ import annotations

from repro.obs.logging import JsonLogger
from repro.obs.trace import PIPELINE_STAGES, TraceConfig, TraceContext, Tracer, new_request_id

__all__ = [
    "PIPELINE_STAGES",
    "TraceConfig",
    "TraceContext",
    "Tracer",
    "JsonLogger",
    "new_request_id",
]
