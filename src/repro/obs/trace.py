"""Request tracing: per-stage spans threaded through the serving pipeline.

The paper judges its asynchronous host driver not only on realised throughput
(Figure 4) but on *where time goes* — how full the engine pipeline stays
versus how long documents sit in host-side queues (Section 5.4).  The serving
tier mirrors that decomposition in software: every request admitted to the
:class:`~repro.serve.service.ClassificationService` is minted a
:class:`TraceContext` whose lifetime is tiled into named stages:

``admission``
    Request validation and document digesting, from arrival to cache lookup.
``cache_lookup``
    The LRU :class:`~repro.serve.cache.ResultCache` probe.
``queue_wait``
    Time spent in the micro-batcher's bounded queue before the batch flushed
    (the host-side analogue of the paper's synchronous-driver dead time).
``batch_assembly``
    Flush bookkeeping between the queue pop and the replica dispatch.
``ipc_roundtrip``
    Transport overhead to the replica and back — ≈ 0 for the thread
    executor, whose kernel runs inline on the event loop; pipe serialisation
    + scheduling for worker processes — *excluding* the kernel time it
    brackets.
``kernel``
    The vectorized engine itself (``classify_batch`` / windowed segmentation),
    timed around the call itself (inside the worker process on the process
    tier) so serving overhead can never pollute it.
``respond``
    Future resolution and the cache store back on the event loop, up to the
    request's exit.
``serialize``
    JSON encoding at the HTTP layer (annotated after the trace closes).

Stages are recorded by *checkpoint chaining*: each call to
:meth:`TraceContext.stage` closes the span that started at the previous
checkpoint, so the spans tile the request's wall-clock exactly — the sum of
span durations equals the end-to-end latency by construction (``serialize``
extends both sides when the HTTP layer appends it).  That invariant is what
makes the waterfall trustworthy: there is no "unaccounted" bucket to hide
overhead in.

:class:`Tracer` decides which traces are *retained*: a probabilistic sample
(``sample_rate``) plus every request slower than ``slow_threshold_ms``
(always-keep exemplars — the traces you actually want when chasing a tail
latency).  Retained traces land in a bounded in-memory ring served by
``GET /debug/traces``.  The tracer keeps to sampling, the ring and the
``request`` log line: it feeds no metrics.  The service's exit hands every
finished trace's spans to :meth:`~repro.serve.metrics.ServiceMetrics.record_outcome`,
so the per-stage histograms cover *every* request regardless of sampling.
"""

from __future__ import annotations

import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass

__all__ = ["PIPELINE_STAGES", "TRACE_RING_SIZE", "TraceConfig", "TraceContext", "Tracer"]

#: every stage a fully-traced classify/segment request can record, in
#: pipeline order (cache hits stop after ``cache_lookup``)
PIPELINE_STAGES = (
    "admission",
    "cache_lookup",
    "queue_wait",
    "batch_assembly",
    "ipc_roundtrip",
    "kernel",
    "respond",
    "serialize",
)


#: bound on retained traces; the ring keeps the most recent
TRACE_RING_SIZE = 256


def new_request_id() -> str:
    """A 16-hex-digit request id (64 random bits — collision-safe at ring scale)."""
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceConfig:
    """Retention policy of one :class:`Tracer`.

    Attributes
    ----------
    sample_rate:
        Probability that a request's trace is retained in the ring (decided
        at admission).  ``0.0`` disables probabilistic sampling, ``1.0``
        retains everything.
    slow_threshold_ms:
        Requests whose end-to-end latency exceeds this are retained even when
        not sampled (slow exemplars).  ``float("inf")`` disables the rule.

    Retained traces live in a ring of :data:`TRACE_RING_SIZE`.
    """

    sample_rate: float = 0.01
    slow_threshold_ms: float = 250.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be between 0 and 1")
        if self.slow_threshold_ms < 0:
            raise ValueError("slow_threshold_ms must be non-negative")


class TraceContext:
    """One request's identity (request id) plus its per-stage span timeline.

    Spans are ``(stage, offset_seconds, duration_seconds)`` tuples with
    offsets relative to the trace start.  Recording is cheap — one
    ``perf_counter`` read and a tuple append per stage — so every request
    carries a context even when its trace will not be retained.
    """

    __slots__ = (
        "trace_id",
        "kind",
        "started_at",
        "sampled",
        "spans",
        "meta",
        "status",
        "duration_seconds",
        "_t0",
        "checkpoint",
    )

    def __init__(self, trace_id: str, kind: str, sampled: bool = False):
        self.trace_id = trace_id
        self.kind = kind
        self.started_at = time.time()
        self.sampled = sampled
        self.spans: list[tuple[str, float, float]] = []
        self.meta: dict = {}
        self.status = "ok"
        self.duration_seconds: float | None = None
        now = time.perf_counter()
        self._t0 = now
        #: end of the last recorded span; the next stage starts here
        self.checkpoint = now

    # ------------------------------------------------------------ recording

    def stage(self, name: str, now: float | None = None) -> None:
        """Close the span running since the last checkpoint under ``name``.

        ``now`` is clamped to the last checkpoint, so a span stamped in the
        future leaves the next span empty instead of negative.
        """
        if now is None:
            now = time.perf_counter()
        now = max(now, self.checkpoint)
        self.spans.append((name, self.checkpoint - self._t0, now - self.checkpoint))
        self.checkpoint = now

    def dispatch(self, kernel_seconds: float, now: float | None = None) -> None:
        """Split the window since the last checkpoint into transport + kernel.

        The replica pool knows the dispatch round-trip's wall time and the
        kernel time measured *inside* the worker; the difference is transport
        and scheduling overhead (``ipc_roundtrip``).  Both spans are recorded
        so they keep tiling the timeline — the kernel span is placed at the
        end of the window, where the engine actually ran.
        """
        if now is None:
            now = time.perf_counter()
        wall = now - self.checkpoint
        kernel = min(max(float(kernel_seconds), 0.0), max(wall, 0.0))
        offset = self.checkpoint - self._t0
        self.spans.append(("ipc_roundtrip", offset, wall - kernel))
        self.spans.append(("kernel", offset + (wall - kernel), kernel))
        self.checkpoint = now

    def note(self, **fields) -> None:
        """Attach metadata (replica index, batch size, worker pid, ...)."""
        self.meta.update(fields)

    def close(self, status: str = "ok", now: float | None = None) -> None:
        """Record the final ``respond`` span and fix the end-to-end latency."""
        if self.duration_seconds is not None:
            return
        self.stage("respond", now)
        self.status = status
        self.duration_seconds = self.checkpoint - self._t0

    def annotate(self, name: str, duration_seconds: float) -> None:
        """Append a post-close span (e.g. HTTP ``serialize``), extending e2e.

        The span starts where the trace previously ended and the end-to-end
        latency grows by the same amount, preserving the spans-tile-the-trace
        invariant.
        """
        if self.duration_seconds is None:
            raise RuntimeError("annotate() is for closed traces; use stage()")
        duration = max(float(duration_seconds), 0.0)
        self.spans.append((name, self.duration_seconds, duration))
        self.duration_seconds += duration

    # ------------------------------------------------------------ export

    def span_total_seconds(self) -> float:
        """Sum of span durations — equals :attr:`duration_seconds` by design."""
        return sum(duration for _name, _offset, duration in self.spans)

    def stages(self) -> list[str]:
        return [name for name, _offset, _duration in self.spans]

    def to_dict(self) -> dict:
        """JSON-ready waterfall (served by ``GET /debug/traces``)."""
        return {
            "request_id": self.trace_id,
            "kind": self.kind,
            "status": self.status,
            "sampled": self.sampled,
            "started_at": self.started_at,
            "duration_ms": 1e3 * (self.duration_seconds or 0.0),
            "spans": [
                {
                    "stage": name,
                    "offset_ms": 1e3 * offset,
                    "duration_ms": 1e3 * duration,
                }
                for name, offset, duration in self.spans
            ],
            "meta": dict(self.meta),
        }


class Tracer:
    """Mints trace contexts, retains exemplars, and logs each finished request.

    Parameters
    ----------
    config:
        The retention policy (:class:`TraceConfig`).
    logger:
        Optional :class:`~repro.obs.logging.JsonLogger`; one structured line
        is emitted per finished request.
    rng:
        Injectable :class:`random.Random` for deterministic sampling in tests.
    """

    def __init__(self, config: TraceConfig | None = None, logger=None, rng=None):
        self.config = config if config is not None else TraceConfig()
        self.logger = logger
        self._rng = rng if rng is not None else random.Random()
        self._ring: deque[TraceContext] = deque(maxlen=TRACE_RING_SIZE)
        self._lock = threading.Lock()
        self.traces_started = 0
        self.traces_retained = 0
        self.slow_retained = 0

    # ------------------------------------------------------------ lifecycle

    def begin(self, kind: str) -> TraceContext:
        """Mint a context at admission; the sampling decision is made here."""
        rate = self.config.sample_rate
        sampled = rate >= 1.0 or (rate > 0.0 and self._rng.random() < rate)
        self.traces_started += 1
        return TraceContext(new_request_id(), kind, sampled=sampled)

    def finish(self, ctx: TraceContext, status: str = "ok", cached: bool = False) -> TraceContext:
        """Close ``ctx``, retain it if it qualifies, and log its ``request`` line."""
        ctx.close(status)
        if cached:
            ctx.note(cached=True)
        slow = 1e3 * ctx.duration_seconds >= self.config.slow_threshold_ms
        if slow:
            ctx.note(slow=True)
        if ctx.sampled or slow:
            with self._lock:
                self._ring.append(ctx)
                self.traces_retained += 1
                if slow:
                    self.slow_retained += 1
        if self.logger is not None:
            self.logger.event(
                "request",
                request_id=ctx.trace_id,
                kind=ctx.kind,
                status=status,
                latency_ms=round(1e3 * ctx.duration_seconds, 3),
                **ctx.meta,
            )
        return ctx

    # ------------------------------------------------------------ export

    def export(self, limit: int | None = None) -> list[dict]:
        """Retained traces as JSON-ready dicts, newest first."""
        with self._lock:
            contexts = list(self._ring)
        contexts.reverse()
        if limit is not None:
            contexts = contexts[: max(int(limit), 0)]
        return [ctx.to_dict() for ctx in contexts]

    def slowest(self) -> dict | None:
        """The slowest retained trace (the first waterfall to stare at)."""
        with self._lock:
            contexts = list(self._ring)
        if not contexts:
            return None
        return max(contexts, key=lambda c: c.duration_seconds or 0.0).to_dict()

    def describe(self) -> dict:
        """Retention policy + ring occupancy (reported by ``/healthz``)."""
        with self._lock:
            retained = len(self._ring)
        return {
            "sample_rate": self.config.sample_rate,
            "slow_threshold_ms": self.config.slow_threshold_ms,
            "ring_size": TRACE_RING_SIZE,
            "ring_occupancy": retained,
            "traces_started": self.traces_started,
            "traces_retained": self.traces_retained,
            "slow_retained": self.slow_retained,
        }
