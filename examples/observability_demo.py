#!/usr/bin/env python
"""Observability demo: trace a traffic burst and render the slowest waterfall.

The paper's Section 5.4 analysis asks *where the time goes* — engine cycles
versus host-side queueing.  The serving tier answers the same question per
request: every admitted request carries a :class:`repro.obs.TraceContext`
whose spans tile its wall-clock exactly (admission → cache_lookup →
queue_wait → batch_assembly → ipc_roundtrip → kernel → respond), so a
retained trace is a complete latency waterfall with no unaccounted bucket.

This demo:

1. trains a small model and fires a burst of concurrent requests through
   :class:`repro.serve.ClassificationService` with ``trace_sample_rate=1.0``
   (retain everything) and a structured JSON log on stderr,
2. prints the slowest request's waterfall — the trace you would fetch from
   ``GET /debug/traces`` when chasing a tail latency — and
3. shows the per-stage latency histograms that *every* request feeds,
   sampled or not.

Run with:  python examples/observability_demo.py
"""

import asyncio
import sys

from repro import ClassifierConfig, LanguageIdentifier, build_jrc_acquis_like
from repro.obs import JsonLogger
from repro.serve import ClassificationService, ServeConfig

N_REQUESTS = 600
REQUEST_CHARS = 220
BAR_WIDTH = 44


def build_requests() -> tuple[LanguageIdentifier, list[str]]:
    corpus = build_jrc_acquis_like(
        languages=["en", "fr", "es", "pt"],
        docs_per_language=30,
        words_per_document=250,
        seed=17,
    )
    train, test = corpus.split(train_fraction=0.25, seed=17)
    identifier = LanguageIdentifier(ClassifierConfig(seed=1)).train(train)

    documents = test.shuffled(seed=3).documents
    requests = []
    for i in range(N_REQUESTS):
        text = documents[i % len(documents)].text
        offset = (i * 97) % max(1, len(text) - REQUEST_CHARS)
        requests.append(text[offset : offset + REQUEST_CHARS])
    return identifier, requests


def render_waterfall(trace: dict) -> str:
    """One bar per span, positioned on the request's own timeline."""
    total_ms = max(trace["duration_ms"], 1e-9)
    lines = [
        f"request {trace['request_id']}  kind={trace['kind']}  "
        f"status={trace['status']}  {total_ms:.2f} ms total  meta={trace['meta']}"
    ]
    for span in trace["spans"]:
        lead = round(BAR_WIDTH * span["offset_ms"] / total_ms)
        width = max(1, round(BAR_WIDTH * span["duration_ms"] / total_ms))
        bar = " " * min(lead, BAR_WIDTH - 1) + "█" * min(width, BAR_WIDTH - lead)
        share = 100.0 * span["duration_ms"] / total_ms
        lines.append(
            f"  {span['stage']:>14} │{bar:<{BAR_WIDTH}}│ "
            f"{span['duration_ms']:8.3f} ms  {share:5.1f}%"
        )
    return "\n".join(lines)


def main() -> None:
    identifier, requests = build_requests()
    config = ServeConfig(
        max_batch=64,
        max_delay_ms=2.0,
        cache_size=2 * N_REQUESTS,
        max_pending=2 * N_REQUESTS,
        trace_sample_rate=1.0,  # retain every trace for the demo
        trace_slow_ms=float("inf"),
    )

    async def burst():
        service = ClassificationService(
            identifier, config, logger=JsonLogger(sys.stderr)
        )
        async with service:
            # a concurrent burst plus a partial replay so the cache-hit
            # fast path shows up in the traces too
            await service.classify_many(requests)
            await service.classify_many(requests[: N_REQUESTS // 4])
            return (
                service.tracer.slowest(),
                service.tracer.describe(),
                service.metrics.snapshot(),
            )

    slowest, tracing, metrics = asyncio.run(burst())

    print(
        f"\n{tracing['traces_started']} requests traced, "
        f"{tracing['traces_retained']} retained "
        f"(ring keeps the newest {tracing['ring_size']})\n"
    )
    print("slowest request waterfall (what GET /debug/traces serves):\n")
    print(render_waterfall(slowest))

    print("\nper-stage latency histograms (fed by every request, sampled or not):\n")
    print(f"  {'stage':>14}  {'count':>6}  {'mean ms':>9}")
    for stage, data in metrics["stage_latency_seconds"].items():
        mean_ms = 1e3 * data["sum"] / data["count"] if data["count"] else 0.0
        print(f"  {stage:>14}  {data['count']:>6}  {mean_ms:>9.3f}")

    latency = metrics["latency_ms"]
    print(
        f"\nend-to-end p50/p95/p99: {latency['p50']:.1f} / {latency['p95']:.1f} / "
        f"{latency['p99']:.1f} ms over {metrics['requests_total']} requests "
        f"({metrics['cache_hits']} cache hits)"
    )
    print("(the JSON lines on stderr are the --log-json structured event stream)")


if __name__ == "__main__":
    main()
