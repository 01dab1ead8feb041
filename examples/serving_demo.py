#!/usr/bin/env python
"""Serving demo: the asynchronous micro-batcher vs request-at-a-time, in software.

Section 5.4 of the paper reports that removing the per-document host/FPGA
synchronization nearly doubled system throughput (~228 -> ~470 MB/s).  This
demo replays that experiment against the software engine: the same stream of
short documents is classified

1. sequentially, one ``classify`` call per request (the synchronous driver), and
2. through :class:`repro.serve.ClassificationService`, whose micro-batcher
   coalesces concurrent requests into vectorized batches (the async driver),
3. again through the service with the LRU result cache enabled on a feed with
   repeated documents (boilerplate/retries), where hits skip the engine,
4. and finally with ``executor="process"`` — replicas as worker processes
   mapping one model file, the software analogue of the paper's many
   parallel Bloom engines (only faster than the default single inline
   replica when the machine has spare cores; on one core it shows the IPC
   overhead honestly).

Run with:  python examples/serving_demo.py
"""

import asyncio
import os
import time

from repro import ClassifierConfig, LanguageIdentifier, build_jrc_acquis_like
from repro.analysis.reporting import render_bar_chart
from repro.serve import ClassificationService, ServeConfig

N_REQUESTS = 1200
REQUEST_CHARS = 220


def build_requests() -> tuple[LanguageIdentifier, list[str]]:
    corpus = build_jrc_acquis_like(
        languages=["en", "fr", "es", "pt", "cs", "sk"],
        docs_per_language=40,
        words_per_document=300,
        seed=13,
    )
    train, test = corpus.split(train_fraction=0.25, seed=13)
    identifier = LanguageIdentifier(ClassifierConfig(seed=1)).train(train)

    documents = test.shuffled(seed=2).documents
    requests = []
    for i in range(N_REQUESTS):
        text = documents[i % len(documents)].text
        offset = (i * 97) % max(1, len(text) - REQUEST_CHARS)
        requests.append(text[offset : offset + REQUEST_CHARS])
    return identifier, requests


def run_service(identifier, waves, config) -> tuple[float, dict]:
    """Serve one or more request waves (list of lists) and time the whole run."""

    async def main():
        service = ClassificationService(identifier, config)
        async with service:
            start = time.perf_counter()
            for wave in waves:
                await service.classify_many(wave)
            return time.perf_counter() - start, service.metrics.snapshot()

    return asyncio.run(main())


def main() -> None:
    identifier, requests = build_requests()
    total_bytes = sum(len(text) for text in requests)
    print(
        f"{N_REQUESTS} requests of ~{REQUEST_CHARS} B "
        f"({total_bytes / 1e6:.2f} MB) against {len(identifier.languages)} languages"
    )

    # 1. Request-at-a-time baseline: submit, wait for the result, repeat.
    identifier.classify_batch(requests[:32])  # warm the engine
    start = time.perf_counter()
    for text in requests:
        identifier.classify(text)
    seq_seconds = time.perf_counter() - start
    seq_mb_s = total_bytes / seq_seconds / 1e6

    # 2. Micro-batched service (cache off so the engine sees every request).
    config = ServeConfig(
        max_batch=256, max_delay_ms=5.0, replicas=1, cache_size=0,
        max_pending=2 * N_REQUESTS,
    )
    serve_seconds, metrics = run_service(identifier, [requests], config)
    serve_mb_s = total_bytes / serve_seconds / 1e6

    # 3. Same service with the LRU cache: a second wave repeating the first is
    #    answered from the LRU without touching the engine.
    cached_config = ServeConfig(
        max_batch=256, max_delay_ms=5.0, replicas=1,
        cache_size=2 * N_REQUESTS, max_pending=4 * N_REQUESTS,
    )
    cached_seconds, cached_metrics = run_service(
        identifier, [requests, requests], cached_config
    )
    cached_mb_s = 2 * total_bytes / cached_seconds / 1e6

    # 4. Process replicas mapping one model file (cache off): true
    #    multi-core scaling, where the thread tier runs one inline replica.
    workers = max(2, min(4, os.cpu_count() or 1))
    process_config = ServeConfig(
        max_batch=256, max_delay_ms=5.0, replicas=workers, executor="process",
        cache_size=0, max_pending=2 * N_REQUESTS,
    )
    process_seconds, process_metrics = run_service(identifier, [requests], process_config)
    process_mb_s = total_bytes / process_seconds / 1e6

    print(render_bar_chart(
        {
            "Software engine (this demo)": {
                "Request-at-a-time": seq_mb_s,
                "Micro-batched": serve_mb_s,
                "Micro-batched + cache": cached_mb_s,
                f"Micro-batched, {workers} process replicas": process_mb_s,
            },
            "Paper Fig. 4 (FPGA, 9.2 KB docs)": {
                "Synchronous driver": 228.0,
                "Asynchronous driver": 470.0,
            },
        },
        width=40,
        unit="MB/s",
        title="Micro-batching vs per-request serving (cf. Figure 4)",
    ))

    ratio = seq_seconds / serve_seconds
    print(f"\nmicro-batched / sequential ratio: {ratio:.2f}x "
          f"(paper's async/sync ratio: {470 / 228:.2f}x)")
    print(f"mean batch size: {metrics['mean_batch_size']:.1f}, "
          f"batch-size histogram: {metrics['batch_size_histogram']}")
    latency = metrics["latency_ms"]
    print(f"latency p50/p95/p99: {latency['p50']:.1f} / {latency['p95']:.1f} / "
          f"{latency['p99']:.1f} ms")
    print(f"cached run: {cached_metrics['cache_hits']} hits on "
          f"{cached_metrics['requests_total']} requests")
    print(f"process replicas: {workers} workers on {os.cpu_count()} core(s), "
          f"{process_mb_s:.1f} MB/s vs {serve_mb_s:.1f} MB/s inline "
          f"(respawns: {process_metrics['worker_respawns_total']})")


if __name__ == "__main__":
    main()
