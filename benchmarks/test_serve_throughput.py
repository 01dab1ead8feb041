"""Serve load-generator: micro-batched async serving vs request-at-a-time baseline.

The software analogue of Figure 4 / Section 5.4: the paper's synchronous host
driver waited for each document's result before sending the next (~228 MB/s);
the asynchronous driver kept the engine saturated (~470 MB/s, a 2.06x ratio).
Here the same comparison runs against the software engine:

* **baseline** — one ``identifier.classify`` call per request, strictly
  sequential (submit, wait, collect, repeat);
* **micro-batched** — the same requests fired concurrently at a
  :class:`~repro.serve.service.ClassificationService`, whose micro-batcher
  coalesces them into vectorized ``classify_batch`` flushes.

The request mix is short documents (a few hundred bytes, tweet/query sized)
where per-request overhead dominates — exactly the regime a serving layer
exists for.  Tier-1 checks that the served results equal the sequential ones
and that the batcher coalesces; the ``timing`` test asserts the micro-batched
path is at least 2x the sequential baseline and writes ``BENCH_serve.json``
(throughput, speedup, batch-size histogram, p50/p95/p99 latency) so CI
accumulates a perf trajectory artifact; set ``BENCH_SERVE_OUTPUT`` to
redirect it.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from pathlib import Path

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.serve import ClassificationService, ServeConfig

from bench_common import BENCH_PROFILE_SIZE, print_table

#: requests per measured run (tweet-sized slices of the benchmark corpus)
N_REQUESTS = 1500
REQUEST_CHARS = 240
REPEATS = 3
#: acceptance floor for the micro-batched / sequential throughput ratio; CI
#: sets BENCH_SERVE_MIN_SPEEDUP lower because shared runners add timer noise
#: (measured locally: ~3.5x, comfortably above the 2x acceptance target)
MIN_SPEEDUP = float(os.environ.get("BENCH_SERVE_MIN_SPEEDUP", "2.0"))
#: the paper's measured sync/async ratio for context (470 / 228)
PAPER_ASYNC_RATIO = 470.0 / 228.0

# the load-generator fires the whole mix concurrently, so the queue bound must
# admit it (a real deployment would throttle the client instead)
SERVE_CONFIG = ServeConfig(
    max_batch=256, max_delay_ms=5.0, replicas=1, cache_size=0, max_pending=4 * N_REQUESTS
)


@pytest.fixture(scope="module")
def identifier(bench_train):
    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0)
    return LanguageIdentifier(config).train(bench_train)


@pytest.fixture(scope="module")
def requests_mix(bench_test):
    """Short request payloads sliced from the held-out corpus, round-robin."""
    texts = []
    documents = bench_test.shuffled(seed=3).documents
    doc_index = 0
    while len(texts) < N_REQUESTS:
        text = documents[doc_index % len(documents)].text
        offset = (doc_index * 131) % max(1, len(text) - REQUEST_CHARS)
        texts.append(text[offset : offset + REQUEST_CHARS])
        doc_index += 1
    return texts


def _best_of(repeats: int, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _run_sequential(identifier, texts):
    return [identifier.classify(text) for text in texts]


def _run_service(identifier, waves, config):
    """Serve one or more request waves; returns (last wave's results, metrics)."""

    async def main():
        service = ClassificationService(identifier, config)
        async with service:
            results = None
            for wave in waves:
                results = await service.classify_many(wave)
            return results, service.metrics.snapshot()

    return asyncio.run(main())


def _output_path() -> Path:
    return Path(os.environ.get("BENCH_SERVE_OUTPUT", "BENCH_serve.json"))


def test_micro_batched_serving_matches_sequential_and_coalesces(identifier, requests_mix):
    seq_results = _run_sequential(identifier, requests_mix)
    serve_results, metrics = _run_service(identifier, [requests_mix], SERVE_CONFIG)
    assert [r.language for r in serve_results] == [r.language for r in seq_results]
    assert [r.match_counts for r in serve_results] == [r.match_counts for r in seq_results]
    # the batcher must actually be coalescing, not degenerating to size-1 flushes
    assert metrics["mean_batch_size"] >= 8, metrics["batch_size_histogram"]
    assert set(metrics["latency_ms"]) == {"p50", "p95", "p99"}


@pytest.mark.timing
def test_micro_batched_serving_beats_sequential_baseline(identifier, requests_mix):
    total_bytes = sum(len(text) for text in requests_mix)

    # warm both paths (filter programming, thread pools, asyncio plumbing)
    _run_sequential(identifier, requests_mix[:32])
    _run_service(identifier, [requests_mix[:32]], SERVE_CONFIG)

    seq_seconds, seq_results = _best_of(
        REPEATS, lambda: _run_sequential(identifier, requests_mix)
    )
    serve_seconds, (serve_results, metrics) = _best_of(
        REPEATS, lambda: _run_service(identifier, [requests_mix], SERVE_CONFIG)
    )

    # correctness first: the served results must match direct classification
    assert [r.language for r in serve_results] == [r.language for r in seq_results]
    assert [r.match_counts for r in serve_results] == [r.match_counts for r in seq_results]

    seq_mb_s = total_bytes / seq_seconds / 1e6
    serve_mb_s = total_bytes / serve_seconds / 1e6
    speedup = seq_seconds / serve_seconds

    # a cached re-run of the same mix shows the LRU short-circuit ceiling
    cached_config = ServeConfig(
        max_batch=256, max_delay_ms=5.0, replicas=1,
        cache_size=4 * N_REQUESTS, max_pending=8 * N_REQUESTS,
    )
    # two sequential waves over the same mix: the second is answered by the LRU
    cached_seconds, (_, cached_metrics) = _best_of(
        2, lambda: _run_service(identifier, [requests_mix, requests_mix], cached_config)
    )
    cached_mb_s = 2 * total_bytes / cached_seconds / 1e6

    print_table(
        f"serve load-generator ({N_REQUESTS} requests, ~{REQUEST_CHARS} B each, "
        f"{total_bytes / 1e6:.2f} MB)",
        ("path", "seconds", "MB/s", "vs baseline"),
        [
            ("sequential request-at-a-time", f"{seq_seconds:.3f}", f"{seq_mb_s:.1f}", "1.00x"),
            ("micro-batched service", f"{serve_seconds:.3f}", f"{serve_mb_s:.1f}",
             f"{speedup:.2f}x"),
            ("micro-batched + LRU cache (2x mix)", f"{cached_seconds:.3f}",
             f"{cached_mb_s:.1f}", f"{2 * seq_seconds / cached_seconds:.2f}x"),
            ("paper Fig.4 async/sync ratio", "", "", f"{PAPER_ASYNC_RATIO:.2f}x"),
        ],
    )

    payload = {
        "requests": N_REQUESTS,
        "request_bytes": REQUEST_CHARS,
        "total_mb": total_bytes / 1e6,
        "sequential_mb_s": seq_mb_s,
        "batched_mb_s": serve_mb_s,
        "speedup_vs_sequential": speedup,
        "paper_async_sync_ratio": PAPER_ASYNC_RATIO,
        "cached_mb_s": cached_mb_s,
        "cache_hits": cached_metrics["cache_hits"],
        "latency_ms": metrics["latency_ms"],
        "batch_size_histogram": metrics["batch_size_histogram"],
        "mean_batch_size": metrics["mean_batch_size"],
        "serve_config": {
            "max_batch": SERVE_CONFIG.max_batch,
            "max_delay_ms": SERVE_CONFIG.max_delay_ms,
            "replicas": SERVE_CONFIG.replicas,
        },
    }
    output = _output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving was only {speedup:.2f}x the sequential baseline "
        f"(expected >= {MIN_SPEEDUP}x): {seq_mb_s:.1f} vs {serve_mb_s:.1f} MB/s"
    )


def test_cache_hits_dominate_on_repeated_mix(identifier, requests_mix):
    """A second pass over an identical mix should be answered from the LRU."""
    config = ServeConfig(
        max_batch=256, max_delay_ms=5.0, cache_size=4 * N_REQUESTS,
        max_pending=4 * N_REQUESTS,
    )

    async def main():
        service = ClassificationService(identifier, config)
        async with service:
            await service.classify_many(requests_mix)
            await service.classify_many(requests_mix)
            return service.metrics.snapshot()

    metrics = asyncio.run(main())
    assert metrics["cache_hits"] >= len(set(requests_mix)) - 1
    assert metrics["requests_total"] == 2 * N_REQUESTS
