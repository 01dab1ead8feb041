"""Serve load-generator: micro-batched async serving vs request-at-a-time baseline.

The software analogue of Figure 4 / Section 5.4: the paper's synchronous host
driver waited for each document's result before sending the next (~228 MB/s);
the asynchronous driver kept the engine saturated (~470 MB/s, a 2.06x ratio).
Here the same requests run against the software engine two ways:

* **baseline** — one ``identifier.classify`` call per request, strictly
  sequential (submit, wait, collect, repeat);
* **micro-batched** — the same requests fired concurrently at a
  :class:`~repro.serve.service.ClassificationService`, whose micro-batcher
  coalesces them into vectorized ``classify_batch`` flushes.

The request mix is short documents (a few hundred bytes, tweet/query sized)
where per-request overhead dominates — exactly the regime a serving layer
exists for.  These tests check that the served results equal the sequential
ones, that the batcher coalesces, and that a repeated mix is answered from the
cache.  Serving speed is measured end to end by ``layerbench``'s
``serve_http`` workload (MB/s, latency percentiles, batch size, cache hit
ratio).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.serve import ClassificationService, ServeConfig

from bench_common import BENCH_PROFILE_SIZE

#: requests in the mix (tweet-sized slices of the benchmark corpus)
N_REQUESTS = 1500
REQUEST_CHARS = 240

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


def _run_sequential(identifier, texts):
    return [identifier.classify(text) for text in texts]


def _run_service(identifier, texts, config):
    """Serve ``texts`` concurrently; returns (results, metrics snapshot)."""

    async def main():
        service = ClassificationService(identifier, config)
        async with service:
            results = await service.classify_many(texts)
            return results, service.metrics.snapshot()

    return asyncio.run(main())


def test_micro_batched_serving_matches_sequential_and_coalesces(identifier, requests_mix):
    seq_results = _run_sequential(identifier, requests_mix)
    serve_results, metrics = _run_service(identifier, requests_mix, SERVE_CONFIG)
    assert [r.language for r in serve_results] == [r.language for r in seq_results]
    assert [r.match_counts for r in serve_results] == [r.match_counts for r in seq_results]
    # the batcher must actually be coalescing, not degenerating to size-1 flushes
    assert metrics["mean_batch_size"] >= 8, metrics["batch_size_histogram"]
    assert set(metrics["latency_ms"]) == {"p50", "p95", "p99"}


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
