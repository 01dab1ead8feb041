"""Observability policies: every request feeds the histograms, retention follows policy.

The observability layer (:mod:`repro.obs`) stamps per-stage spans on *every*
request — that is what feeds the per-stage latency histograms — and retains
exemplar traces in a bounded ring according to the sampling policy.  This
check fires a short-request mix at three retention policies:

* **disabled** — ``trace_sample_rate=0.0`` and the slow-exemplar rule off:
  spans feed histograms but nothing is retained or logged;
* **default** — the shipping defaults (``sample_rate=0.01``,
  ``slow_threshold_ms=250``): what a production deployment pays;
* **full** — ``sample_rate=1.0``: every trace retained (debugging posture).

The cost of default tracing is measured end to end by the ``serve_http``
workload of ``layerbench`` (it runs ``repro serve`` at its defaults, so its
bounded ``latency_p50_ms`` includes tracing); this file checks only what each
policy records and retains.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.serve import ClassificationService, ServeConfig

from bench_common import BENCH_PROFILE_SIZE

#: requests per policy, sent as one concurrent wave — bounded so queue wait
#: stays below the default slow-trace threshold, which would distort retention
N_REQUESTS = 500
REQUEST_CHARS = 240

#: (label, sample_rate, slow_threshold_ms) — the three retention policies
POLICIES = (
    ("disabled", 0.0, float("inf")),
    ("default", 0.01, 250.0),
    ("full", 1.0, float("inf")),
)


def _serve_config(sample_rate: float, slow_ms: float) -> ServeConfig:
    return ServeConfig(
        max_batch=256,
        max_delay_ms=5.0,
        replicas=1,
        cache_size=0,  # every request must cross the whole pipeline
        max_pending=4 * N_REQUESTS,
        trace_sample_rate=sample_rate,
        trace_slow_ms=slow_ms,
    )


@pytest.fixture(scope="module")
def identifier(bench_train):
    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0)
    return LanguageIdentifier(config).train(bench_train)


@pytest.fixture(scope="module")
def requests_mix(bench_test):
    """Short request payloads sliced from the held-out corpus, round-robin."""
    texts = []
    documents = bench_test.shuffled(seed=7).documents
    doc_index = 0
    while len(texts) < N_REQUESTS:
        text = documents[doc_index % len(documents)].text
        offset = (doc_index * 131) % max(1, len(text) - REQUEST_CHARS)
        texts.append(text[offset : offset + REQUEST_CHARS])
        doc_index += 1
    return texts


def _run_service(identifier, texts, config):
    async def main():
        service = ClassificationService(identifier, config)
        async with service:
            await service.classify_many(texts)
            return service.metrics.snapshot(), service.tracer.describe()

    return asyncio.run(main())


def test_every_policy_feeds_histograms_and_retains_by_policy(identifier, requests_mix):
    expected_retained = {"disabled": 0, "full": N_REQUESTS}
    for label, sample_rate, slow_ms in POLICIES:
        config = _serve_config(sample_rate, slow_ms)
        metrics, tracing = _run_service(identifier, requests_mix, config)
        assert metrics["stage_latency_seconds"]["kernel"]["count"] == N_REQUESTS
        if label in expected_retained:
            assert tracing["traces_retained"] == expected_retained[label]
