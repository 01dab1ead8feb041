"""Tracing-overhead gate: observability must not tax the serving hot path.

The observability layer (:mod:`repro.obs`) stamps per-stage spans on *every*
request — that is what feeds the per-stage latency histograms — and retains
exemplar traces in a bounded ring according to the sampling policy.  This
benchmark fires the same short-request mix as the serve load-generator at
three retention policies:

* **disabled** — ``trace_sample_rate=0.0`` and the slow-exemplar rule off:
  spans feed histograms but nothing is retained or logged;
* **default** — the shipping defaults (``sample_rate=0.01``,
  ``slow_threshold_ms=250``): what a production deployment pays;
* **full** — ``sample_rate=1.0``: every trace retained (debugging posture).

The gate (a ``timing`` test, deselected from tier-1): tracing at the
**default** sample rate costs at most 5% throughput versus disabled, measured
as the median of per-round paired overheads over interleaved rounds (CI
loosens the bound via ``BENCH_OBS_MAX_OVERHEAD_PCT`` because shared runners
add noise).  Results land in ``BENCH_obs.json`` (``BENCH_OBS_OUTPUT``
redirects) so CI accumulates the overhead trajectory alongside the other
BENCH artifacts.  Tier-1 checks only what each policy records and retains.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.serve import ClassificationService, ServeConfig

from bench_common import BENCH_PROFILE_SIZE, print_table

# windows long enough (~0.5 s each) that scheduler noise averages out: the
# gate compares best-of-REPEATS interleaved rounds, and a 5% bound on a
# too-short window would flake on shared machines
N_REQUESTS = 6000
REQUEST_CHARS = 240
REPEATS = 7
#: concurrent requests per wave — bounded so queue wait stays representative
#: of streaming traffic (an unbounded 6000-deep burst would push every
#: request past the default slow-trace threshold and distort retention)
WAVE_SIZE = 500
#: acceptance ceiling for default-rate tracing overhead vs disabled, percent
MAX_OVERHEAD_PCT = float(os.environ.get("BENCH_OBS_MAX_OVERHEAD_PCT", "5"))

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
            for start in range(0, len(texts), WAVE_SIZE):
                await service.classify_many(texts[start : start + WAVE_SIZE])
            return service.metrics.snapshot(), service.tracer.describe()

    return asyncio.run(main())


def _output_path() -> Path:
    return Path(os.environ.get("BENCH_OBS_OUTPUT", "BENCH_obs.json"))


def test_every_policy_feeds_histograms_and_retains_by_policy(identifier, requests_mix):
    texts = requests_mix[:WAVE_SIZE]
    expected_retained = {"disabled": 0, "full": len(texts)}
    for label, sample_rate, slow_ms in POLICIES:
        metrics, tracing = _run_service(identifier, texts, _serve_config(sample_rate, slow_ms))
        assert metrics["stage_latency_seconds"]["kernel"]["count"] == len(texts)
        if label in expected_retained:
            assert tracing["traces_retained"] == expected_retained[label]


@pytest.mark.timing
def test_tracing_overhead_is_bounded(identifier, requests_mix):
    total_bytes = sum(len(text) for text in requests_mix)

    # warm the engine, thread pools and asyncio plumbing once
    _run_service(identifier, requests_mix[:32], _serve_config(0.0, float("inf")))

    # interleave the policies round-robin so machine drift (thermal, noisy
    # neighbours) hits every policy equally within a round
    rounds = {label: [] for label, _rate, _slow in POLICIES}
    measured = {label: {} for label, _rate, _slow in POLICIES}
    for _ in range(REPEATS):
        for label, sample_rate, slow_ms in POLICIES:
            config = _serve_config(sample_rate, slow_ms)
            start = time.perf_counter()
            metrics, tracing = _run_service(identifier, requests_mix, config)
            rounds[label].append(time.perf_counter() - start)
            # counts/retention are deterministic — any round's copy will do
            measured[label]["metrics"] = metrics
            measured[label]["tracing"] = tracing
    for label, _rate, _slow in POLICIES:
        measured[label]["seconds"] = min(rounds[label])
        measured[label]["mb_s"] = total_bytes / measured[label]["seconds"] / 1e6

    # the gate statistic: overheads are PAIRED per round (each policy ran
    # back-to-back under the same machine state) and the median across rounds
    # discards outlier rounds — far less jitter than comparing two best times
    overhead_pct = {
        label: statistics.median(
            100.0 * (seconds - disabled_seconds) / disabled_seconds
            for seconds, disabled_seconds in zip(rounds[label], rounds["disabled"])
        )
        for label, _rate, _slow in POLICIES
    }

    print_table(
        f"tracing overhead ({N_REQUESTS} requests, ~{REQUEST_CHARS} B each, "
        f"{total_bytes / 1e6:.2f} MB, best of {REPEATS})",
        ("policy", "seconds", "MB/s", "overhead", "retained"),
        [
            (
                label,
                f"{measured[label]['seconds']:.3f}",
                f"{measured[label]['mb_s']:.1f}",
                f"{overhead_pct[label]:+.1f}%",
                str(measured[label]["tracing"]["traces_retained"]),
            )
            for label, _rate, _slow in POLICIES
        ],
    )

    # sanity: the spans fed the per-stage histograms for the full population
    # under every policy, and retention followed the policy
    for label, _rate, _slow in POLICIES:
        stage_counts = measured[label]["metrics"]["stage_latency_seconds"]
        assert stage_counts["kernel"]["count"] == N_REQUESTS
    assert measured["disabled"]["tracing"]["traces_retained"] == 0
    assert measured["full"]["tracing"]["traces_retained"] == N_REQUESTS

    kernel = measured["default"]["metrics"]["stage_latency_seconds"]["kernel"]
    payload = {
        "requests": N_REQUESTS,
        "request_bytes": REQUEST_CHARS,
        "total_mb": total_bytes / 1e6,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "policies": {
            label: {
                "sample_rate": rate,
                # math.inf is not valid strict JSON; null means "rule off"
                "slow_threshold_ms": None if slow == float("inf") else slow,
                "mb_s": measured[label]["mb_s"],
                "overhead_pct": overhead_pct[label],
                "traces_retained": measured[label]["tracing"]["traces_retained"],
            }
            for label, rate, slow in POLICIES
        },
        "default_latency_ms": measured["default"]["metrics"]["latency_ms"],
        "default_kernel_seconds_sum": kernel["sum"],
        "default_kernel_count": kernel["count"],
    }
    output = _output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    assert overhead_pct["default"] <= MAX_OVERHEAD_PCT, (
        f"default-rate tracing cost {overhead_pct['default']:.1f}% throughput vs "
        f"disabled (expected <= {MAX_OVERHEAD_PCT}%; round times "
        f"{[f'{s:.3f}' for s in rounds['default']]} vs "
        f"{[f'{s:.3f}' for s in rounds['disabled']]})"
    )
