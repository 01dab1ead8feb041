"""Analytics-overhead gate: the traffic-analytics plane must stay hot-path cheap.

Two gates, one artifact (``BENCH_analytics.json``):

* **Hook overhead** — the serving pipeline runs the same short-request mix
  with the analytics plane disabled, at the shipping defaults
  (``quality_sample_every=8``), and in full-scan posture
  (``quality_sample_every=1``).  The acceptance criterion is the tentpole's:
  analytics at the defaults costs at most 5% throughput versus disabled.
  Measurement is paired at **wave granularity**: one long-lived service per
  policy, and wave *i* of every policy runs back-to-back within tens of
  milliseconds, so scheduler/thermal/noisy-neighbour bursts (which unfold
  on the 100 ms–1 s scale) inflate every policy's slot equally and cancel
  in the ratio.  The within-slot order rotates every slot (collection is
  off during the timed region, so whichever policy runs first in a slot
  sees the freshest allocator state — a fixed order biases the delta by
  ~3 %).  The gated statistic is the median over all wave slots of the
  per-slot paired overhead; CI loosens the ceiling via
  ``BENCH_ANALYTICS_MAX_OVERHEAD_PCT``.

  The whole measurement runs in a **fresh subprocess interpreter** (this
  module re-executed as a script): the true per-request analytics cost
  (~2.7 µs on a ~90 µs request) leaves limited headroom inside the gate,
  and interpreter history — allocator arenas fragmented by whatever tests
  ran earlier in the session — was observed to bias the measured delta by
  several percent.  A pristine heap makes the number reproducible whether
  the gate runs standalone or at the end of the full suite.
* **Aggregator throughput** — the raw ``AnalyticsAggregator.update`` path
  must sustain a floor of documents/second on a 100k-document synthetic
  stream (``BENCH_ANALYTICS_MIN_KDOCS_PER_S``), so batch ``repro analyze``
  runs are classifier-bound, never analytics-bound.

Both gates are ``timing`` tests, deselected from tier-1; tier-1 checks only
that the hook and the aggregator count every document.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analytics import AnalyticsAggregator, AnalyticsConfig
from repro.core.classifier import ClassificationResult
from repro.serve import ClassificationService, ServeConfig

from bench_common import print_table

N_REQUESTS = 6000
REQUEST_CHARS = 240
REPEATS = 5
WAVE_SIZE = 500
#: acceptance ceiling for default-posture analytics overhead vs disabled, percent
MAX_OVERHEAD_PCT = float(os.environ.get("BENCH_ANALYTICS_MAX_OVERHEAD_PCT", "5"))

#: raw aggregator floor, thousand documents per second over a 100k-doc stream
MIN_KDOCS_PER_S = float(os.environ.get("BENCH_ANALYTICS_MIN_KDOCS_PER_S", "50"))
STREAM_DOCS = 100_000

#: (label, analytics on?, quality_sample_every)
POLICIES = (
    ("disabled", False, 8),
    ("default", True, 8),
    ("full-scan", True, 1),
)


def _serve_config(analytics: bool, sample_every: int) -> ServeConfig:
    return ServeConfig(
        max_batch=256,
        max_delay_ms=5.0,
        replicas=1,
        cache_size=0,  # every request must cross the whole pipeline
        max_pending=4 * N_REQUESTS,
        trace_sample_rate=0.0,
        trace_slow_ms=float("inf"),
        analytics=analytics,
        analytics_quality_sample_every=sample_every,
    )


def _build_identifier_and_mix():
    """The conftest bench fixtures, rebuilt from the shared constants — this
    runs in the measurement subprocess, which has no pytest session."""
    from repro.corpus.generator import SyntheticCorpusBuilder

    from bench_common import (
        BENCH_BOILERPLATE_EXTRA,
        BENCH_BOILERPLATE_FRACTION,
        BENCH_DOCS_PER_LANGUAGE,
        BENCH_RELATED_BLEND,
        BENCH_SEED,
        BENCH_TRAIN_FRACTION,
        BENCH_WORDS_PER_DOCUMENT,
    )

    corpus = SyntheticCorpusBuilder(
        seed=BENCH_SEED,
        docs_per_language=BENCH_DOCS_PER_LANGUAGE,
        words_per_document=BENCH_WORDS_PER_DOCUMENT,
        related_blend=BENCH_RELATED_BLEND,
        boilerplate_fraction=BENCH_BOILERPLATE_FRACTION,
        boilerplate_extra_blend=BENCH_BOILERPLATE_EXTRA,
    ).build()
    return _identifier_and_mix(*corpus.split(train_fraction=BENCH_TRAIN_FRACTION, seed=7))


def _identifier_and_mix(train, test):
    """The default bloom model and the short-request mix sliced from ``test``."""
    from repro.api import ClassifierConfig, LanguageIdentifier

    from bench_common import BENCH_PROFILE_SIZE

    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0)
    identifier = LanguageIdentifier(config).train(train)

    # short request payloads sliced from the held-out corpus, round-robin
    texts = []
    documents = test.shuffled(seed=7).documents
    doc_index = 0
    while len(texts) < N_REQUESTS:
        text = documents[doc_index % len(documents)].text
        offset = (doc_index * 131) % max(1, len(text) - REQUEST_CHARS)
        texts.append(text[offset : offset + REQUEST_CHARS])
        doc_index += 1
    return identifier, texts


SOURCES = ("wire", "blog", "mail", "feed")


def _run_rounds(identifier, texts):
    """All policies on one event loop, one long-lived service per policy,
    interleaved wave by wave: the same ~50 ms slice of traffic runs through
    every policy back-to-back before the next slice starts, so machine noise
    at any timescale longer than one wave hits every policy's slot alike.
    Returns ``(wave_times, measured)`` where ``wave_times[label]`` is the
    flat list of per-wave seconds (slot-aligned across policies).
    """
    waves = [texts[start : start + WAVE_SIZE] for start in range(0, len(texts), WAVE_SIZE)]

    async def main():
        services = {}
        wave_times = {label: [] for label, _on, _every in POLICIES}
        measured = {label: {} for label, _on, _every in POLICIES}
        try:
            for label, analytics_on, sample_every in POLICIES:
                service = ClassificationService(
                    identifier, _serve_config(analytics_on, sample_every)
                )
                await service.start()
                services[label] = service
                # prime the batcher / executor / cache-miss paths out-of-band
                await service.classify_many(waves[0], source="warmup")
            # the policies allocate at different rates, so allocation-triggered
            # GC pauses would land asymmetrically (heavier on analytics slots,
            # amplified when the whole suite's heap precedes us): sweep once,
            # freeze the survivors out of the young generations, and collect
            # only at wave boundaries — outside every timed region
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                slot = 0
                for _ in range(REPEATS):
                    for index, wave in enumerate(waves):
                        source = SOURCES[index % len(SOURCES)]
                        # rotate the within-slot order so no policy always runs
                        # on the freshest allocator state (garbage accumulates
                        # across the triple while collection is off)
                        spin = slot % len(POLICIES)
                        ordered = POLICIES[spin:] + POLICIES[:spin]
                        for label, _on, _every in ordered:
                            start_s = time.perf_counter()
                            await services[label].classify_many(wave, source=source)
                            wave_times[label].append(time.perf_counter() - start_s)
                        gc.collect(0)
                        slot += 1
            finally:
                gc.enable()
                gc.unfreeze()
                gc.collect()
            for label, _on, _every in POLICIES:
                service = services[label]
                measured[label]["analytics"] = (
                    service.analytics.gauges()
                    if service.analytics is not None
                    else None
                )
        finally:
            for service in services.values():
                await service.close()
        return wave_times, measured

    return asyncio.run(main())


def _output_path() -> Path:
    return Path(os.environ.get("BENCH_ANALYTICS_OUTPUT", "BENCH_analytics.json"))


def _payload() -> dict:
    output = _output_path()
    if output.exists():
        return json.loads(output.read_text(encoding="utf-8"))
    return {}


def _write_payload(payload: dict) -> None:
    output = _output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")


def _measure() -> dict:
    """The full measurement, run only inside the fresh subprocess."""
    identifier, texts = _build_identifier_and_mix()
    wave_times, measured = _run_rounds(identifier, texts)
    return {
        "total_bytes": sum(len(text) for text in texts),
        "wave_times": wave_times,
        "measured": measured,
    }


def test_hook_records_every_request_per_source(bench_train, bench_test):
    identifier, texts = _identifier_and_mix(bench_train, bench_test)
    waves = [texts[index * WAVE_SIZE : (index + 1) * WAVE_SIZE] for index in range(len(SOURCES))]

    async def main():
        gauges = {}
        for label, analytics_on, sample_every in POLICIES:
            service = ClassificationService(identifier, _serve_config(analytics_on, sample_every))
            async with service:
                for wave, source in zip(waves, SOURCES):
                    await service.classify_many(wave, source=source)
            gauges[label] = service.analytics.gauges() if service.analytics is not None else None
        return gauges

    gauges = asyncio.run(main())
    assert gauges["disabled"] is None
    for label in ("default", "full-scan"):
        assert gauges[label]["records_total"] == len(SOURCES) * WAVE_SIZE
        assert {source: stats["docs"] for source, stats in gauges[label]["sources"].items()} == {
            source: WAVE_SIZE for source in SOURCES
        }


@pytest.mark.timing
def test_hook_overhead_is_bounded():
    # fresh interpreter: see the module docstring for why the measurement
    # must not inherit this session's heap
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__)],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, f"measurement subprocess failed:\n{proc.stderr}"
    report = json.loads(proc.stdout)
    total_bytes = report["total_bytes"]
    wave_times = report["wave_times"]
    measured = report["measured"]
    for label, _on, _every in POLICIES:
        # display seconds = one full pass over the mix, averaged over repeats
        measured[label]["seconds"] = sum(wave_times[label]) / REPEATS
        measured[label]["mb_s"] = total_bytes / measured[label]["seconds"] / 1e6

    # the gated statistic: per-slot paired overhead (each policy's wave i ran
    # back-to-back with disabled's wave i), median over all slots — a noise
    # burst has to straddle most slots *and* land asymmetrically to move it
    overhead_pct = {
        label: statistics.median(
            100.0 * (seconds - disabled_seconds) / disabled_seconds
            for seconds, disabled_seconds in zip(
                wave_times[label], wave_times["disabled"]
            )
        )
        for label, _on, _every in POLICIES
    }
    # whole-pass mean ratio rides along in the artifact for trend tracking
    mean_pass_pct = {
        label: 100.0
        * (measured[label]["seconds"] - measured["disabled"]["seconds"])
        / measured["disabled"]["seconds"]
        for label, _on, _every in POLICIES
    }

    print_table(
        f"analytics overhead ({N_REQUESTS} requests, ~{REQUEST_CHARS} B each, "
        f"{total_bytes / 1e6:.2f} MB, {REPEATS} passes, "
        f"{len(wave_times['disabled'])} paired wave slots)",
        ("policy", "seconds", "MB/s", "overhead", "records"),
        [
            (
                label,
                f"{measured[label]['seconds']:.3f}",
                f"{measured[label]['mb_s']:.1f}",
                f"{overhead_pct[label]:+.1f}%",
                str(
                    measured[label]["analytics"]["records_total"]
                    if measured[label]["analytics"] is not None
                    else "-"
                ),
            )
            for label, _on, _every in POLICIES
        ],
    )

    # sanity: the enabled policies folded every request of every round into
    # the plane (warm-up wave included), across all four synthetic sources
    for label in ("default", "full-scan"):
        analytics = measured[label]["analytics"]
        assert analytics["records_total"] == REPEATS * N_REQUESTS + WAVE_SIZE
        wave_docs = sum(
            stats["docs"]
            for source, stats in analytics["sources"].items()
            if source != "warmup"
        )
        assert wave_docs == REPEATS * N_REQUESTS
        assert len(analytics["sources"]) == 5  # four wave sources + warmup
    assert measured["disabled"]["analytics"] is None

    payload = _payload()
    payload["hook_overhead"] = {
        "requests": N_REQUESTS,
        "request_bytes": REQUEST_CHARS,
        "total_mb": total_bytes / 1e6,
        "max_overhead_pct": MAX_OVERHEAD_PCT,
        "policies": {
            label: {
                "analytics": analytics_on,
                "quality_sample_every": sample_every,
                "mb_s": measured[label]["mb_s"],
                "overhead_pct": overhead_pct[label],
                "mean_pass_overhead_pct": mean_pass_pct[label],
            }
            for label, analytics_on, sample_every in POLICIES
        },
    }
    _write_payload(payload)

    assert overhead_pct["default"] <= MAX_OVERHEAD_PCT, (
        f"default-posture analytics cost {overhead_pct['default']:.1f}% throughput "
        f"vs disabled (expected <= {MAX_OVERHEAD_PCT}%; mean pass "
        f"{measured['default']['seconds']:.3f}s vs "
        f"{measured['disabled']['seconds']:.3f}s)"
    )


def _stream_through_aggregator(documents: int):
    """Feed ``documents`` updates at the default sampling posture; returns
    ``(aggregator, elapsed seconds)``."""
    languages = ("en", "fr", "es", "pt", "fi")
    sources = ("wire", "blog", "mail", "feed")
    # a small cycle of precomputed results/texts: the benchmark times the
    # aggregation, not result construction
    results = [
        ClassificationResult(
            language=languages[i % len(languages)],
            match_counts={languages[i % len(languages)]: 100, "xx": 40 + i % 30},
            ngram_count=200,
        )
        for i in range(64)
    ]
    texts = [f"sample document number {i} with some words in it" * 3 for i in range(64)]

    config = AnalyticsConfig(window_seconds=5000.0, max_windows=8)
    aggregator = AnalyticsAggregator(config)
    start = time.perf_counter()
    for i in range(documents):
        slot = i % 64
        # the CLI/hook scan every 8th document per the default posture
        if slot % 8 == 0:
            aggregator.update(
                results[slot], sources[i % 4], timestamp=float(i), text=texts[slot]
            )
        else:
            aggregator.update(
                results[slot], sources[i % 4], timestamp=float(i),
                chars=len(texts[slot]),
            )
    return aggregator, time.perf_counter() - start


def test_aggregator_counts_every_document():
    aggregator, _elapsed = _stream_through_aggregator(STREAM_DOCS // 10)
    assert aggregator.snapshot(include_windows=False)["docs_total"] == STREAM_DOCS // 10


@pytest.mark.timing
def test_aggregator_throughput_floor():
    """Raw update path: a 100k-document stream at the default sampling posture."""
    aggregator, elapsed = _stream_through_aggregator(STREAM_DOCS)
    kdocs_per_s = STREAM_DOCS / elapsed / 1e3

    snapshot = aggregator.snapshot(include_windows=False)
    assert snapshot["docs_total"] == STREAM_DOCS

    print_table(
        f"aggregator throughput ({STREAM_DOCS} documents, 4 sources)",
        ("documents", "seconds", "kdocs/s", "floor"),
        [(STREAM_DOCS, f"{elapsed:.3f}", f"{kdocs_per_s:.0f}", f"{MIN_KDOCS_PER_S:.0f}")],
    )

    payload = _payload()
    payload["aggregator_throughput"] = {
        "documents": STREAM_DOCS,
        "seconds": elapsed,
        "kdocs_per_s": kdocs_per_s,
        "min_kdocs_per_s": MIN_KDOCS_PER_S,
        "quality_sample_every": 8,
    }
    _write_payload(payload)

    assert kdocs_per_s >= MIN_KDOCS_PER_S, (
        f"aggregator sustained {kdocs_per_s:.0f} kdocs/s, below the "
        f"{MIN_KDOCS_PER_S:.0f} kdocs/s floor"
    )


if __name__ == "__main__":
    json.dump(_measure(), sys.stdout)
