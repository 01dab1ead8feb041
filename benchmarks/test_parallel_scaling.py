"""Parallel-scaling load generator: thread replicas vs process replicas.

The paper's whole point is that many Bloom engines run in parallel on real
silicon; the thread-based :class:`~repro.serve.replicas.ThreadReplicaPool`
fakes that with Python threads, so CPU-bound ``match_counts`` work serialises
on the GIL and throughput tops out near one core regardless of the replica
count.  The :class:`~repro.serve.process_pool.ProcessReplicaPool` runs the
same replicas as worker processes reading one shared-memory model copy.

This benchmark drives both executors with the PR 2 load generator (concurrent
requests through :class:`~repro.serve.service.ClassificationService`) on a
CPU-bound mix — documents big enough that hashing/gathering dominates the
per-request plumbing — and records throughput for each tier.  On a machine
with ≥ 4 cores the process tier must be at least ``BENCH_PARALLEL_MIN_SPEEDUP``
(default 1.8x) faster than the thread tier; on smaller machines (e.g. a
single-core CI sandbox) the ratio is recorded but not asserted, since there is
no parallel hardware to scale onto.  That ``timing`` test writes
``BENCH_parallel.json`` (set ``BENCH_PARALLEL_OUTPUT`` to redirect), which CI
uploads next to ``BENCH_serve.json``; tier-1 only checks that both tiers
answer bit-identically to the bare batch path and genuinely micro-batch.
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

#: replicas per pool — one per core up to 4, but at least 2 so the process
#: tier is exercised even on the single-core sandbox
WORKERS = max(2, min(4, os.cpu_count() or 1))
#: CPU-bound request mix: fewer, larger documents than the serve benchmark
N_REQUESTS = 192
REQUEST_CHARS = 4000
REPEATS = 2
#: cores below which the speedup assertion is informational only
MIN_CORES_FOR_ASSERT = 4
#: acceptance floor for process-pool / thread-pool throughput on >= 4 cores
MIN_SPEEDUP = float(os.environ.get("BENCH_PARALLEL_MIN_SPEEDUP", "1.8"))


@pytest.fixture(scope="module")
def identifier(bench_train):
    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0)
    return LanguageIdentifier(config).train(bench_train)


@pytest.fixture(scope="module")
def requests_mix(bench_test):
    """CPU-bound payloads: long slices of the held-out corpus, round-robin."""
    texts = []
    documents = bench_test.shuffled(seed=5).documents
    doc_index = 0
    while len(texts) < N_REQUESTS:
        text = documents[doc_index % len(documents)].text
        while len(text) < REQUEST_CHARS:  # documents are shorter than the target slice
            doc_index += 1
            text += " " + documents[doc_index % len(documents)].text
        offset = (doc_index * 197) % max(1, len(text) - REQUEST_CHARS)
        texts.append(text[offset : offset + REQUEST_CHARS])
        doc_index += 1
    return texts


def _serve_config(executor: str) -> ServeConfig:
    # Batches sized so each replica receives multiple full flushes; cache off
    # so every request costs real engine work.
    return ServeConfig(
        max_batch=N_REQUESTS // (2 * WORKERS),
        max_delay_ms=5.0,
        replicas=WORKERS,
        executor=executor,
        cache_size=0,
        max_pending=4 * N_REQUESTS,
    )


def _served(identifier, texts, executor: str):
    async def main():
        service = ClassificationService(identifier, _serve_config(executor))
        async with service:
            return await service.classify_many(texts), service.metrics.snapshot()

    return asyncio.run(main())


def test_both_executors_match_the_batch_path(identifier, requests_mix):
    direct = identifier.classify_batch(requests_mix)
    for executor in ("thread", "process"):
        results, metrics = _served(identifier, requests_mix, executor)
        assert [r.match_counts for r in results] == [r.match_counts for r in direct]
        assert metrics["worker_respawns_total"] == 0
        assert metrics["mean_batch_size"] >= 2


def _timed_executor(identifier, texts, executor: str):
    """Best-of-N steady-state wall time for one full concurrent wave.

    The service (and, for the process tier, its spawned workers) starts once;
    a small warm-up wave forces every replica ready before timing begins, so
    the measurement compares steady-state serving throughput, not process
    start-up cost (which a long-lived service pays once).
    """

    async def main():
        service = ClassificationService(identifier, _serve_config(executor))
        async with service:
            await service.classify_many(texts[: 4 * WORKERS])  # every replica warm
            best, results = float("inf"), None
            for _ in range(REPEATS):
                start = time.perf_counter()
                results = await service.classify_many(texts)
                best = min(best, time.perf_counter() - start)
            return best, results, service.metrics.snapshot()

    return asyncio.run(main())


def _output_path() -> Path:
    return Path(os.environ.get("BENCH_PARALLEL_OUTPUT", "BENCH_parallel.json"))


@pytest.mark.timing
def test_process_pool_scales_past_the_gil(identifier, requests_mix):
    cores = os.cpu_count() or 1
    total_bytes = sum(len(text) for text in requests_mix)

    thread_seconds, thread_results, thread_metrics = _timed_executor(
        identifier, requests_mix, "thread"
    )
    process_seconds, process_results, process_metrics = _timed_executor(
        identifier, requests_mix, "process"
    )

    # Correctness first: both tiers must match the bare batch path bit-for-bit.
    direct = identifier.classify_batch(requests_mix)
    assert [r.match_counts for r in thread_results] == [r.match_counts for r in direct]
    assert [r.match_counts for r in process_results] == [r.match_counts for r in direct]

    thread_mb_s = total_bytes / thread_seconds / 1e6
    process_mb_s = total_bytes / process_seconds / 1e6
    speedup = thread_seconds / process_seconds

    print_table(
        f"parallel scaling ({N_REQUESTS} requests x ~{REQUEST_CHARS} B, "
        f"{WORKERS} replicas, {cores} core(s))",
        ("executor", "seconds", "MB/s", "vs thread"),
        [
            ("thread pool (GIL-bound)", f"{thread_seconds:.3f}", f"{thread_mb_s:.1f}", "1.00x"),
            ("process pool (shared memory)", f"{process_seconds:.3f}",
             f"{process_mb_s:.1f}", f"{speedup:.2f}x"),
        ],
    )

    gate_asserted = cores >= MIN_CORES_FOR_ASSERT
    payload = {
        "cores": cores,
        "cpu_count": cores,
        "workers": WORKERS,
        "requests": N_REQUESTS,
        "request_bytes": REQUEST_CHARS,
        "total_mb": total_bytes / 1e6,
        "thread_mb_s": thread_mb_s,
        "process_mb_s": process_mb_s,
        "process_vs_thread_speedup": speedup,
        "min_speedup_asserted": MIN_SPEEDUP if gate_asserted else None,
        # self-description: why (or that) the >=4-core speedup gate ran, so a
        # reader of the artifact alone can tell a pass from a skipped gate
        "skip_reason": (
            None
            if gate_asserted
            else f"only {cores} core(s) < {MIN_CORES_FOR_ASSERT} required; "
            "speedup recorded but not asserted"
        ),
        "thread_mean_batch_size": thread_metrics["mean_batch_size"],
        "process_mean_batch_size": process_metrics["mean_batch_size"],
        "worker_respawns": process_metrics["worker_respawns_total"],
        "serve_config": {
            "max_batch": N_REQUESTS // (2 * WORKERS),
            "max_delay_ms": 5.0,
            "replicas": WORKERS,
        },
    }
    output = _output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {output}")

    # Both tiers must genuinely micro-batch, and no worker may have crashed.
    assert process_metrics["worker_respawns_total"] == 0
    assert thread_metrics["mean_batch_size"] >= 2
    assert process_metrics["mean_batch_size"] >= 2

    if cores >= MIN_CORES_FOR_ASSERT:
        assert speedup >= MIN_SPEEDUP, (
            f"process pool was only {speedup:.2f}x the thread pool on {cores} cores "
            f"(expected >= {MIN_SPEEDUP}x): {thread_mb_s:.1f} vs {process_mb_s:.1f} MB/s"
        )
    else:
        print(
            f"only {cores} core(s): recorded {speedup:.2f}x without asserting the "
            f">= {MIN_SPEEDUP}x multi-core target"
        )
