"""Batch-serving benchmark: the facade's vectorized ``classify_batch`` vs a loop.

``classify_batch`` hashes a whole batch's packed n-grams once (in cache-sized
chunks) and reuses the addresses across every document and every language,
instead of calling ``classify`` (a batch of one) a thousand times.  Over a
1 000-document batch

* both paths produce identical classifications and match counts (tier-1), and
* the vectorized path's throughput is at least that of the per-document loop
  (a ``timing`` test, deselected from tier-1).
"""

from __future__ import annotations

import time

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier

from bench_common import BENCH_PROFILE_SIZE, print_table

BATCH_DOCUMENTS = 1000
REPEATS = 3


@pytest.fixture(scope="module")
def identifier(bench_train):
    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0)
    return LanguageIdentifier(config).train(bench_train)


@pytest.fixture(scope="module")
def batch_texts(bench_test):
    documents = bench_test.documents
    texts = [documents[i % len(documents)].text for i in range(BATCH_DOCUMENTS)]
    return texts


def _best_of(repeats, fn):
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _per_document_loop(identifier, texts):
    return [identifier.classify(text) for text in texts]


def test_classify_batch_matches_per_document_loop(identifier, batch_texts):
    loop_results = _per_document_loop(identifier, batch_texts)
    batch_results = identifier.classify_batch(batch_texts)
    assert [r.match_counts for r in batch_results] == [r.match_counts for r in loop_results]
    assert [r.language for r in batch_results] == [r.language for r in loop_results]


@pytest.mark.timing
def test_classify_batch_matches_and_beats_per_document_loop(identifier, batch_texts):
    total_bytes = sum(len(text) for text in batch_texts)

    # warm both paths (profile programming, table initialisation)
    _per_document_loop(identifier, batch_texts[:32])
    identifier.classify_batch(batch_texts[:32])

    loop_seconds, loop_results = _best_of(
        REPEATS, lambda: _per_document_loop(identifier, batch_texts)
    )
    batch_seconds, batch_results = _best_of(
        REPEATS, lambda: identifier.classify_batch(batch_texts)
    )

    assert [r.match_counts for r in batch_results] == [r.match_counts for r in loop_results]

    loop_mb_s = total_bytes / loop_seconds / 1e6
    batch_mb_s = total_bytes / batch_seconds / 1e6
    print_table(
        f"classify_batch vs per-document loop ({BATCH_DOCUMENTS} documents, "
        f"{total_bytes / 1e6:.1f} MB)",
        ("path", "seconds", "MB/s"),
        [
            ("per-document loop", f"{loop_seconds:.3f}", f"{loop_mb_s:.1f}"),
            ("vectorized classify_batch", f"{batch_seconds:.3f}", f"{batch_mb_s:.1f}"),
            ("speedup", f"{loop_seconds / batch_seconds:.2f}x", ""),
        ],
    )
    # Throughput must be at least the loop's (5% slack absorbs timer noise).
    assert batch_seconds <= loop_seconds * 1.05, (
        f"vectorized batch path ({batch_mb_s:.1f} MB/s) is slower than the "
        f"per-document loop ({loop_mb_s:.1f} MB/s)"
    )


def test_classify_stream_matches_batch(identifier, batch_texts):
    streamed = list(identifier.classify_stream(iter(batch_texts[:200]), batch_size=64))
    direct = identifier.classify_batch(batch_texts[:200])
    assert [r.match_counts for r in streamed] == [r.match_counts for r in direct]
