"""Segmentation benchmark: span accuracy on code-switched docs + scorer speedup.

Two gates, one artifact:

* **accuracy** — seeded mixed documents (2–4 spliced segments, each well over
  400 characters, ground-truth boundaries recorded by
  :class:`~repro.corpus.generator.MixedDocumentGenerator`) must come back
  from the Viterbi segmenter with ≥ 0.9 span-level accuracy (fraction of
  characters carrying the correct language label), and degenerate
  single-language documents must come back as exactly one span matching
  ``classify``;
* **throughput** — the cumulative-sum windowed scorer must beat the naive
  alternative (one ``classify`` call per sliding window, re-extracting and
  re-hashing every window's n-grams) by ≥ 5x, since it hashes each n-gram
  once however many windows overlap it.  This is a ``timing`` test; tier-1
  checks only that both paths count every window identically.

Results land in ``BENCH_segment.json`` (set ``BENCH_SEGMENT_OUTPUT`` to
redirect) and CI uploads the file next to ``BENCH_serve.json`` /
``BENCH_parallel.json`` as part of the repo's perf trajectory.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.generator import DocumentGenerator, MixedDocumentGenerator
from repro.corpus.languages import PAPER_LANGUAGES
from repro.segment import Segmenter, SegmenterConfig

from bench_common import BENCH_PROFILE_SIZE, print_table

#: mixed documents scored for the accuracy gate
N_ACCURACY_DOCS = 30
#: documents timed for the throughput gate (windowed vs naive per-window)
N_TIMING_DOCS = 6
TIMING_REPEATS = 3
#: acceptance floors (issue: >= 0.9 span accuracy, >= 5x scorer speedup); CI
#: sets BENCH_SEGMENT_MIN_SPEEDUP lower because shared runners add timer noise
MIN_SPAN_ACCURACY = 0.9
MIN_SPEEDUP = float(os.environ.get("BENCH_SEGMENT_MIN_SPEEDUP", "5.0"))
#: predicted boundaries within this many characters of the truth count as hits
BOUNDARY_TOLERANCE_CHARS = 120

SEGMENTER_CONFIG = SegmenterConfig(window_ngrams=160, stride_ngrams=40, smoothing="viterbi")


@pytest.fixture(scope="module")
def identifier(bench_train):
    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=BENCH_PROFILE_SIZE, seed=0)
    return LanguageIdentifier(config).train(bench_train)


@pytest.fixture(scope="module")
def mixed_docs():
    generator = MixedDocumentGenerator(
        PAPER_LANGUAGES, seed=97, segments_range=(2, 4), words_per_segment=110
    )
    docs = generator.generate_many(N_ACCURACY_DOCS)
    for doc in docs:
        assert 2 <= len(doc.segments) <= 4
        assert all(len(segment) >= 400 for segment in doc.segments)
    return docs


def char_accuracy(result, mixed) -> float:
    """Fraction of characters whose predicted span label matches the truth."""
    correct = sum(
        span.overlap(segment.start, segment.end)
        for span in result.spans
        for segment in mixed.segments
        if span.language == segment.language
    )
    return correct / max(1, len(mixed.text))


def boundary_prf(predicted: list[int], truth: list[int], tolerance: int):
    """Greedy one-to-one boundary matching within ``tolerance`` characters."""
    unmatched = list(truth)
    hits = 0
    for boundary in predicted:
        best = None
        for candidate in unmatched:
            if abs(candidate - boundary) <= tolerance and (
                best is None or abs(candidate - boundary) < abs(best - boundary)
            ):
                best = candidate
        if best is not None:
            unmatched.remove(best)
            hits += 1
    precision = hits / len(predicted) if predicted else 1.0
    recall = hits / len(truth) if truth else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def _output_path() -> Path:
    return Path(os.environ.get("BENCH_SEGMENT_OUTPUT", "BENCH_segment.json"))


def _naive_per_window_labels(identifier, text: str, bounds) -> list[str]:
    """The baseline a user without the scorer would write: classify every window.

    Each window's characters are re-extracted and re-hashed from scratch —
    with overlapping windows every n-gram is hashed ``window / stride`` times
    instead of once.
    """
    n = identifier.config.n
    labels = []
    for start, end in bounds:
        window_text = text[start : end + n - 1]
        labels.append(identifier.classify(window_text).language)
    return labels


def test_viterbi_span_accuracy_on_mixed_documents(identifier, mixed_docs):
    segmenter = Segmenter(identifier, SEGMENTER_CONFIG)
    accuracies = []
    precisions, recalls, f1s = [], [], []
    rows = []
    for index, mixed in enumerate(mixed_docs):
        result = segmenter.segment(mixed.text)
        accuracy = char_accuracy(result, mixed)
        accuracies.append(accuracy)
        precision, recall, f1 = boundary_prf(
            [span.end for span in result.spans[:-1]],
            mixed.boundaries,
            BOUNDARY_TOLERANCE_CHARS,
        )
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
        if index < 8:
            rows.append(
                (
                    index,
                    " ".join(mixed.languages),
                    " ".join(s.language for s in result.spans),
                    f"{100 * accuracy:.1f}%",
                    f"{f1:.2f}",
                )
            )
    mean_accuracy = sum(accuracies) / len(accuracies)
    mean_f1 = sum(f1s) / len(f1s)
    print_table(
        "Mixed-document segmentation (first 8 docs)",
        ("doc", "truth", "predicted", "char acc", "boundary F1"),
        rows,
    )
    print(
        f"\nmean span accuracy: {100 * mean_accuracy:.2f}% over {len(mixed_docs)} docs "
        f"(floor {100 * MIN_SPAN_ACCURACY:.0f}%), boundary F1 {mean_f1:.3f} "
        f"@ +-{BOUNDARY_TOLERANCE_CHARS} chars"
    )

    # stash for the throughput test to merge into one artifact
    test_viterbi_span_accuracy_on_mixed_documents.results = {
        "span_accuracy_mean": mean_accuracy,
        "span_accuracy_min": min(accuracies),
        "boundary_precision": sum(precisions) / len(precisions),
        "boundary_recall": sum(recalls) / len(recalls),
        "boundary_f1": mean_f1,
        "boundary_tolerance_chars": BOUNDARY_TOLERANCE_CHARS,
        "documents": len(mixed_docs),
    }
    assert mean_accuracy >= MIN_SPAN_ACCURACY, (
        f"span accuracy {mean_accuracy:.3f} below the {MIN_SPAN_ACCURACY} floor"
    )


def test_single_language_documents_degenerate_to_classify(identifier):
    for language in ("en", "fr", "fi", "cs"):
        text = DocumentGenerator(language, seed=55).generate_document(300, index=2)
        result = identifier.segment(text)
        assert len(result.spans) == 1
        assert result.spans[0].language == identifier.classify(text).language
        assert (result.spans[0].start, result.spans[0].end) == (0, len(text))


def test_windowed_scorer_matches_naive_per_window_loop(identifier, mixed_docs):
    """Each window's scorer counts equal classifying the window's text from scratch."""
    scorer = Segmenter(identifier, SEGMENTER_CONFIG).scorer
    n = identifier.config.n
    for mixed in mixed_docs[:N_TIMING_DOCS]:
        scores = scorer.score(identifier.extractor.extract(mixed.text))
        texts = [
            mixed.text[start : end + n - 1]
            for start, end in zip(scores.starts.tolist(), scores.ends.tolist())
        ]
        naive = identifier.classify_batch(texts)
        for counts, result in zip(scores.counts, naive):
            assert result.match_counts == dict(zip(identifier.languages, counts.tolist()))


@pytest.mark.timing
def test_windowed_scorer_beats_naive_per_window_loop(identifier, mixed_docs):
    segmenter = Segmenter(identifier, SEGMENTER_CONFIG)
    timing_docs = [doc.text for doc in mixed_docs[:N_TIMING_DOCS]]

    # warm-up (stacked bit-vectors, numpy caches)
    segmenter.segment(timing_docs[0])
    # window boundaries are precomputed OUTSIDE the timed regions so the naive
    # side is charged only for its per-window classify calls, not for the
    # windowed path's own extract+score pass
    window_bounds = []
    for text in timing_docs:
        scores = segmenter.scorer.score(identifier.extractor.extract(text))
        window_bounds.append(list(zip(scores.starts.tolist(), scores.ends.tolist())))

    windowed_best = float("inf")
    naive_best = float("inf")
    for _ in range(TIMING_REPEATS):
        start = time.perf_counter()
        windowed_results = [segmenter.segment(text) for text in timing_docs]
        windowed_best = min(windowed_best, time.perf_counter() - start)

        start = time.perf_counter()
        for text, bounds in zip(timing_docs, window_bounds):
            _naive_per_window_labels(identifier, text, bounds)
        naive_best = min(naive_best, time.perf_counter() - start)
    windows_timed = sum(result.window_count for result in windowed_results)

    speedup = naive_best / windowed_best
    total_chars = sum(len(text) for text in timing_docs)
    windowed_mb_s = total_chars / windowed_best / 1e6
    naive_mb_s = total_chars / naive_best / 1e6
    print_table(
        "Windowed scorer vs naive per-window classify",
        ("path", "time (s)", "MB/s"),
        [
            ("cumsum windowed (full segment())", f"{windowed_best:.4f}", f"{windowed_mb_s:.1f}"),
            ("naive per-window classify loop", f"{naive_best:.4f}", f"{naive_mb_s:.1f}"),
        ],
    )
    print(
        f"\nspeedup: {speedup:.1f}x over {len(timing_docs)} docs / "
        f"{windows_timed} windows (floor {MIN_SPEEDUP}x)"
    )

    accuracy_results = getattr(
        test_viterbi_span_accuracy_on_mixed_documents, "results", {}
    )
    payload = {
        "benchmark": "segment",
        "config": {
            "window_ngrams": SEGMENTER_CONFIG.window_ngrams,
            "stride_ngrams": SEGMENTER_CONFIG.stride_ngrams,
            "smoothing": SEGMENTER_CONFIG.smoothing,
            "switch_penalty": SEGMENTER_CONFIG.switch_penalty,
            "languages": len(identifier.languages),
            "timing_documents": len(timing_docs),
            "timing_repeats": TIMING_REPEATS,
        },
        "accuracy": accuracy_results,
        "throughput": {
            "windowed_seconds": windowed_best,
            "naive_seconds": naive_best,
            "windowed_mb_s": windowed_mb_s,
            "naive_mb_s": naive_mb_s,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "windows": windows_timed,
        },
    }
    output = _output_path()
    output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {output}")

    assert speedup >= MIN_SPEEDUP, (
        f"windowed scorer only {speedup:.1f}x the naive per-window loop "
        f"(expected >= {MIN_SPEEDUP}x)"
    )
