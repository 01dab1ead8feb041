"""Tests for the mixed-language segmentation subsystem (``repro.segment``).

Covers the windowed edge-sum scorer against naive per-window recomputes,
the per-n-gram hit primitive across backends, the Viterbi decode, span
merging / degenerate-document guarantees, the facade + service surfaces under
both executors, and the result wire forms.
"""

from __future__ import annotations

import asyncio
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.corpus import build_jrc_acquis_like
from repro.corpus.generator import DocumentGenerator, MixedDocumentGenerator
from repro.segment import (
    SegmentationResult,
    Segmenter,
    SegmenterConfig,
    Span,
    WindowedScorer,
    segmentation_to_json,
    viterbi_labels,
    window_emissions,
)
from repro.segment.windows import EDGE_BLOCK_NGRAMS

LANGS = ("en", "fr", "fi", "es")


def _doc_counts(backend, packed):
    """The backend's per-language counts for one document (a batch of one)."""
    return backend.match_counts_batch(packed, [0], [packed.size])[0]


@pytest.fixture(scope="module")
def identifier():
    corpus = build_jrc_acquis_like(
        LANGS, docs_per_language=10, words_per_document=220, seed=31
    )
    config = ClassifierConfig(m_bits=16 * 1024, k=4, t=2500, seed=2)
    return LanguageIdentifier(config).train(corpus)


@pytest.fixture(scope="module")
def mixed_doc():
    return MixedDocumentGenerator(LANGS, seed=17, words_per_segment=110).generate(1)


# --------------------------------------------------------------------- ngram_hits


class TestNgramHits:
    @pytest.mark.parametrize("backend", ["bloom", "exact", "hail", "mguesser"])
    def test_hits_sum_to_match_counts(self, identifier, backend):
        clone = LanguageIdentifier(identifier.config, backend=backend).train_profiles(
            identifier.profiles
        )
        packed = clone.extractor.extract("the quick brown fox jumps over the lazy dog")
        hits = clone.backend.ngram_hits(packed)
        assert hits.shape == (len(clone.languages), packed.size)
        np.testing.assert_array_equal(
            hits.sum(axis=1, dtype=np.int64), _doc_counts(clone.backend, packed)
        )

    def test_hw_sim_hits_bit_exact_with_bloom(self, identifier):
        # the snapshot-based override must agree with the bloom backend for the
        # same seed (the engines program identical bit-vectors) and must not be
        # pathologically slower than the per-document simulation
        clone = LanguageIdentifier(identifier.config, backend="hw-sim").train_profiles(
            identifier.profiles
        )
        packed = clone.extractor.extract("the quick brown fox jumps over the lazy dog")
        hits = clone.backend.ngram_hits(packed)
        np.testing.assert_array_equal(hits, identifier.backend.ngram_hits(packed))
        np.testing.assert_array_equal(
            hits.sum(axis=1, dtype=np.int64), _doc_counts(clone.backend, packed)
        )

    def test_bloom_hits_match_per_ngram_counts(self, identifier):
        packed = identifier.extractor.extract("bonjour le monde entier")
        hits = identifier.backend.ngram_hits(packed)
        for i in range(packed.size):
            np.testing.assert_array_equal(
                hits[:, i].astype(np.int64),
                _doc_counts(identifier.backend, packed[i : i + 1]),
            )

    def test_empty_document(self, identifier):
        hits = identifier.backend.ngram_hits(np.empty(0, dtype=np.uint64))
        assert hits.shape == (len(identifier.languages), 0)

    def test_untrained_backend_rejected(self):
        untrained = LanguageIdentifier(ClassifierConfig())
        with pytest.raises(RuntimeError):
            untrained.backend.ngram_hits(np.empty(0, dtype=np.uint64))


# --------------------------------------------------------------------- windowed scorer


class TestWindowedScorer:
    def test_cumsum_counts_equal_naive_per_window(self, identifier, mixed_doc):
        packed = identifier.extractor.extract(mixed_doc.text)
        scorer = WindowedScorer(identifier.backend, window_ngrams=100, stride_ngrams=25)
        scores = scorer.score(packed)
        for w in range(scores.n_windows):
            start, end = int(scores.starts[w]), int(scores.ends[w])
            naive = _doc_counts(identifier.backend, packed[start:end])
            np.testing.assert_array_equal(scores.counts[w], naive)

    def test_windows_cover_every_ngram(self, identifier, mixed_doc):
        packed = identifier.extractor.extract(mixed_doc.text)
        scores = WindowedScorer(identifier.backend, 128, 32).score(packed)
        assert scores.starts[0] == 0
        assert scores.ends[-1] == packed.size  # no unscored tail
        assert np.all(scores.starts[1:] > scores.starts[:-1])
        assert np.all(scores.starts[1:] - scores.starts[:-1] <= 32)

    def test_short_document_yields_one_clipped_window(self, identifier):
        packed = identifier.extractor.extract("short text")
        scores = WindowedScorer(identifier.backend, window_ngrams=500).score(packed)
        assert scores.n_windows == 1
        assert scores.ends[0] == packed.size
        np.testing.assert_array_equal(
            scores.counts[0], _doc_counts(identifier.backend, packed)
        )

    def test_empty_document_yields_no_windows(self, identifier):
        scores = WindowedScorer(identifier.backend, 100).score(np.empty(0, dtype=np.uint64))
        assert scores.n_windows == 0

    def test_score_holds_one_int64_matrix(self):
        class BoolHits:
            languages = [f"l{i}" for i in range(10)]
            hits = np.random.default_rng(3).random((10, 200_000)) < 0.3

            def ngram_hits(self, packed):
                return self.hits[:, : packed.size]

        packed = np.arange(200_000, dtype=np.uint64)
        tracemalloc.start()
        try:
            scores = WindowedScorer(BoolHits(), window_ngrams=160).score(packed)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_languages, n_ngrams = BoolHits.hits.shape
        assert scores.cumulative.shape == (n_languages, scores.edges.size)
        np.testing.assert_array_equal(scores.cumulative[:, -1], BoolHits.hits.sum(axis=1))
        # no more than one int64 matrix of the hits' size: the cast inside
        # the edge reduction, not a second per-n-gram matrix beside it
        assert peak < 1.5 * 8 * n_languages * (n_ngrams + 1)

    def test_edge_sums_are_taken_in_bounded_blocks(self):
        class ByteHits:
            languages = [f"l{i}" for i in range(10)]
            hits = (np.random.default_rng(5).random((10, 4 * EDGE_BLOCK_NGRAMS + 321)) < 0.3)
            hits = hits.astype(np.uint8)

            def ngram_hits(self, packed):
                return self.hits[:, : packed.size]

        n_languages, n_ngrams = ByteHits.hits.shape
        packed = np.arange(n_ngrams, dtype=np.uint64)
        # window above a block: every interval is a block of its own
        for window, stride in ((1000, 1000), (7, 3), (160, 40), (100_000, 70_000)):
            scorer = WindowedScorer(ByteHits(), window_ngrams=window, stride_ngrams=stride)
            tracemalloc.start()
            try:
                scores = scorer.score(packed)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            edges = scores.edges
            sums = np.add.reduceat(ByteHits.hits, edges[:-1], axis=1, dtype=np.int64)
            np.testing.assert_array_equal(scores.cumulative[:, 0], 0)
            np.testing.assert_array_equal(scores.cumulative[:, 1:], sums.cumsum(axis=1))
            at_bounds = scores.cumulative[:, edges.searchsorted(scores.ends)]
            at_starts = scores.cumulative[:, edges.searchsorted(scores.starts)]
            np.testing.assert_array_equal(scores.counts, (at_bounds - at_starts).T)
            if window == 1000:
                # one int64 copy of the whole hit matrix would be 21 MB; a
                # block's is a fifth of it
                assert peak < 0.5 * 8 * n_languages * n_ngrams

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ngrams": 0},
            {"window_ngrams": -5},
            {"window_ngrams": 10, "stride_ngrams": 0},
            {"window_ngrams": 10, "stride_ngrams": 20},
        ],
    )
    def test_invalid_parameters(self, identifier, kwargs):
        with pytest.raises(ValueError):
            WindowedScorer(identifier.backend, **kwargs)


# --------------------------------------------------------------------- smoothing


class TestSmoothing:
    def test_emissions_normalized_and_scale_invariant(self):
        counts = np.asarray([[30, 10], [0, 0], [5, 15]], dtype=np.int64)
        emissions = window_emissions(counts)
        np.testing.assert_allclose(emissions[0], [0.75, 0.25])
        np.testing.assert_allclose(emissions[1], [0.0, 0.0])
        np.testing.assert_allclose(emissions, window_emissions(counts * 1_000_000))

    def test_viterbi_suppresses_single_window_blip(self):
        counts = np.asarray(
            [[20, 10], [20, 10], [14, 16], [20, 10], [20, 10]], dtype=np.int64
        )
        labels = viterbi_labels(counts, switch_penalty=0.35)
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 0])

    def test_viterbi_takes_sustained_switch(self):
        counts = np.asarray(
            [[20, 5], [20, 5], [5, 20], [5, 20], [5, 20]], dtype=np.int64
        )
        labels = viterbi_labels(counts, switch_penalty=0.35)
        np.testing.assert_array_equal(labels, [0, 0, 1, 1, 1])

    def test_viterbi_zero_penalty_is_argmax(self):
        # tie-free float counts: with no switch cost the optimal path is the
        # per-window argmax (integer ties would break towards staying instead)
        rng = np.random.default_rng(5)
        counts = rng.random(size=(40, 3)) + 0.01
        np.testing.assert_array_equal(
            viterbi_labels(counts, switch_penalty=0.0), np.argmax(counts, axis=1)
        )

    def test_viterbi_validates_penalty(self):
        with pytest.raises(ValueError):
            viterbi_labels(np.zeros((3, 2)), switch_penalty=-1.0)
        with pytest.raises(ValueError):  # NaN compares false: it would never switch
            viterbi_labels(np.zeros((3, 2)), switch_penalty=float("nan"))
        # inf is valid: it never switches
        counts = np.asarray([[9, 1], [1, 9], [1, 9]], dtype=np.int64)
        np.testing.assert_array_equal(
            viterbi_labels(counts, switch_penalty=float("inf")), [1, 1, 1]
        )

    def test_empty_window_matrix(self):
        assert viterbi_labels(np.zeros((0, 3))).size == 0


# --------------------------------------------------------------------- segmenter


class TestSegmenter:
    def test_single_language_document_is_one_span_matching_classify(self, identifier):
        for language in LANGS:
            text = DocumentGenerator(language, seed=3).generate_document(250, index=1)
            result = identifier.segment(text)
            assert len(result.spans) == 1
            span = result.spans[0]
            assert (span.start, span.end) == (0, len(text))
            assert span.language == identifier.classify(text).language

    def test_spans_tile_document(self, identifier, mixed_doc):
        result = identifier.segment(mixed_doc.text)
        assert result.spans[0].start == 0
        assert result.spans[-1].end == len(mixed_doc.text)
        for left, right in zip(result.spans, result.spans[1:]):
            assert left.end == right.start
            assert left.language != right.language

    def test_mixed_document_recovers_languages_and_boundaries(self, identifier, mixed_doc):
        result = identifier.segment(mixed_doc.text)
        assert [s.language for s in result.spans] == mixed_doc.languages
        # every predicted boundary lies within one window of the true one
        tolerance = 2 * SegmenterConfig().window_ngrams
        for predicted, truth in zip(
            [s.end for s in result.spans[:-1]], mixed_doc.boundaries
        ):
            assert abs(predicted - truth) <= tolerance

    def test_empty_document(self, identifier):
        result = identifier.segment("")
        assert result.spans == [] and result.text_length == 0

    def test_document_shorter_than_ngram(self, identifier):
        result = identifier.segment("ab")
        assert len(result.spans) == 1
        assert result.spans[0].language == identifier.classify("ab").language
        assert result.spans[0].confidence == 0.0
        assert result.ngram_count == 0 and result.window_count == 0

    def test_bytes_input_offsets_are_byte_offsets(self, identifier, mixed_doc):
        data = mixed_doc.text.encode("latin-1")
        result = identifier.segment(data)
        assert result.text_length == len(data)
        assert result.spans[-1].end == len(data)

    def test_confidence_in_unit_range(self, identifier, mixed_doc):
        for span in identifier.segment(mixed_doc.text).spans:
            assert 0.0 <= span.confidence <= 1.0

    def test_subsample_stride_maps_offsets_back_to_characters(self, mixed_doc, identifier):
        strided = LanguageIdentifier(
            identifier.config, subsample_stride=2
        ).train_profiles(identifier.profiles)
        result = strided.segment(mixed_doc.text)
        assert result.spans[0].start == 0
        assert result.spans[-1].end == len(mixed_doc.text)
        for left, right in zip(result.spans, result.spans[1:]):
            assert left.end == right.start

    def test_exact_backend_segments_too(self, identifier, mixed_doc):
        exact = LanguageIdentifier(identifier.config, backend="exact").train_profiles(
            identifier.profiles
        )
        result = exact.segment(mixed_doc.text)
        assert [s.language for s in result.spans] == mixed_doc.languages

    def test_untrained_identifier_rejected(self):
        with pytest.raises(RuntimeError):
            LanguageIdentifier(ClassifierConfig()).segment("text")
        with pytest.raises(RuntimeError):
            Segmenter(LanguageIdentifier(ClassifierConfig()))

    def test_default_segmenter_cached_overrides_not(self, identifier, mixed_doc):
        identifier.segment("warm the cache up with this text")
        first = identifier._default_segmenter
        identifier.segment("and again with the same configuration")
        assert identifier._default_segmenter is first
        # settings take a Segmenter of their own, never a per-call keyword
        with pytest.raises(TypeError):
            identifier.segment("overridden call", window_ngrams=64)
        assert identifier._default_segmenter is first
        custom = Segmenter(identifier, SegmenterConfig(window_ngrams=64, stride_ngrams=16))
        assert custom.segment(mixed_doc.text).window_count > identifier.segment(
            mixed_doc.text
        ).window_count

    def test_cached_segmenter_does_not_keep_identifier_alive(self, identifier, tmp_path):
        # a dropped identifier must release its mapped model file at once,
        # not at the next full garbage collection
        loaded = LanguageIdentifier.load(identifier.save(tmp_path / "model.bin"))
        loaded.segment("warm the cache up with this text")
        alive = weakref.ref(loaded)
        gc.disable()
        try:
            del loaded
            assert alive() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_ngrams": 0},
            {"stride_ngrams": -1},
            {"switch_penalty": -0.1},
            {"switch_penalty": float("nan")},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SegmenterConfig(**kwargs)


# --------------------------------------------------------------------- result types


class TestResultTypes:
    def test_span_validation_and_len(self):
        span = Span(3, 10, "en", 0.5)
        assert len(span) == 7
        assert span.overlap(0, 5) == 2
        assert span.overlap(20, 30) == 0
        with pytest.raises(ValueError):
            Span(-1, 4, "en", 0.0)
        with pytest.raises(ValueError):
            Span(5, 4, "en", 0.0)

    def test_result_helpers(self):
        result = SegmentationResult(
            spans=[Span(0, 5, "en", 0.9), Span(5, 30, "fr", 0.8), Span(30, 32, "en", 0.1)],
            text_length=32,
            ngram_count=29,
            window_count=4,
        )
        assert result.languages == ["en", "fr"]
        assert result.dominant_language == "fr"
        assert result.label_at(0) == "en"
        assert result.label_at(7) == "fr"
        assert result.label_at(99) is None
        assert len(result) == 3 and [s.language for s in result] == ["en", "fr", "en"]

    def test_json_round_trips(self):
        result = SegmentationResult(
            spans=[Span(0, 4, "en", 1.0)], text_length=4, ngram_count=1, window_count=1
        )
        payload = segmentation_to_json(result)
        assert payload["spans"] == [
            {"start": 0, "end": 4, "language": "en", "confidence": 1.0}
        ]
        assert payload["dominant_language"] == "en"
        import json

        json.dumps(payload)  # must be JSON-serialisable as-is

    def test_empty_result(self):
        result = SegmentationResult()
        assert result.dominant_language is None and result.languages == []


# --------------------------------------------------------------------- service surface


class TestServiceSegmentation:
    def test_thread_service_matches_direct(self, identifier, mixed_doc):
        from repro.serve import ClassificationService, ServeConfig

        async def main():
            service = ClassificationService(identifier, ServeConfig(max_delay_ms=1.0))
            async with service:
                served = await service.segment(mixed_doc.text)
                many = await service.segment_many([mixed_doc.text, "plain english words"])
                cached = await service.segment(mixed_doc.text)
            return served, many, cached, service.metrics

        served, many, cached, metrics = asyncio.run(main())
        direct = identifier.segment(mixed_doc.text)
        for result in (served, many[0], cached):
            assert [(s.start, s.end, s.language) for s in result.spans] == [
                (s.start, s.end, s.language) for s in direct.spans
            ]
        assert metrics.segment_requests_total == 4
        assert metrics.cache_hits >= 1

    def test_process_service_matches_direct(self, identifier, mixed_doc):
        from repro.serve import ClassificationService, ServeConfig

        async def main():
            service = ClassificationService(
                identifier,
                ServeConfig(max_delay_ms=1.0, replicas=1, executor="process"),
            )
            async with service:
                return await service.segment(mixed_doc.text)

        served = asyncio.run(main())
        direct = identifier.segment(mixed_doc.text)
        assert [(s.start, s.end, s.language, s.confidence) for s in served.spans] == [
            (s.start, s.end, s.language, s.confidence) for s in direct.spans
        ]

    def test_segment_and_classify_cache_keys_disjoint(self, identifier):
        from repro.serve import ClassificationService, ServeConfig

        text = "the very same document goes down both paths"

        async def main():
            service = ClassificationService(identifier, ServeConfig(max_delay_ms=1.0))
            async with service:
                classification = await service.classify(text)
                segmentation = await service.segment(text)
            return classification, segmentation

        classification, segmentation = asyncio.run(main())
        # same digest, different ops: each result has its own type — a shared
        # key would have replayed the classification for the segment request
        assert isinstance(segmentation, SegmentationResult)
        assert classification.language == segmentation.spans[0].language
