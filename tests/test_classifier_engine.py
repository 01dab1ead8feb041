"""Unit tests for the multi-language classifier engines (hardware model)."""

import numpy as np
import pytest

from repro.api import LanguageIdentifier
from repro.core.ngram import ngrams_from_text
from repro.hardware.classifier_engine import (
    MultipleLanguageClassifier,
    ParallelMultiLanguageClassifier,
)


@pytest.fixture(scope="module")
def small_profiles(profiles):
    """Smaller profiles so cycle-accurate paths stay fast."""
    return {lang: profile.top(300) for lang, profile in list(profiles.items())[:3]}


class TestMultipleLanguageClassifier:
    def test_program_profiles_counts_cycles(self, small_profiles):
        unit = MultipleLanguageClassifier(m_bits=4096, k=3, seed=1)
        cycles = unit.program_profiles(small_profiles)
        assert cycles == sum(len(p) for p in small_profiles.values())
        assert set(unit.languages) == set(small_profiles)

    def test_load_profiles_fast_equivalent_to_program(self, small_profiles):
        slow = MultipleLanguageClassifier(m_bits=4096, k=3, seed=2)
        slow.program_profiles(small_profiles)
        fast = MultipleLanguageClassifier(m_bits=4096, k=3, seed=2)
        fast.load_profiles_fast(small_profiles)
        packed = ngrams_from_text("equivalence check text for engines")
        assert slow.process_stream(packed).match_counts == fast.process_stream(packed).match_counts

    def test_process_stream_cycle_count(self, small_profiles):
        unit = MultipleLanguageClassifier(m_bits=4096, k=2, seed=0)
        unit.load_profiles_fast(small_profiles)
        packed = np.arange(11, dtype=np.uint64)
        report = unit.process_stream(packed)
        assert report.cycles == 6  # ceil(11 / 2 lanes)
        assert report.ngrams == 11

    def test_cycle_accurate_matches_fast(self, small_profiles):
        unit = MultipleLanguageClassifier(m_bits=4096, k=2, seed=0)
        unit.load_profiles_fast(small_profiles)
        packed = ngrams_from_text("cycle accurate comparison of both execution paths")
        fast = unit.process_stream(packed, cycle_accurate=False)
        accurate = unit.process_stream(packed, cycle_accurate=True)
        assert fast.match_counts == accurate.match_counts
        assert fast.cycles == accurate.cycles

    def test_unprogrammed_raises(self):
        with pytest.raises(RuntimeError):
            MultipleLanguageClassifier().process_stream(np.arange(4, dtype=np.uint64))

    def test_m4k_blocks_used(self, small_profiles):
        unit = MultipleLanguageClassifier(m_bits=16 * 1024, k=4, seed=0)
        unit.load_profiles_fast(small_profiles)
        # 3 languages * 4 hashes * 4 blocks
        assert unit.m4k_blocks_used == 48

    def test_empty_stream(self, small_profiles):
        unit = MultipleLanguageClassifier(m_bits=4096, k=2, seed=0)
        unit.load_profiles_fast(small_profiles)
        report = unit.process_stream(np.empty(0, dtype=np.uint64))
        assert report.cycles == 0
        assert all(count == 0 for count in report.match_counts.values())


class TestParallelMultiLanguageClassifier:
    def test_eight_ngrams_per_clock(self):
        engine = ParallelMultiLanguageClassifier(copies=4, lanes_per_copy=2)
        assert engine.ngrams_per_clock == 8

    def test_cycles_reflect_parallelism(self, small_profiles):
        engine = ParallelMultiLanguageClassifier(m_bits=4096, k=2, seed=3, copies=4)
        engine.load_profiles_fast(small_profiles)
        packed = np.arange(80, dtype=np.uint64)
        report = engine.process_document(packed)
        # 80 n-grams / 8 per clock = 10 cycles + adder tree latency (2)
        assert report.cycles == 10 + engine.adder_tree_latency

    def test_counts_match_software_classifier(self, small_profiles, sample_document):
        seed = 17
        engine = ParallelMultiLanguageClassifier(m_bits=8192, k=3, seed=seed, copies=4)
        engine.load_profiles_fast(small_profiles)
        software = LanguageIdentifier(m_bits=8192, k=3, seed=seed).train_profiles(small_profiles)
        packed = software.extractor.extract(sample_document.text)
        report = engine.process_document(packed)
        assert report.match_counts == software.classify(sample_document.text).match_counts
        # the hw-sim backend runs this engine behind the same facade
        hardware = LanguageIdentifier(m_bits=8192, k=3, seed=seed, backend="hw-sim")
        hardware_result = hardware.train_profiles(small_profiles).classify(sample_document.text)
        assert hardware_result.match_counts == report.match_counts
        assert hardware_result.language == software.classify(sample_document.text).language

    def test_classifies_correct_language(self, small_profiles, train_corpus, test_corpus):
        engine = LanguageIdentifier(m_bits=16 * 1024, k=4, seed=1, backend="hw-sim")
        engine.train_profiles(small_profiles)
        langs = set(small_profiles)
        docs = [d for d in test_corpus if d.language in langs][:6]
        results = engine.classify_batch([doc.text for doc in docs])
        correct = sum(result.language == doc.language for result, doc in zip(results, docs))
        assert correct >= len(docs) - 1

    def test_program_profiles_cycle_cost_scales_with_copies(self, small_profiles):
        engine = ParallelMultiLanguageClassifier(m_bits=4096, k=2, seed=0, copies=2)
        cycles = engine.program_profiles(small_profiles)
        assert cycles == 2 * sum(len(p) for p in small_profiles.values())

    def test_m4k_accounting_matches_paper_formula(self, small_profiles):
        engine = ParallelMultiLanguageClassifier(m_bits=16 * 1024, k=4, seed=0, copies=4)
        engine.load_profiles_fast(small_profiles)
        # copies(4) x languages(3) x k(4) x blocks/vector(4) = 192
        assert engine.m4k_blocks_used == 192

    def test_empty_document(self, small_profiles):
        engine = ParallelMultiLanguageClassifier(m_bits=4096, k=2, seed=0)
        engine.load_profiles_fast(small_profiles)
        report = engine.process_document(np.empty(0, dtype=np.uint64))
        assert report.ngrams == 0
        assert all(count == 0 for count in report.match_counts.values())

    def test_unprogrammed_raises(self):
        with pytest.raises(RuntimeError):
            ParallelMultiLanguageClassifier().process_document(np.arange(8, dtype=np.uint64))

    def test_invalid_copies(self):
        with pytest.raises(ValueError):
            ParallelMultiLanguageClassifier(copies=0)

    def test_engine_report_bytes_per_cycle(self, small_profiles):
        engine = ParallelMultiLanguageClassifier(m_bits=4096, k=2, seed=0)
        engine.load_profiles_fast(small_profiles)
        packed = np.arange(800, dtype=np.uint64)
        report = engine.process_document(packed)
        assert 7.0 < report.throughput_bytes_per_cycle() <= 8.0
