"""Cross-module integration tests: the full pipeline behaves like the paper says."""

import numpy as np
import pytest

from repro.analysis.accuracy import evaluate_classifier_batch
from repro.api import LanguageIdentifier
from repro.baselines.mguesser import MguesserClassifier
from repro.core.fpr import false_positive_rate
from repro.core.profile import build_profiles
from repro.corpus.corpus import build_jrc_acquis_like
from repro.system.xd1000 import XD1000System


class TestEndToEndAccuracy:
    def test_conservative_configuration_is_accurate(self, train_corpus, test_corpus):
        classifier = LanguageIdentifier(m_bits=16 * 1024, k=4, t=1500, seed=0)
        classifier.train(train_corpus)
        report = evaluate_classifier_batch(classifier, test_corpus)
        assert report.average_accuracy >= 0.97

    def test_accuracy_degrades_with_false_positive_rate(self, train_corpus, test_corpus):
        """The qualitative Table 1 trend: higher FPR never helps accuracy."""
        accuracies = []
        for m_kbits, k in [(16, 4), (4, 2), (1, 1)]:
            classifier = LanguageIdentifier(m_bits=m_kbits * 1024, k=k, t=1500, seed=0)
            classifier.train(train_corpus)
            report = evaluate_classifier_batch(classifier, test_corpus)
            accuracies.append(report.average_accuracy)
        assert accuracies[0] >= accuracies[-1]
        assert accuracies[0] >= accuracies[1]

    def test_confusions_concentrate_on_related_pairs(self):
        """Section 5.2: Spanish↔Portuguese and Estonian↔Finnish dominate the errors."""
        corpus = build_jrc_acquis_like(
            ["es", "pt", "fi", "et", "en", "fr"], docs_per_language=20, words_per_document=120, seed=11
        )
        train, test = corpus.split(train_fraction=0.2, seed=1)
        classifier = LanguageIdentifier(m_bits=2 * 1024, k=1, t=2000, seed=3)
        classifier.train(train)
        report = evaluate_classifier_batch(classifier, test)
        related = {frozenset({"es", "pt"}), frozenset({"fi", "et"}), frozenset({"en", "fr"})}
        confusions = report.confusion_as_dict()
        if confusions:  # with tiny filters some errors should exist
            related_errors = sum(
                count for (gold, pred), count in confusions.items()
                if frozenset({gold, pred}) in related
            )
            assert related_errors >= 0.5 * sum(confusions.values())

    def test_exact_classifier_at_least_as_good_as_small_bloom(self, train_corpus, test_corpus):
        exact = LanguageIdentifier(t=1500, backend="exact").train(train_corpus)
        bloom = LanguageIdentifier(m_bits=1024, k=1, t=1500, seed=0).train(train_corpus)
        exact_report = evaluate_classifier_batch(exact, test_corpus)
        bloom_report = evaluate_classifier_batch(bloom, test_corpus)
        assert exact_report.average_accuracy >= bloom_report.average_accuracy - 1e-9


class TestHardwareSoftwareEquivalence:
    def test_hardware_engine_equals_software_classifier_on_corpus(self, profiles, test_corpus):
        seed = 23
        software = LanguageIdentifier(m_bits=8192, k=3, seed=seed).train_profiles(profiles)
        hardware = LanguageIdentifier(m_bits=8192, k=3, seed=seed, backend="hw-sim")
        hardware.train_profiles(profiles)
        texts = [document.text for document in test_corpus.documents[:10]]
        hw_results = hardware.classify_batch(texts)
        sw_results = software.classify_batch(texts)
        assert [r.match_counts for r in hw_results] == [r.match_counts for r in sw_results]
        assert [r.language for r in hw_results] == [r.language for r in sw_results]


class TestSystemLevel:
    def test_full_system_run_matches_figure4_shape(self, profiles, test_corpus):
        machine = XD1000System(m_bits=16 * 1024, k=4, t=1500, seed=0)
        machine.program_profiles(profiles)
        # functional accuracy on the (small-document) test corpus
        asynchronous = machine.classify_corpus(test_corpus, driver="asynchronous")
        assert asynchronous.throughput_mb_s <= 500
        assert asynchronous.accuracy > 0.9
        # the Figure 4 ratio (~2x) holds at the paper's average document size (~9.2 KB)
        sizes = [9206] * 2000
        sync = machine.throughput_for_sizes(sizes, driver="synchronous")
        streaming = machine.throughput_for_sizes(sizes, driver="asynchronous")
        assert 1.7 < streaming.throughput_mb_s / sync.throughput_mb_s < 2.4

    def test_system_beats_software_baseline_by_large_factor(self, profiles, test_corpus):
        machine = XD1000System(m_bits=16 * 1024, k=4, t=1500, seed=0)
        machine.program_profiles(profiles)
        report = machine.throughput_for_sizes([9206] * 2000, driver="asynchronous")
        # Table 4: 470 MB/s vs 5.5 MB/s ≈ 85x
        speedup = report.throughput_mb_s / 5.5
        assert speedup == pytest.approx(85, rel=0.08)


class TestBaselinesAgree:
    def test_all_classifiers_agree_on_easy_documents(self, train_corpus, test_corpus):
        bloom = LanguageIdentifier(m_bits=16 * 1024, k=4, t=1500, seed=1).train(train_corpus)
        hail = LanguageIdentifier(t=1500, backend="hail").train(train_corpus)
        mguesser = MguesserClassifier(profile_size=1500).fit(train_corpus)
        agreements = 0
        documents = test_corpus.documents[:10]
        for document in documents:
            predictions = {
                bloom.classify(document.text).language,
                hail.classify(document.text).language,
                mguesser.classify_text(document.text),
            }
            agreements += len(predictions) == 1
        assert agreements >= 8

    def test_profiles_shared_between_designs(self, train_corpus):
        """Bloom and HAIL designs consume the same profile abstraction."""
        profiles = build_profiles(train_corpus.texts_by_language(), t=800)
        bloom = LanguageIdentifier(m_bits=8192, k=3, seed=0).train_profiles(profiles)
        hail = LanguageIdentifier(backend="hail").train_profiles(profiles)
        assert bloom.languages == hail.languages == list(profiles)


class TestModelConsistency:
    def test_measured_filter_fpr_matches_formula_at_scale(self):
        """The analytical FPR model (Section 5.2) predicts the realised rates."""
        from repro.core.bloom import ParallelBloomFilter

        rng = np.random.default_rng(0)
        members = np.unique(rng.integers(0, 1 << 20, size=5000, dtype=np.uint64))
        for m_bits, k in [(16 * 1024, 4), (8 * 1024, 3), (4 * 1024, 6)]:
            filt = ParallelBloomFilter(m_bits=m_bits, k=k, seed=9)
            filt.add_many(members)
            probes = rng.integers(0, 1 << 20, size=50000, dtype=np.uint64)
            probes = probes[~np.isin(probes, members)]
            measured = float(filt.contains_many(probes).mean())
            expected = false_positive_rate(members.size, m_bits, k)
            assert measured == pytest.approx(expected, rel=0.25, abs=0.002)
