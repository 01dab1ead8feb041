"""Unit tests for accuracy evaluation, sweeps and reporting."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    AccuracyReport,
    confusion_pairs,
    evaluate_classifier,
    evaluate_classifier_batch,
)
from repro.analysis.reporting import format_number, format_percentage, format_table, render_bar_chart
from repro.analysis.sweep import (
    PAPER_TABLE1_GRID,
    sweep_bloom_parameters,
    sweep_hash_families,
    sweep_ngram_order,
    sweep_profile_size,
    sweep_subsampling,
)
from repro.api import ClassifierConfig, LanguageIdentifier


class _FixedClassifier:
    """Classifies everything as a fixed language (for evaluation-logic tests)."""

    def __init__(self, language):
        self.language = language

    def classify_text(self, _text):
        return self.language


class _PerDocument:
    """An identifier behind ``evaluate_classifier``'s per-document ``classify_text``."""

    def __init__(self, identifier):
        self.classify_text = identifier.classify


def _bloom(profiles, m_bits, k):
    return LanguageIdentifier(m_bits=m_bits, k=k, seed=1).train_profiles(profiles)


class TestEvaluateClassifier:
    def test_perfect_classifier(self, profiles, test_corpus):
        report = evaluate_classifier_batch(_bloom(profiles, 16 * 1024, 4), test_corpus)
        assert report.average_accuracy > 0.95
        assert report.overall_accuracy > 0.95
        assert report.confusion.shape == (6, 6)

    def test_fixed_classifier_accuracy(self, test_corpus):
        first_language = test_corpus.languages[0]
        report = evaluate_classifier(_FixedClassifier(first_language), test_corpus)
        assert report.per_language_accuracy[first_language] == 1.0
        others = [acc for lang, acc in report.per_language_accuracy.items() if lang != first_language]
        assert all(acc == 0.0 for acc in others)
        assert report.average_accuracy == pytest.approx(1.0 / len(test_corpus.languages))

    def test_misclassified_listing(self, test_corpus):
        report = evaluate_classifier(_FixedClassifier(test_corpus.languages[0]), test_corpus)
        assert len(report.misclassified) == sum(
            1 for d in test_corpus if d.language != test_corpus.languages[0]
        )

    def test_unknown_prediction_counts_as_error(self, test_corpus):
        report = evaluate_classifier(_FixedClassifier("xx"), test_corpus)
        assert report.average_accuracy == 0.0

    def test_string_and_result_predictions_both_accepted(self, profiles, test_corpus):
        classifier = _PerDocument(_bloom(profiles, 8192, 3))
        report = evaluate_classifier(classifier, test_corpus)  # returns ClassificationResult
        assert report.overall_accuracy > 0.9

    def test_confusion_row_sums_match_document_counts(self, profiles, test_corpus):
        report = evaluate_classifier_batch(_bloom(profiles, 16 * 1024, 4), test_corpus)
        by_language = test_corpus.by_language()
        for i, language in enumerate(report.languages):
            assert report.confusion[i].sum() == len(by_language[language])

    def test_min_max_accuracy(self):
        report = AccuracyReport(
            languages=["a", "b"],
            confusion=np.asarray([[9, 1], [5, 5]]),
            per_language_accuracy={"a": 0.9, "b": 0.5},
        )
        assert report.min_accuracy == 0.5
        assert report.max_accuracy == 0.9
        assert report.average_accuracy == pytest.approx(0.7)

    def test_top_confusions_and_pairs(self):
        report = AccuracyReport(
            languages=["es", "pt", "en"],
            confusion=np.asarray([[90, 10, 0], [4, 96, 0], [0, 0, 100]]),
            per_language_accuracy={"es": 0.9, "pt": 0.96, "en": 1.0},
        )
        top = report.top_confusions(1)
        assert top[0][0] == ("es", "pt")
        pairs = confusion_pairs(report)
        assert pairs[frozenset({"es", "pt"})] == 14

    def test_empty_report_defaults(self):
        report = AccuracyReport(languages=[], confusion=np.zeros((0, 0)), per_language_accuracy={})
        assert report.average_accuracy == 0.0
        assert report.overall_accuracy == 0.0


class TestAccuracyReportDegenerateInputs:
    """Degenerate corpora: empty, single-language, and all-misclassified."""

    def test_empty_corpus(self):
        from repro.corpus.corpus import Corpus

        report = evaluate_classifier(_FixedClassifier("en"), Corpus())
        assert report.languages == []
        assert report.confusion.shape == (0, 0)
        assert report.per_language_accuracy == {}
        assert report.misclassified == []
        assert report.average_accuracy == 0.0
        assert report.overall_accuracy == 0.0
        assert report.min_accuracy == 0.0 and report.max_accuracy == 0.0
        assert report.mean_confidence == 0.0
        assert report.top_confusions() == []
        assert confusion_pairs(report) == {}

    def test_single_language_corpus(self):
        from repro.corpus.corpus import Corpus, Document

        corpus = Corpus([Document(doc_id=f"d{i}", language="en", text="x") for i in range(5)])
        report = evaluate_classifier(_FixedClassifier("en"), corpus)
        assert report.languages == ["en"]
        assert report.confusion.shape == (1, 1)
        assert report.average_accuracy == 1.0
        assert report.overall_accuracy == 1.0
        assert report.min_accuracy == report.max_accuracy == 1.0
        assert confusion_pairs(report) == {}

    def test_all_misclassified_within_known_languages(self, test_corpus):
        # relabel every doc as some other in-set language: accuracy must be
        # exactly zero, every document listed, and the confusion mass intact
        languages = test_corpus.languages
        wrong = {lang: languages[(i + 1) % len(languages)] for i, lang in enumerate(languages)}

        class _WrongClassifier:
            def classify_text(self, text):
                return wrong[self._lookup[text]]

        classifier = _WrongClassifier()
        classifier._lookup = {doc.text: doc.language for doc in test_corpus}
        report = evaluate_classifier(classifier, test_corpus)
        assert report.average_accuracy == 0.0
        assert report.overall_accuracy == 0.0
        assert len(report.misclassified) == len(test_corpus)
        assert int(report.confusion.sum()) == len(test_corpus)
        assert int(np.trace(report.confusion)) == 0
        assert sum(confusion_pairs(report).values()) == len(test_corpus)

    def test_all_misclassified_outside_known_languages(self, test_corpus):
        report = evaluate_classifier(_FixedClassifier("zz"), test_corpus)
        assert report.average_accuracy == 0.0
        # unknown predictions never land in the confusion matrix at all
        assert int(report.confusion.sum()) == 0
        assert len(report.misclassified) == len(test_corpus)

    def test_record_misclassified_flag_suppresses_listing(self, test_corpus):
        report = evaluate_classifier(
            _FixedClassifier("zz"), test_corpus, record_misclassified=False
        )
        assert report.misclassified == []
        assert report.average_accuracy == 0.0

    def test_batch_evaluation_matches_sequential_and_records_confidence(
        self, profiles, test_corpus
    ):
        identifier = LanguageIdentifier(
            ClassifierConfig(m_bits=16 * 1024, k=4, seed=1, backend="bloom")
        )
        identifier.train_profiles(profiles)
        sequential = evaluate_classifier(_PerDocument(identifier), test_corpus)
        batched = evaluate_classifier_batch(identifier, test_corpus)
        assert np.array_equal(sequential.confusion, batched.confusion)
        assert sequential.per_language_accuracy == batched.per_language_accuracy
        # both paths evaluate ClassificationResults, so confidences are recorded
        assert batched.confidences.size == len(test_corpus)
        assert sequential.confidences.size == len(test_corpus)
        np.testing.assert_allclose(sequential.confidences, batched.confidences)
        assert batched.correct_mask.mean() == pytest.approx(batched.overall_accuracy)

    def test_batch_evaluation_empty_corpus(self, profiles):
        from repro.analysis.accuracy import evaluate_classifier_batch
        from repro.api import ClassifierConfig, LanguageIdentifier
        from repro.corpus.corpus import Corpus

        identifier = LanguageIdentifier(ClassifierConfig(backend="exact"))
        identifier.train_profiles(profiles)
        report = evaluate_classifier_batch(identifier, Corpus())
        assert report.languages == []
        assert report.confidences.size == 0


@pytest.fixture(scope="module")
def sweep_corpora(corpus):
    return corpus.split(train_fraction=0.25, seed=7)


class TestSweeps:
    def test_paper_grid_has_eight_rows(self):
        assert len(PAPER_TABLE1_GRID) == 8

    def test_bloom_sweep_row_content(self, sweep_corpora):
        train, test = sweep_corpora
        rows = sweep_bloom_parameters(train, test, grid=[(16, 4), (4, 2)], t=1000, fpr_sample_size=4000)
        assert len(rows) == 2
        conservative, aggressive = rows
        assert conservative.expected_fp_per_thousand < aggressive.expected_fp_per_thousand
        assert 0.0 <= conservative.average_accuracy <= 1.0
        assert conservative.as_table_row()[0] == 16

    def test_measured_fpr_tracks_expectation(self, sweep_corpora):
        train, test = sweep_corpora
        rows = sweep_bloom_parameters(train, test, grid=[(8, 2)], t=1000, fpr_sample_size=8000)
        row = rows[0]
        assert row.measured_fp_per_thousand == pytest.approx(row.expected_fp_per_thousand, rel=0.5)

    def test_hash_family_sweep(self, sweep_corpora):
        train, test = sweep_corpora
        rows = sweep_hash_families(train, test, families=("h3", "tabulation"), m_kbits=8, k=4, t=1000)
        assert len(rows) == 2
        assert abs(rows[0].average_accuracy - rows[1].average_accuracy) < 0.05

    def test_profile_size_sweep_monotone_fp(self, sweep_corpora):
        train, test = sweep_corpora
        rows = sweep_profile_size(train, test, sizes=(200, 2000), m_kbits=4, k=2)
        assert rows[0].detail["expected_fp_per_thousand"] < rows[1].detail["expected_fp_per_thousand"]

    def test_ngram_order_sweep(self, sweep_corpora):
        train, test = sweep_corpora
        rows = sweep_ngram_order(train, test, orders=(3, 4), t=1000)
        assert {row.label for row in rows} == {"n=3", "n=4"}
        assert all(row.average_accuracy > 0.8 for row in rows)

    def test_subsampling_sweep(self, sweep_corpora):
        train, test = sweep_corpora
        rows = sweep_subsampling(train, test, strides=(1, 2), t=1000)
        assert all(row.average_accuracy > 0.8 for row in rows)


class TestReporting:
    def test_format_number_int(self):
        assert format_number(12345) == "12,345"

    def test_format_number_float(self):
        assert format_number(3.14159, decimals=2) == "3.14"

    def test_format_number_whole_float(self):
        assert format_number(5.0) == "5"

    def test_format_percentage(self):
        assert format_percentage(0.9945) == "99.45%"

    def test_format_table_alignment(self):
        table = format_table(("name", "value"), [("a", 1), ("bb", 22)], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), [(1,)])

    def test_format_table_empty_rows(self):
        table = format_table(("a", "b"), [])
        assert "a" in table

    def test_render_bar_chart(self):
        chart = render_bar_chart(
            {"English": {"Sync": 228, "Async": 470}, "French": {"Sync": 230, "Async": 468}},
            width=20,
            unit="MB/s",
            title="Figure 4",
        )
        assert "Figure 4" in chart
        assert chart.count("|") >= 8
        assert "English" in chart and "Async" in chart

    def test_render_bar_chart_invalid_width(self):
        with pytest.raises(ValueError):
            render_bar_chart({}, width=0)

    def test_render_bar_chart_zero_values(self):
        chart = render_bar_chart({"x": {"a": 0.0}})
        assert "x" in chart
