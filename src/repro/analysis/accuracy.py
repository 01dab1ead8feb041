"""Accuracy evaluation and confusion matrices.

The paper reports *average accuracy*: the per-language accuracies averaged over the
ten language test sets ("the accuracy of the classifier varies between 99.05% and
99.76% with an average of 99.45%", Section 5.1).  :func:`evaluate_classifier`
(and :func:`evaluate_classifier_batch` for a
:class:`~repro.api.identifier.LanguageIdentifier`) computes exactly that, along
with the overall (micro) accuracy and the confusion matrix used to verify the
confusable-pair structure.

Everything here evaluates *whole-document* labels.  For mixed-language
(code-switched) documents a single label is the wrong unit of account: use
:mod:`repro.segment` to label spans instead, and score span-level accuracy /
boundary F1 against :class:`~repro.corpus.generator.MixedDocument` ground
truth (see ``benchmarks/test_segment.py``).

Reports also record each prediction's raw confidence
(:attr:`~repro.core.classifier.ClassificationResult.confidence`) next to its
correctness, which is what :mod:`repro.eval.calibration` turns into reliability
bins, expected calibration error and a fitted calibrator — accuracy says how
often the classifier is right, calibration says whether its confidence *means*
anything.  The robustness evaluation matrix
(:func:`repro.eval.matrix.run_matrix`, ``repro evaluate``) sweeps these reports
over noise scenarios and document lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.corpus.corpus import Corpus

__all__ = [
    "AccuracyReport",
    "evaluate_classifier",
    "evaluate_classifier_batch",
    "confusion_pairs",
]


@dataclass
class AccuracyReport:
    """Evaluation outcome of one classifier over one labelled corpus."""

    languages: list[str]
    confusion: np.ndarray
    per_language_accuracy: dict[str, float]
    misclassified: list[tuple[str, str, str]] = field(default_factory=list)
    #: per-document raw confidence values, aligned with :attr:`correct_mask`
    #: (empty when the classifier under evaluation exposes no confidence)
    confidences: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))
    #: per-document correctness flags, aligned with :attr:`confidences`
    correct_mask: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))
    #: documents the classifier abstained on (predicted a language outside the
    #: corpus, i.e. the explicit ``und`` result) — abstentions always count as
    #: misses in the accuracy figures, so abstaining can never inflate them
    abstained: int = 0

    @property
    def average_accuracy(self) -> float:
        """Mean of the per-language accuracies (the paper's headline metric)."""
        if not self.per_language_accuracy:
            return 0.0
        return float(np.mean(list(self.per_language_accuracy.values())))

    @property
    def overall_accuracy(self) -> float:
        """Micro accuracy: correct documents / all documents."""
        total = self.confusion.sum()
        return float(np.trace(self.confusion) / total) if total else 0.0

    @property
    def min_accuracy(self) -> float:
        """Worst per-language accuracy (the paper quotes the 99.05–99.76 % range)."""
        if not self.per_language_accuracy:
            return 0.0
        return min(self.per_language_accuracy.values())

    @property
    def max_accuracy(self) -> float:
        """Best per-language accuracy."""
        if not self.per_language_accuracy:
            return 0.0
        return max(self.per_language_accuracy.values())

    @property
    def mean_confidence(self) -> float:
        """Mean raw prediction confidence (0.0 when no confidences were recorded)."""
        return float(self.confidences.mean()) if self.confidences.size else 0.0

    @property
    def abstain_rate(self) -> float:
        """Fraction of documents the classifier abstained on (``und``).

        Abstained documents never land in the confusion matrix (their
        prediction is outside the language index), so the document total is
        the matrix mass plus the abstention count.
        """
        total = int(self.confusion.sum()) + self.abstained
        return self.abstained / total if total else 0.0

    def confusion_as_dict(self) -> dict[tuple[str, str], int]:
        """Sparse dictionary view of the off-diagonal confusion counts."""
        pairs = {}
        for i, gold in enumerate(self.languages):
            for j, predicted in enumerate(self.languages):
                if i != j and self.confusion[i, j]:
                    pairs[(gold, predicted)] = int(self.confusion[i, j])
        return pairs

    def top_confusions(self, count: int = 5) -> list[tuple[tuple[str, str], int]]:
        """Most frequent (gold → predicted) confusions."""
        pairs = self.confusion_as_dict()
        return sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:count]


def evaluate_classifier(classifier, corpus: Corpus, record_misclassified: bool = True) -> AccuracyReport:
    """Run ``classifier`` on every document of ``corpus`` and tabulate the results.

    ``classifier`` needs a ``classify_text`` method returning either a
    :class:`~repro.core.classifier.ClassificationResult` or a plain language string
    (the software baselines of :mod:`repro.baselines.mguesser` return strings);
    a :class:`~repro.api.identifier.LanguageIdentifier` goes through
    :func:`evaluate_classifier_batch` instead.  Assumes each
    document has exactly one language; for code-switched documents evaluate
    span labels from :meth:`repro.api.identifier.LanguageIdentifier.segment`
    instead.
    """
    outcomes = (classifier.classify_text(document.text) for document in corpus)
    return _tabulate(corpus, outcomes, record_misclassified)


def evaluate_classifier_batch(
    identifier, corpus: Corpus, record_misclassified: bool = True
) -> AccuracyReport:
    """Like :func:`evaluate_classifier`, but through the vectorized batch path.

    ``identifier`` needs ``classify_batch`` (the
    :class:`~repro.api.identifier.LanguageIdentifier` facade and the serving
    replicas both have it): the whole corpus goes through one membership pass
    that tests every n-gram against every language at once, which is what lets
    the evaluation matrix (:mod:`repro.eval`) sweep backend × scenario × length
    grids in seconds rather than minutes.
    """
    outcomes = identifier.classify_batch([document.text for document in corpus])
    return _tabulate(corpus, outcomes, record_misclassified)


def _tabulate(corpus: Corpus, outcomes, record_misclassified: bool) -> AccuracyReport:
    """Fold per-document outcomes (result objects or language strings) into a report."""
    languages = corpus.languages
    index = {language: i for i, language in enumerate(languages)}
    confusion = np.zeros((len(languages), len(languages)), dtype=np.int64)
    misclassified: list[tuple[str, str, str]] = []
    totals = {language: 0 for language in languages}
    correct = {language: 0 for language in languages}
    confidences: list[float] = []
    correct_flags: list[bool] = []
    abstained = 0
    for document, outcome in zip(corpus, outcomes):
        predicted = outcome if isinstance(outcome, str) else outcome.language
        confidence = getattr(outcome, "confidence", None)
        gold_index = index[document.language]
        totals[document.language] += 1
        predicted_index = index.get(predicted)
        if predicted_index is not None:
            confusion[gold_index, predicted_index] += 1
        else:
            # a prediction outside the corpus languages is the explicit
            # "und" abstention (ensemble gates / zero-evidence documents)
            abstained += 1
        hit = predicted == document.language
        if hit:
            correct[document.language] += 1
        elif record_misclassified:
            misclassified.append((document.doc_id, document.language, predicted))
        if confidence is not None:
            confidences.append(float(confidence))
            correct_flags.append(hit)
    per_language = {
        language: (correct[language] / totals[language]) if totals[language] else 0.0
        for language in languages
    }
    return AccuracyReport(
        languages=languages,
        confusion=confusion,
        per_language_accuracy=per_language,
        misclassified=misclassified,
        confidences=np.asarray(confidences, dtype=np.float64),
        correct_mask=np.asarray(correct_flags, dtype=bool),
        abstained=abstained,
    )


def confusion_pairs(report: AccuracyReport) -> dict[frozenset, int]:
    """Symmetric confusion counts per unordered language pair (for the §5.2 analysis)."""
    pairs: dict[frozenset, int] = {}
    for (gold, predicted), count in report.confusion_as_dict().items():
        key = frozenset((gold, predicted))
        pairs[key] = pairs.get(key, 0) + count
    return pairs
