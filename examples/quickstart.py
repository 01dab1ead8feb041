#!/usr/bin/env python
"""Quickstart: train a language identifier, classify documents, save/load the model.

Run with:  python examples/quickstart.py
"""

import tempfile
from pathlib import Path

from repro import ClassifierConfig, LanguageIdentifier, build_jrc_acquis_like
from repro.analysis.accuracy import evaluate_classifier_batch
from repro.analysis.reporting import format_percentage, format_table


def main() -> None:
    # 1. Build a small synthetic multilingual corpus (stands in for JRC-Acquis).
    corpus = build_jrc_acquis_like(
        languages=["en", "fr", "es", "pt", "fi", "et"],
        docs_per_language=80,
        words_per_document=400,
        seed=7,
    )
    train, test = corpus.split(train_fraction=0.15, seed=7)
    print(f"corpus: {len(corpus)} documents, {corpus.total_bytes / 1e6:.2f} MB, "
          f"{len(corpus.languages)} languages")

    # 2. Train the paper's conservative configuration: 4-grams, top-5000 profiles,
    #    k = 4 H3 hash functions, 16 Kbit bit-vectors, the Bloom-filter backend.
    config = ClassifierConfig(m_bits=16 * 1024, k=4, n=4, t=5000, seed=1, backend="bloom")
    identifier = LanguageIdentifier(config).train(train)
    print(f"trained {len(identifier.languages)} language profiles "
          f"({config.memory_bits_per_language // 1024} Kbit of filter memory per language)")

    # 3. Classify one document and inspect the per-language match counters.
    document = test.documents[0]
    result = identifier.classify(document.text)
    print(f"\ndocument {document.doc_id!r} (gold={document.language}) -> {result.language}")
    print("match counters:", ", ".join(f"{lang}={count}" for lang, count in result.ranking()))
    print(f"margin over runner-up: {result.margin} n-grams out of {result.ngram_count}")

    # 4. Classify the whole test split in one vectorized batch.
    batch = identifier.classify_batch([doc.text for doc in test.documents])
    correct = sum(r.language == doc.language for r, doc in zip(batch, test.documents))
    print(f"\nbatch classification: {correct}/{len(batch)} correct in one vectorized pass")

    # 5. Save the trained model and reload it — bit-exact, no retraining.
    with tempfile.TemporaryDirectory() as tmp:
        path = identifier.save(Path(tmp) / "model.bin")
        restored = LanguageIdentifier.load(path)
        assert restored.classify(document.text).match_counts == result.match_counts
        print(f"saved + reloaded model artifact ({path.stat().st_size / 1024:.0f} KiB), "
              "match counts identical")

    # 6. Evaluate on the whole test split.
    report = evaluate_classifier_batch(identifier, test)
    rows = [(lang, format_percentage(acc)) for lang, acc in report.per_language_accuracy.items()]
    print()
    print(format_table(("language", "accuracy"), rows, title="Per-language accuracy"))
    print(f"\naverage accuracy: {format_percentage(report.average_accuracy)} "
          f"(expected false-positive rate: {identifier.describe()['expected_fpr']:.4f})")


if __name__ == "__main__":
    main()
