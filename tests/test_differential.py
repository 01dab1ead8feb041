"""Differential conformance suite: every backend and every execution path agree.

Two families of invariants, checked on seeded-random document streams:

**Backend agreement (modulo the documented FPR margin).**  The ``exact``
backend is ground truth; ``bloom`` sees exactly the same profile members plus
Bloom false positives, so for every document and language

* ``bloom count >= exact count`` (a Bloom filter has no false negatives), and
* the excess is bounded by a generous tail bound around the analytical
  false-positive rate ``p = (1 - e^{-t/m})^k``: per document,
  ``excess <= 10 + 10 * p * ngrams`` (p is small, the excess is binomial with
  mean ``~p * non_member_ngrams``; the slack absorbs the tail).

``hw-sim`` is the same Bloom design run through the cycle-approximate FPGA
datapath with the same H3 seed, so it must match ``bloom`` *bit for bit*.

**Execution-path identity.**  The thread replica pool, the process replica
pool (shared-memory zero-copy model clones), and the bare
``LanguageIdentifier.classify_batch`` must return bit-identical match counts
for the same model on 1 000 seeded documents — the shared-memory path must not
change a single count.
"""

import asyncio

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.corpus.corpus import build_jrc_acquis_like
from repro.corpus.generator import DocumentGenerator
from repro.serve import ClassificationService, ServeConfig

LANGUAGES = ["en", "fr", "es", "pt", "cs"]
SEED = 113
N_PATH_DOCS = 1000
N_BACKEND_DOCS = 250


def _seeded_documents(count: int, seed: int) -> list[str]:
    """Deterministic document mix: corpus slices, mixed-language concatenations,
    random letter soup, and degenerate (empty/short) edge cases."""
    corpus = build_jrc_acquis_like(
        LANGUAGES, docs_per_language=12, words_per_document=180, seed=seed
    )
    texts = [doc.text for doc in corpus.shuffled(seed=seed).documents]
    rng = np.random.default_rng(seed)
    alphabet = np.array(list("abcdefghijklmnopqrstuvwxyz áéíóúàèç"), dtype="<U1")
    documents: list[str] = []
    for index in range(count):
        kind = index % 5
        base = texts[int(rng.integers(len(texts)))]
        if kind == 0:  # natural slice
            offset = int(rng.integers(max(1, len(base) - 400)))
            documents.append(base[offset : offset + 400])
        elif kind == 1:  # mixed-language concatenation
            other = texts[int(rng.integers(len(texts)))]
            documents.append(base[:180] + " " + other[:180])
        elif kind == 2:  # random letter soup (mostly non-member n-grams)
            length = int(rng.integers(20, 300))
            documents.append("".join(rng.choice(alphabet, size=length)))
        elif kind == 3:  # short/degenerate
            documents.append(base[: int(rng.integers(0, 6))])
        else:  # repeated boilerplate with a random suffix
            documents.append(texts[0][:120] + str(int(rng.integers(1000))))
    return documents


@pytest.fixture(scope="module")
def train_corpus():
    return build_jrc_acquis_like(
        LANGUAGES, docs_per_language=10, words_per_document=220, seed=7
    )


@pytest.fixture(scope="module")
def identifiers(train_corpus):
    """bloom / exact / hw-sim identifiers trained on identical profiles."""
    config = ClassifierConfig(m_bits=4 * 1024, k=4, t=1500, seed=3, backend="bloom")
    bloom = LanguageIdentifier(config).train(train_corpus)
    exact = LanguageIdentifier(config.replace(backend="exact"))
    exact.train_profiles(bloom.profiles)
    hw_sim = LanguageIdentifier(config.replace(backend="hw-sim"))
    hw_sim.train_profiles(bloom.profiles)
    return {"bloom": bloom, "exact": exact, "hw-sim": hw_sim}


# ------------------------------------------------------------------- backends


class TestBackendAgreement:
    def test_bloom_dominates_exact_within_fpr_margin(self, identifiers):
        bloom, exact = identifiers["bloom"], identifiers["exact"]
        p = bloom.describe()["expected_fpr"]
        documents = _seeded_documents(N_BACKEND_DOCS, SEED)
        bloom_results = bloom.classify_batch(documents)
        exact_results = exact.classify_batch(documents)
        total_excess = 0
        total_ngrams = 0
        for b, e in zip(bloom_results, exact_results):
            assert b.ngram_count == e.ngram_count
            for language in bloom.languages:
                excess = b.match_counts[language] - e.match_counts[language]
                # no false negatives, bounded false positives
                assert excess >= 0, (language, b.match_counts, e.match_counts)
                assert excess <= 10 + 10 * p * b.ngram_count, (
                    f"{language}: {excess} excess matches on {b.ngram_count} n-grams "
                    f"is far beyond the FPR model (p={p:.4f})"
                )
                total_excess += excess
                total_ngrams += b.ngram_count
        # aggregate rate must sit near the analytical model, not just under
        # the generous per-document ceiling
        assert total_excess <= 3 * p * total_ngrams + 50

    def test_exact_and_bloom_agree_on_confident_documents(self, identifiers):
        """Where exact classification wins by a clear margin, Bloom false
        positives (bounded above) cannot flip the argmax."""
        bloom, exact = identifiers["bloom"], identifiers["exact"]
        p = bloom.describe()["expected_fpr"]
        documents = _seeded_documents(N_BACKEND_DOCS, SEED + 1)
        disagreements = 0
        confident = 0
        for b, e in zip(bloom.classify_batch(documents), exact.classify_batch(documents)):
            margin_needed = 10 + 10 * p * e.ngram_count
            if e.margin > 2 * margin_needed:
                confident += 1
                if b.language != e.language:
                    disagreements += 1
        assert confident > N_BACKEND_DOCS // 4  # the mix contains real documents
        assert disagreements == 0

    def test_hw_sim_is_bit_exact_with_bloom(self, identifiers):
        bloom, hw_sim = identifiers["bloom"], identifiers["hw-sim"]
        documents = _seeded_documents(80, SEED + 2)
        for b, h in zip(bloom.classify_batch(documents), hw_sim.classify_batch(documents)):
            assert b.match_counts == h.match_counts
            assert b.language == h.language

    def test_single_and_batch_paths_are_bit_identical(self, identifiers):
        documents = _seeded_documents(60, SEED + 3)
        for name, identifier in identifiers.items():
            batch = identifier.classify_batch(documents)
            for document, batched in zip(documents, batch):
                single = identifier.classify(document)
                assert single.match_counts == batched.match_counts, name


# ------------------------------------------------------------------- segmentation


class TestSegmentClassifyAgreement:
    """``segment()`` must degenerate to ``classify()`` on single-language input.

    The windowed scorer, the smoothing pass and the span merger all sit on top
    of the same per-n-gram hit primitive ``classify`` votes with; on a document
    with no language switch, every backend's segmentation must collapse to one
    span covering the whole document whose label is exactly the ``classify``
    verdict — anything else means the segmentation pipeline distorts the
    counters it is built on.
    """

    @pytest.fixture(scope="class")
    def all_identifiers(self, identifiers):
        """The differential trio plus the mguesser scoring backend, same profiles."""
        mguesser = LanguageIdentifier(
            identifiers["bloom"].config.replace(backend="mguesser")
        )
        mguesser.train_profiles(identifiers["bloom"].profiles)
        return {**identifiers, "mguesser": mguesser}

    def test_single_language_documents_return_one_span_matching_classify(
        self, all_identifiers
    ):
        assert set(all_identifiers) == {"bloom", "exact", "hw-sim", "mguesser"}
        for language in LANGUAGES:
            text = DocumentGenerator(language, seed=31, related_blend=0.0).generate_document(
                n_words=260, index=1
            )
            for name, identifier in all_identifiers.items():
                result = identifier.segment(text)
                assert len(result.spans) == 1, (
                    f"{name} split a single-language {language} document into "
                    f"{[span.language for span in result.spans]}"
                )
                span = result.spans[0]
                assert (span.start, span.end) == (0, len(text)), name
                assert span.language == identifier.classify(text).language, name

    def test_short_single_language_documents_also_degenerate(self, all_identifiers):
        """Sub-window documents exercise the tail-flush single-window path."""
        for name, identifier in all_identifiers.items():
            text = DocumentGenerator("fr", seed=32, related_blend=0.0).generate_document(
                n_words=12, index=0
            )
            result = identifier.segment(text)
            assert len(result.spans) == 1, name
            assert result.spans[0].language == identifier.classify(text).language, name


# ------------------------------------------------------------------- executors


class TestExecutionPathIdentity:
    @pytest.fixture(scope="class")
    def documents(self):
        return _seeded_documents(N_PATH_DOCS, SEED + 4)

    @pytest.fixture(scope="class")
    def direct_results(self, identifiers, documents):
        return identifiers["bloom"].classify_batch(documents)

    def _serve_all(self, identifier, documents, executor):
        async def main():
            config = ServeConfig(
                max_batch=128,
                max_delay_ms=2.0,
                replicas=2,
                executor=executor,
                cache_size=0,
                max_pending=4 * len(documents),
            )
            async with ClassificationService(identifier, config) as service:
                return await service.classify_many(documents)

        return asyncio.run(main())

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_pool_results_bit_identical_to_bare_batch(
        self, identifiers, documents, direct_results, executor
    ):
        served = self._serve_all(identifiers["bloom"], documents, executor)
        assert len(served) == N_PATH_DOCS
        assert [r.match_counts for r in served] == [
            r.match_counts for r in direct_results
        ]
        assert [r.language for r in served] == [r.language for r in direct_results]
        assert [r.ngram_count for r in served] == [
            r.ngram_count for r in direct_results
        ]
