"""Golden regression gate for ``segment()`` answers.

Segments a frozen set of mixed-language and degenerate documents with every
table backend under several segmenter settings, and compares each answer —
every span's start, end, language and ``repr(confidence)``, plus the
``ngram_count`` and ``window_count`` — with the committed golden
(``tests/goldens/segment_spans.json``).  A change to the segmenter's
speed-ups (hit rows, window sums, run merging) must leave every answer
bit-identical, so any drift fails here, in tier-1.

The golden is recorded with the code a change starts from, never with the
change it guards.  After an *intentional* change to segmentation answers,
refresh it with::

    PYTHONPATH=src python -m pytest tests/test_segment_golden.py --update-goldens

and commit the updated golden together with the change that explains it.

The configuration below is frozen on purpose (independent of the shared session
fixtures): the golden pins these exact answers.  Changing any constant requires
regenerating the golden.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.core.profile import build_profiles
from repro.corpus.corpus import build_jrc_acquis_like
from repro.corpus.generator import MixedDocumentGenerator
from repro.segment import Segmenter, SegmenterConfig

GOLDEN_PATH = Path(__file__).parent / "goldens" / "segment_spans.json"

#: frozen configuration — the golden pins exactly this setup
GOLDEN_LANGUAGES = ("en", "fr", "es", "pt", "fi", "et")
GOLDEN_DOCS_PER_LANGUAGE = 6
GOLDEN_WORDS_PER_DOCUMENT = 220
GOLDEN_CORPUS_SEED = 4321
GOLDEN_CONFIG = dict(m_bits=16 * 1024, k=4, t=1500, seed=3)
GOLDEN_BACKENDS = ("bloom", "exact", "hail", "mguesser")
#: one more identifier: bloom reading every second n-gram
GOLDEN_STRIDE_2 = "bloom-stride2"
GOLDEN_MIXED_SEED = 8
GOLDEN_MIXED_DOCUMENTS = 6
#: SegmenterConfig fields per setting ("viterbi" is the default segmenter that
#: LanguageIdentifier.segment runs); 100/30 puts the tail window off the stride grid
GOLDEN_SETTINGS = {
    "viterbi": {},
    "window100-stride30": {"window_ngrams": 100, "stride_ngrams": 30},
    "window7-stride3": {"window_ngrams": 7, "stride_ngrams": 3},
}


def _identifiers() -> dict[str, LanguageIdentifier]:
    corpus = build_jrc_acquis_like(
        languages=GOLDEN_LANGUAGES,
        docs_per_language=GOLDEN_DOCS_PER_LANGUAGE,
        words_per_document=GOLDEN_WORDS_PER_DOCUMENT,
        seed=GOLDEN_CORPUS_SEED,
    )
    config = ClassifierConfig(**GOLDEN_CONFIG)
    profiles = build_profiles(corpus.texts_by_language(), n=config.n, t=config.t)
    identifiers = {
        backend: LanguageIdentifier(config, backend=backend).train_profiles(profiles)
        for backend in GOLDEN_BACKENDS
    }
    identifiers[GOLDEN_STRIDE_2] = LanguageIdentifier(
        config.replace(subsample_stride=2)
    ).train_profiles(profiles)
    return identifiers


def _documents() -> dict[str, str]:
    generator = MixedDocumentGenerator(GOLDEN_LANGUAGES, seed=GOLDEN_MIXED_SEED)
    documents = {
        f"mixed{index}": doc.text
        for index, doc in enumerate(generator.generate_many(GOLDEN_MIXED_DOCUMENTS))
    }
    documents["empty"] = ""
    documents["shorter-than-n"] = "olá"
    documents["shorter-than-a-window"] = "the committee shall adopt its rules of procedure"
    return documents


def _answer(result) -> dict:
    return {
        "ngram_count": result.ngram_count,
        "window_count": result.window_count,
        "spans": [
            [span.start, span.end, span.language, repr(span.confidence)]
            for span in result.spans
        ],
    }


@pytest.fixture(scope="module")
def answers() -> dict[str, dict]:
    """Every (identifier, setting, document, str or bytes) case's answer."""
    documents = _documents()
    out = {}
    for name, identifier in _identifiers().items():
        for setting, fields in GOLDEN_SETTINGS.items():
            segment = (
                Segmenter(identifier, SegmenterConfig(**fields)).segment
                if fields
                else identifier.segment
            )
            for doc_name, text in documents.items():
                for form, value in (("str", text), ("bytes", text.encode("utf-8"))):
                    result = segment(value)
                    out[f"{name} {setting} {doc_name} {form}"] = _answer(result)
    return out


def _write_golden(answers: dict[str, dict]) -> None:
    # one case per line, so a drift shows as a one-line diff
    lines = [f"{json.dumps(key)}: {json.dumps(answers[key])}" for key in sorted(answers)]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_segment_answers_match_committed_golden(answers, request):
    if request.config.getoption("--update-goldens"):
        _write_golden(answers)
        pytest.skip(f"golden refreshed at {GOLDEN_PATH}; commit the diff")
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with "
        "`python -m pytest tests/test_segment_golden.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(answers) == sorted(golden)
    drift = [key for key in sorted(answers) if answers[key] != golden[key]]
    assert not drift, (
        f"{len(drift)} of {len(answers)} segment answers drifted from the golden, "
        f"first: {drift[0]}\n  now:    {answers[drift[0]]}\n  golden: {golden[drift[0]]}"
    )


def test_golden_cases_cover_every_edge(answers):
    """The frozen inputs reach the cases the golden is meant to pin."""
    mixed = [a for key, a in answers.items() if " mixed" in key]
    assert max(len(a["spans"]) for a in mixed) >= 3  # several runs merged
    assert answers["bloom viterbi empty str"] == {"ngram_count": 0, "window_count": 0, "spans": []}
    assert answers["bloom viterbi shorter-than-n str"]["window_count"] == 0
    assert answers["bloom viterbi shorter-than-a-window str"]["window_count"] == 1
    # a non-ASCII str is read as Latin-1 and its UTF-8 bytes as given
    assert (
        answers["bloom viterbi shorter-than-n str"]["ngram_count"]
        != answers["bloom viterbi shorter-than-n bytes"]["ngram_count"]
    )
