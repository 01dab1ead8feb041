"""Golden regression gate for the ensemble backend's ``classify_batch`` answers.

Classifies a frozen set of documents with several ensembles — four member
sets, with and without calibrators and quality gates, and one model of a
single language; each with and without a priors artifact — and compares
every field of every result with the committed golden
(``tests/goldens/ensemble_results.json``): ``language``, the
``match_counts`` in language order, ``ngram_count``,
``repr(calibrated_confidence)``, ``abstain_reason`` and each member's vote
with ``repr`` floats.  Documents are tagged with a source the priors know,
none, or one they lack, and come as ``str`` and ``bytes``, empty and out of
the alphabet, so every ``und`` outcome (no reason, ``too_short``,
``low_alpha_rate``, ``tie``, ``no_votes``) occurs.  A change to how the
ensemble decides a batch must leave every answer bit-identical, so any drift
fails here, in tier-1.

The golden is recorded with the code a change starts from, never with the
change it guards.  After an *intentional* change to ensemble answers, refresh
it with::

    PYTHONPATH=src python -m pytest tests/test_ensemble_golden.py --update-goldens

and commit the updated golden together with the change that explains it.

The configuration below is frozen on purpose (independent of the shared session
fixtures): the golden pins these exact answers.  Changing any constant requires
regenerating the golden.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import pytest

from repro.api import ClassifierConfig, EnsembleConfig, LanguageIdentifier
from repro.api.ensemble import PRIORS_SCHEMA
from repro.core.profile import build_profiles
from repro.corpus.corpus import build_jrc_acquis_like

GOLDEN_PATH = Path(__file__).parent / "goldens" / "ensemble_results.json"

#: frozen configuration — the golden pins exactly this setup
GOLDEN_LANGUAGES = ("en", "fr", "es", "pt")
GOLDEN_DOCS_PER_LANGUAGE = 6
GOLDEN_WORDS_PER_DOCUMENT = 150
GOLDEN_CORPUS_SEED = 2024
GOLDEN_SPLIT = dict(train_fraction=0.5, seed=5)
GOLDEN_CONFIG = dict(backend="ensemble", m_bits=8 * 1024, k=4, t=1200, seed=1)
GOLDEN_MEMBER_SETS = (
    ("bloom", "exact", "mguesser"),
    ("bloom", "exact"),
    ("mguesser",),
    ("bloom", "hail", "mguesser"),
)
#: policy name -> (fit calibrators?, gate settings)
GOLDEN_POLICIES = {
    "plain": (False, {}),
    "gated": (True, {"min_ngrams": 8, "min_alpha_rate": 0.6, "tie_margin": 0.15}),
}
#: characters of each held-out document kept (``None``: the whole document)
GOLDEN_PREFIXES = (None, 60, 10)
#: one more ensemble (default members, gated) programmed with this language only
GOLDEN_ONE_LANGUAGE = "en"
#: calibration set: short slices, every third label rotated, so the fitted
#: maps are not constant
GOLDEN_CALIBRATION_SLICE = 12
GOLDEN_PRIORS = {
    "wire": {"en": 0.7, "fr": 0.2, "es": 0.1},
    "web": {"pt": 0.5, "es": 0.5},
}
#: per-document source tags, cycled: known, untagged, known, unknown
GOLDEN_SOURCES = ("wire", None, "web", "fax")


def _corpus():
    corpus = build_jrc_acquis_like(
        languages=GOLDEN_LANGUAGES,
        docs_per_language=GOLDEN_DOCS_PER_LANGUAGE,
        words_per_document=GOLDEN_WORDS_PER_DOCUMENT,
        seed=GOLDEN_CORPUS_SEED,
    )
    return corpus.split(**GOLDEN_SPLIT)


def _documents(test) -> dict[str, str | bytes]:
    documents: dict[str, str | bytes] = {}
    for index, doc in enumerate(test.documents):
        for prefix in GOLDEN_PREFIXES:
            text = doc.text if prefix is None else doc.text[:prefix]
            documents[f"{doc.language}{index}:{prefix or 'full'}"] = text
        if index % 3 == 0:
            documents[f"{doc.language}{index}:bytes"] = doc.text.encode("utf-8")
    halves = [d.text[:120] for d in test.documents[:2]]
    documents["two-languages"] = " ".join(halves)
    documents["empty"] = ""
    documents["empty-bytes"] = b""
    documents["shorter-than-n"] = "olá"
    documents["out-of-alphabet"] = "щидфл мывап ղոււթ երկիր"
    documents["low-alpha"] = "word 12345 6789 01234 5678 90123"
    documents["low-alpha-bytes"] = b"word 12345 6789 01234 5678 90123"
    documents["non-ascii"] = "a política económica da união é ação"
    documents["non-ascii-bytes"] = "a política económica da união é ação".encode("utf-8")
    return documents


def _sources(count: int) -> list[str | None]:
    return [GOLDEN_SOURCES[i % len(GOLDEN_SOURCES)] for i in range(count)]


def _priors() -> dict:
    return {
        "schema": PRIORS_SCHEMA,
        "sources": {
            name: {"languages": dict(mix), "documents": 100}
            for name, mix in GOLDEN_PRIORS.items()
        },
    }


def _identifiers(train) -> dict[str, LanguageIdentifier]:
    config = ClassifierConfig(**GOLDEN_CONFIG)
    profiles = build_profiles(train.texts_by_language(), n=config.n, t=config.t)
    slices, labels = [], []
    for i, doc in enumerate(train.documents):
        for j, offset in enumerate((0, 40, 80)):
            slices.append(doc.text[offset : offset + GOLDEN_CALIBRATION_SLICE])
            rotate = (i + j) % 3 == 0
            labels.append(GOLDEN_LANGUAGES[(GOLDEN_LANGUAGES.index(doc.language) + rotate) % 4])
    identifiers = {}
    for members in GOLDEN_MEMBER_SETS:
        for policy, (calibrate, gates) in GOLDEN_POLICIES.items():
            ensemble = EnsembleConfig(members=members, **gates)
            identifier = LanguageIdentifier(config, ensemble=ensemble).train_profiles(profiles)
            if calibrate:
                identifier.backend.fit_calibrators(slices, labels)
            identifiers[f"{'+'.join(members)} {policy}"] = identifier
    calibrate, gates = GOLDEN_POLICIES["gated"]
    alone = LanguageIdentifier(config, ensemble=EnsembleConfig(**gates)).train_profiles(
        {GOLDEN_ONE_LANGUAGE: profiles[GOLDEN_ONE_LANGUAGE]}
    )
    alone.backend.fit_calibrators(slices, labels)
    identifiers[f"{GOLDEN_ONE_LANGUAGE}-only gated"] = alone
    return identifiers


def _answer(result) -> dict:
    votes = result.member_votes
    return {
        "language": result.language,
        "match_counts": [[lang, count] for lang, count in result.match_counts.items()],
        "ngram_count": result.ngram_count,
        "calibrated_confidence": repr(result.calibrated_confidence),
        "abstain_reason": result.abstain_reason,
        "member_votes": None if votes is None else [
            [name, vote["language"], repr(vote["raw_confidence"]), repr(vote["weight"])]
            for name, vote in votes.items()
        ],
    }


def _run(identifier, documents, priors: bool):
    """One batch over every document, then one call per document.

    Returns both result lists and the texts of the warnings raised.
    """
    identifier.backend.set_priors(_priors() if priors else None)
    texts = list(documents.values())
    sources = _sources(len(texts))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = identifier.classify_batch(texts, sources)
        singles = [identifier.classify(text, source) for text, source in zip(texts, sources)]
    return batch, singles, [str(w.message) for w in caught]


@pytest.fixture(scope="module")
def runs() -> dict[str, tuple[list, list, list[str]]]:
    train, test = _corpus()
    documents = _documents(test)
    out = {}
    for name, identifier in _identifiers(train).items():
        for priors in (False, True):
            batch, singles, caught = _run(identifier, documents, priors)
            label = f"{name} {'priors' if priors else 'no-priors'}"
            out[label] = (dict(zip(documents, batch)), dict(zip(documents, singles)), caught)
    return out


@pytest.fixture(scope="module")
def answers(runs) -> dict[str, object]:
    """Every (ensemble, priors, document) case's batch answer, plus warnings."""
    out: dict[str, object] = {}
    for label, (batch, _, caught) in runs.items():
        for doc_name, result in batch.items():
            out[f"{label} {doc_name}"] = _answer(result)
        out[f"{label} warnings"] = caught
    return out


def _write_golden(answers: dict[str, object]) -> None:
    # one case per line, so a drift shows as a one-line diff
    lines = [f"{json.dumps(key)}: {json.dumps(answers[key])}" for key in sorted(answers)]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def test_ensemble_answers_match_committed_golden(answers, request):
    if request.config.getoption("--update-goldens"):
        _write_golden(answers)
        pytest.skip(f"golden refreshed at {GOLDEN_PATH}; commit the diff")
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with "
        "`python -m pytest tests/test_ensemble_golden.py --update-goldens`"
    )
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(answers) == sorted(golden)
    drift = [key for key in sorted(answers) if answers[key] != golden[key]]
    assert not drift, (
        f"{len(drift)} of {len(answers)} ensemble answers drifted from the golden, "
        f"first: {drift[0]}\n  now:    {answers[drift[0]]}\n  golden: {golden[drift[0]]}"
    )


def test_one_document_calls_match_the_batch(runs):
    """``classify(text, source)`` answers every field as the batch did."""
    for label, (batch, singles, _) in runs.items():
        for doc_name, result in batch.items():
            assert _answer(singles[doc_name]) == _answer(result), f"{label} {doc_name}"


def test_golden_cases_cover_every_outcome(answers):
    """The frozen inputs reach every decision the golden is meant to pin."""
    cases = {k: a for k, a in answers.items() if not k.endswith(" warnings")}
    reasons = {(a["language"], a["abstain_reason"]) for a in cases.values()}
    for reason in (None, "too_short", "low_alpha_rate", "tie", "no_votes"):
        assert ("und", reason) in reasons, reason
    labelled = [a for a in cases.values() if a["language"] != "und"]
    assert labelled and all(a["calibrated_confidence"] != "None" for a in labelled)
    assert {a["language"] for a in labelled} == set(GOLDEN_LANGUAGES)
    # a priors run warns once about the source the artifact lacks, and only then
    for key, caught in answers.items():
        if key.endswith(" warnings"):
            assert len(caught) == (1 if " priors " in key + " " else 0), key
    # the priors move some vote scores
    first = f"{'+'.join(GOLDEN_MEMBER_SETS[0])} plain"
    moved = [
        doc_key[len(first) + len(" no-priors ") :]
        for doc_key in cases
        if doc_key.startswith(f"{first} no-priors ")
        and cases[doc_key] != cases[doc_key.replace(" no-priors ", " priors ", 1)]
    ]
    assert moved
