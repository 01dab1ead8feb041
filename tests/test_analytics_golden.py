"""Golden regression gate for the analytics fold.

Three views of the traffic-analytics plane are compared with the committed
golden (``tests/goldens/analytics_snapshot.json``):

* ``AnalyticsAggregator.snapshot()`` and ``priors()`` after one seeded
  stream, under a Jensen–Shannon and a PSI configuration.  The stream has
  three tagged sources plus untagged traffic, scanned and length-only
  documents, cache hits, ``und`` results (plain, with counts, and a tie
  abstention), a duck-typed result without ``match_counts``, confidences on
  the histogram's bin edges, window rollover far past ``max_windows`` and
  documents older than every retained window.
* ``AnalyticsHook.snapshot()``, ``gauges()``, ``render_text_gauges()``,
  ``priors()`` and the alarm-edge log events after the same kind of stream
  recorded with a scripted clock, with ``str``, ``bytes`` and length-only
  documents.
* ``repro analyze --json`` stdout and the ``--priors`` artifact, byte for
  byte, over a small generated corpus read as a source directory, and over a
  JSONL stream of the same texts with sources and out-of-order timestamps.

Every key, value, float ``repr`` and key order must stay equal: a change to
how documents are folded, windowed, pruned or reported fails here, in
tier-1.

The golden is recorded with the code a change starts from, never with the
change it guards.  After an *intentional* change to analytics output, refresh
it with::

    PYTHONPATH=src python -m pytest tests/test_analytics_golden.py --update-goldens

and commit the updated golden together with the change that explains it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analytics import AnalyticsAggregator, AnalyticsConfig, AnalyticsHook
from repro.cli import main
from repro.core.classifier import ClassificationResult

GOLDEN_PATH = Path(__file__).parent / "goldens" / "analytics_snapshot.json"

#: frozen stream shape — the golden pins exactly this setup
STREAM_SEED = 20261019
STREAM_DOCS = 400
LANGUAGES = ("en", "fr", "es", "de")
SOURCES = ("wire", "blog", "mail", None)
WORDS = ("the", "und", "le", "el", "über", "straße", "niño", "ça", "42", "x_y",
         "!?", "𝔘nicode", "a-b", "déjà", "año")
AGGREGATOR_CONFIGS = {
    "js": dict(window_seconds=10.0, max_windows=4, min_window_docs=3,
               drift_threshold=0.05),
    "psi": dict(window_seconds=7.5, max_windows=3, min_window_docs=2,
                drift_metric="psi", drift_threshold=0.2,
                confidence_drift_threshold=0.05),
}
HOOK_CONFIG = dict(window_seconds=5.0, max_windows=3, min_window_docs=4,
                   drift_threshold=0.08)
#: records between two drift checks on the hook (each may log an alarm edge)
HOOK_CHECK_EVERY = 25

#: the analyze corpus and its model
CORPUS_ARGS = ["--languages", "en,fr,es", "--docs-per-language", "6",
               "--words-per-document", "60", "--seed", "31"]
TRAIN_ARGS = ["--m-kbits", "8", "--profile-size", "600"]
DIRECTORY_ARGS = ["--window", "4", "--max-windows", "3", "--min-window-docs", "2"]
JSONL_ARGS = ["--timestamp-field", "ts", "--window", "6", "--max-windows", "3",
              "--min-window-docs", "2", "--drift-metric", "psi"]


def _result(rng: random.Random):
    """One classification outcome, drawn to cover every fold branch."""
    roll = rng.random()
    language = rng.choice(LANGUAGES)
    if roll < 0.08:  # no n-gram evidence
        return ClassificationResult("und", {lang: 0 for lang in LANGUAGES}, 0)
    if roll < 0.12:  # an ensemble tie abstention keeps its counts
        return ClassificationResult(
            "und", {"en": 40, "fr": 40, "es": 3, "de": 0}, 90, abstain_reason="tie"
        )
    if roll < 0.16:  # duck-typed: only a confidence attribute
        return SimpleNamespace(
            language=language, confidence=rng.choice((0.0, 0.1, 0.5, 0.95, 1.0)),
            ngram_count=rng.randrange(200),
        )
    if roll < 0.30:  # confidences on the histogram's bin edges
        top, runner = rng.choice(((10, 9), (20, 1), (7, 0), (5, 5), (100, 50), (3, 2)))
    else:
        top = rng.randrange(1, 500)
        runner = rng.randrange(0, top + 1)
    others = [lang for lang in LANGUAGES if lang != language]
    counts = {language: top, others[0]: runner}
    for lang in others[1:]:
        counts[lang] = rng.randrange(0, runner + 1)
    return ClassificationResult(language, counts, top + rng.randrange(50))


def _text(rng: random.Random) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randrange(0, 12)))


def _stream(seed: int):
    """``(result, source, timestamp, text, cached)`` with rollover and late
    documents; ``text`` is a ``str``, ``bytes`` or a length (``int``)."""
    rng = random.Random(seed)
    clock = 0.0
    for _ in range(STREAM_DOCS):
        roll = rng.random()
        if roll < 0.06:  # older than every retained window
            timestamp = max(0.0, clock - rng.uniform(40.0, 120.0))
        elif roll < 0.12:  # late, but possibly still retained
            timestamp = max(0.0, clock - rng.uniform(0.0, 12.0))
        else:
            clock += rng.choice((0.0, 0.3, 1.1, 2.7, 9.0, 31.0)) if rng.random() < 0.5 else 0.2
            timestamp = clock
        text = _text(rng)
        kind = rng.random()
        payload = text if kind < 0.5 else (text.encode("utf-8") if kind < 0.7 else len(text))
        yield _result(rng), rng.choice(SOURCES), timestamp, payload, rng.random() < 0.15


def _aggregator_snapshots() -> dict:
    views = {}
    for name, settings in AGGREGATOR_CONFIGS.items():
        aggregator = AnalyticsAggregator(AnalyticsConfig(**settings))
        for result, source, timestamp, payload, cached in _stream(STREAM_SEED):
            if isinstance(payload, str):
                aggregator.update(result, source, timestamp, text=payload, cached=cached)
            else:
                chars = payload if isinstance(payload, int) else len(payload)
                aggregator.update(result, source, timestamp, chars=chars, cached=cached)
        views[name] = {"snapshot": aggregator.snapshot(), "priors": aggregator.priors()}
    return views


class _Recorder:
    def __init__(self):
        self.events = []

    def event(self, name, **fields):
        self.events.append([name, fields])


def _hook_views() -> dict:
    stream = list(_stream(STREAM_SEED + 1))
    times = iter([timestamp for _result, _source, timestamp, _payload, _cached in stream])
    recorder = _Recorder()
    hook = AnalyticsHook(
        AnalyticsConfig(**HOOK_CONFIG), logger=recorder, clock=lambda: next(times)
    )
    for index, (result, source, _timestamp, payload, cached) in enumerate(stream):
        if isinstance(payload, int):
            hook.record(result, source, chars=payload, cached=cached)
        else:
            hook.record(result, source, text=payload, cached=cached)
        if index % HOOK_CHECK_EVERY == HOOK_CHECK_EVERY - 1:
            hook.check_drift()
    return {
        "snapshot": hook.snapshot(),
        "gauges": hook.gauges(),
        "text_gauges": hook.render_text_gauges(),
        "priors": hook.priors(),
        "events": recorder.events,
    }


def _analyze_views(tmp_path: Path, capsys) -> dict:
    corpus = tmp_path / "corpus"
    model = tmp_path / "model.bin"
    assert main(["generate-corpus", *CORPUS_ARGS, "--output", str(corpus)]) == 0
    assert main(["train", "--corpus", str(corpus), "--output", str(model), *TRAIN_ARGS]) == 0
    capsys.readouterr()

    # the same texts as a JSONL stream: tagged, untagged (the file stem is the
    # source) and out-of-order timestamps, some older than every window
    rng = random.Random(STREAM_SEED)
    jsonl = tmp_path / "feed.jsonl"
    clock = 0.0
    with jsonl.open("w", encoding="utf-8") as handle:
        for file in sorted(corpus.glob("*/*.txt")):
            clock += rng.choice((0.5, 1.0, 4.0, 13.0))
            timestamp = clock - rng.choice((0.0, 0.0, 0.0, 3.0, 40.0))
            record = {"text": file.read_text(encoding="latin-1"), "ts": timestamp}
            if rng.random() < 0.7:
                record["source"] = rng.choice(("wire", "blog", "mail"))
            handle.write(json.dumps(record) + "\n")

    views = {}
    for name, inputs, options in (
        ("directory", [str(corpus)], DIRECTORY_ARGS),
        ("jsonl", [str(jsonl)], JSONL_ARGS),
    ):
        priors = tmp_path / f"{name}-priors.json"
        code = main(["analyze", "--model", str(model), *inputs, *options,
                     "--json", "--priors", str(priors)])
        views[name] = {
            "exit": code,
            "json": capsys.readouterr().out,
            "priors": priors.read_text(encoding="utf-8"),
        }
    return views


def _canonical(value) -> str:
    """Key order, ints vs floats and every float ``repr`` all count."""
    return json.dumps(value, ensure_ascii=False)


def test_analytics_views_match_golden(request, tmp_path, capsys):
    observed = {
        "aggregator": _aggregator_snapshots(),
        "hook": _hook_views(),
        "analyze": _analyze_views(tmp_path, capsys),
    }
    if request.config.getoption("--update-goldens"):
        GOLDEN_PATH.write_text(
            json.dumps(observed, indent=1, ensure_ascii=False) + "\n", encoding="utf-8"
        )
        pytest.skip(f"golden refreshed at {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    for section in ("aggregator", "hook", "analyze"):
        for name, view in golden[section].items():
            assert _canonical(observed[section][name]) == _canonical(view), (
                f"{section}/{name} drifted from {GOLDEN_PATH.name}"
            )
    assert _canonical(observed) == _canonical(golden)
