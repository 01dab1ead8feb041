"""The benchmark's layer wrappers still find every layer the program runs.

``layerbench`` times each layer by wrapping a function that the program calls
by name (``layerbench/spans.py``).  A renamed layer makes the install raise
``KeyError``; a layer that the program stops calling through its wrapped name
records no span, and the benchmark then reads 0 for it.  This test catches
both in tier-1: it installs every wrapper, runs one ``classify_batch`` and one
``segment()`` of a mixed document, and checks that each layer recorded a span.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.api.backends import BloomBackend
from repro.corpus.generator import MixedDocumentGenerator

SPANS_PATH = Path(__file__).resolve().parents[1] / "layerbench" / "spans.py"

#: the library layers of the classify_batch and segment_mixed workloads
LAYERS = ("classify_batch", "reduce", "result", "extract", "hits", "window", "smooth", "segment")


def _spans_module(monkeypatch):
    spec = importlib.util.spec_from_file_location("layerbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the module runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_layer_records_a_span(profiles, test_corpus, monkeypatch):
    identifier = LanguageIdentifier(ClassifierConfig(t=1500)).train_profiles(profiles)
    assert isinstance(identifier.backend, BloomBackend)
    mixed = MixedDocumentGenerator(tuple(profiles), seed=5).generate(0)
    spans = _spans_module(monkeypatch)
    recorder = spans.SpanRecorder()
    try:
        spans.install_library_spans(recorder, BloomBackend)
        spans.install_serving_spans(recorder)
        identifier.classify_batch([doc.text for doc in test_corpus.documents[:8]])
        identifier.segment(mixed.text)
    finally:
        recorder.uninstall()
    recorded = set(recorder.table().name.tolist())
    assert [layer for layer in LAYERS if layer not in recorded] == []
