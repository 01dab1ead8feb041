"""repro — reproduction of *Language Classification using N-grams Accelerated by
FPGA-based Bloom Filters* (Jacob & Gokhale, HPRCTA'07 / SC 2007 workshop).

The package is organised as a set of substrates plus the paper's core contribution:

``repro.core``
    The datapath stages of the Bloom-filter n-gram classifier (alphabet
    conversion, n-gram extraction, language profiles, parallel Bloom filters,
    the classification result and the analytical false-positive model).
``repro.hashes``
    Hardware-friendly hash families (H3 and alternatives used for ablations).
``repro.hardware``
    A cycle-approximate simulator of the FPGA datapath (embedded RAM blocks, the
    Bloom-filter engine, the multi-language classifier) together with the resource
    and clock-frequency models used to reproduce the paper's Tables 2 and 3.
``repro.system``
    The XtremeData XD1000 system model (HyperTransport link, DMA, command protocol,
    synchronous/asynchronous host drivers) used to reproduce Figure 4 and Table 4.
``repro.baselines``
    The software baseline (Mguesser / Cavnar–Trenkle) and the competing hardware
    design (HAIL) as functional + analytical models.
``repro.corpus``
    A synthetic multilingual corpus generator standing in for the JRC-Acquis corpus.
``repro.analysis``
    Accuracy evaluation, parameter sweeps and table/figure rendering helpers.
``repro.api``
    The one classification surface: :class:`~repro.api.config.ClassifierConfig`,
    the pluggable backend registry (``bloom`` / ``exact`` / ``hw-sim`` /
    ``mguesser`` / ``hail`` / ``ensemble``) and the
    :class:`~repro.api.identifier.LanguageIdentifier` facade with batch/streaming
    classification and model persistence.  Every engine, the hardware and
    system models included, is driven through it.
``repro.serve``
    The asynchronous micro-batching classification service (replica pool,
    LRU result cache, backpressure, metrics, JSON/HTTP front-end) — the
    software twin of the paper's asynchronous host driver.
``repro.segment``
    Mixed-language document segmentation: a windowed scorer that sums hits
    between window edges on the vectorized Bloom hot path, plus a Viterbi
    decode over a switch-penalised HMM, turning code-switched documents into
    labelled ``Span`` runs (also served as ``POST /segment`` and
    ``repro segment``).
``repro.eval``
    The robustness measurement layer: seeded noise channels swept over a
    backend × scenario × document-length matrix (``repro evaluate``,
    ``LanguageIdentifier.evaluate``), reliability-bin confidence calibration
    with ECE, and the tolerance-aware golden regression harness that pins
    per-cell accuracy in tier-1.

Quickstart
----------
>>> from repro import ClassifierConfig, LanguageIdentifier, build_jrc_acquis_like
>>> corpus = build_jrc_acquis_like(["en", "fr", "es"], docs_per_language=40, seed=7)
>>> train, test = corpus.split(train_fraction=0.25, seed=7)
>>> config = ClassifierConfig(m_bits=16 * 1024, k=4, seed=1, backend="bloom")
>>> identifier = LanguageIdentifier(config).train(train)
>>> result = identifier.classify(test.documents[0].text)
>>> result.language in corpus.languages
True
>>> results = identifier.classify_batch([doc.text for doc in test.documents[:8]])
>>> len(results)
8

Trained models persist as versioned flat ``model.bin`` artifacts::

    identifier.save("model.bin")
    restored = LanguageIdentifier.load("model.bin")        # bit-exact, memory-mapped
    exact = LanguageIdentifier.load("model.bin", backend="exact")
"""

from __future__ import annotations

from repro.api.config import ClassifierConfig, EnsembleConfig
from repro.api.ensemble import EnsembleBackend, load_priors
from repro.api.identifier import LanguageIdentifier
from repro.api.persistence import ModelFormatError
from repro.api.registry import (
    Backend,
    available_backends,
    get_backend,
    register_backend,
)
from repro.core.alphabet import encode_text
from repro.core.bloom import BloomFilter, ParallelBloomFilter
from repro.core.classifier import ClassificationResult
from repro.core.fpr import false_positive_rate, false_positives_per_thousand
from repro.core.ngram import NGramExtractor, ngrams_from_text, pack_ngrams
from repro.core.profile import LanguageProfile, build_profiles
from repro.corpus.corpus import Corpus, Document, build_jrc_acquis_like
from repro.corpus.generator import (
    DocumentGenerator,
    MixedDocument,
    MixedDocumentGenerator,
    SyntheticCorpusBuilder,
)
from repro.segment import SegmentationResult, Segmenter, SegmenterConfig, Span

__version__ = "1.0.0"

__all__ = [
    "ClassifierConfig",
    "EnsembleConfig",
    "EnsembleBackend",
    "load_priors",
    "LanguageIdentifier",
    "ModelFormatError",
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "encode_text",
    "BloomFilter",
    "ParallelBloomFilter",
    "ClassificationResult",
    "false_positive_rate",
    "false_positives_per_thousand",
    "NGramExtractor",
    "ngrams_from_text",
    "pack_ngrams",
    "LanguageProfile",
    "build_profiles",
    "Corpus",
    "Document",
    "build_jrc_acquis_like",
    "DocumentGenerator",
    "SyntheticCorpusBuilder",
    "MixedDocument",
    "MixedDocumentGenerator",
    "Span",
    "SegmentationResult",
    "SegmenterConfig",
    "Segmenter",
    "__version__",
]
