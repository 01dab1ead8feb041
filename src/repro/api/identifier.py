"""The :class:`LanguageIdentifier` facade — one surface over every backend.

The facade owns the text → packed-n-gram extraction pipeline and delegates
membership counting to a registered :class:`~repro.api.registry.Backend`, so
training, batch classification (a single document is a batch of one),
streaming, and model persistence look identical whichever engine runs under it::

    config = ClassifierConfig(m_bits=16 * 1024, k=4, backend="bloom")
    identifier = LanguageIdentifier(config).train(corpus)
    identifier.classify("Quel est ce document ?").language
    identifier.save("model.npz")
    restored = LanguageIdentifier.load("model.npz")
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.api import backends as _backends  # noqa: F401 - registers the built-in backends
from repro.api import ensemble as _ensemble  # noqa: F401 - registers the ensemble backend
from repro.api.config import DEFAULT_STREAM_BATCH_SIZE, ClassifierConfig
from repro.api.registry import Backend, create_backend
from repro.core.classifier import ClassificationResult, undetermined_result
from repro.core.ngram import NGramExtractor
from repro.core.profile import LanguageProfile, build_profiles

__all__ = ["LanguageIdentifier", "DEFAULT_STREAM_BATCH_SIZE"]


class LanguageIdentifier:
    """Unified language-identification API over the pluggable backends.

    Parameters
    ----------
    config:
        The pipeline configuration; defaults are the paper's conservative
        setup (4-grams, t = 5000, 16 Kbit × 4 Bloom vectors, H3, ``bloom``).
    **overrides:
        Convenience field overrides applied on top of ``config`` (or on top of
        the defaults when ``config`` is omitted), e.g.
        ``LanguageIdentifier(backend="exact", k=6)``.
    """

    def __init__(self, config: ClassifierConfig | None = None, **overrides):
        if config is None:
            config = ClassifierConfig(**overrides)
        elif overrides:
            config = config.replace(**overrides)
        self.config = config
        self.extractor = NGramExtractor(n=config.n, subsample_stride=config.subsample_stride)
        self._backend = create_backend(config)

    # ------------------------------------------------------------ introspection

    @property
    def backend(self) -> Backend:
        """The membership engine behind this identifier."""
        return self._backend

    @property
    def languages(self) -> list[str]:
        """Languages the identifier has been trained on, in training order."""
        return self._backend.languages

    @property
    def profiles(self) -> dict[str, LanguageProfile]:
        """The per-language profiles the backend was programmed with."""
        return self._backend.profiles

    @property
    def is_trained(self) -> bool:
        return bool(self._backend.profiles)

    def describe(self) -> dict:
        """Description of the full pipeline (configuration + backend structure)."""
        return self._backend.describe()

    # ------------------------------------------------------------ training

    def train(self, corpus) -> "LanguageIdentifier":
        """Train from a :class:`repro.corpus.corpus.Corpus` or a ``language → texts`` mapping."""
        if isinstance(corpus, Mapping):
            texts_by_language = corpus
        else:
            texts_by_language = corpus.texts_by_language()
        profiles = build_profiles(
            texts_by_language, n=self.config.n, t=self.config.t, extractor=self.extractor
        )
        return self.train_profiles(profiles)

    def train_profiles(self, profiles: Mapping[str, LanguageProfile]) -> "LanguageIdentifier":
        """Train from prebuilt per-language profiles."""
        self._backend.fit_profiles(profiles)
        return self

    def _check_trained(self) -> None:
        if not self.is_trained:
            raise RuntimeError("identifier has not been trained; call train() first")

    # ------------------------------------------------------------ classification

    def _result_from_counts(self, counts: np.ndarray, ngram_count: int) -> ClassificationResult:
        languages = self.languages
        if ngram_count == 0:
            # no n-gram evidence at all (empty or shorter than n): the explicit
            # zero-confidence "und" result
            return undetermined_result(languages)
        best = int(np.argmax(counts)) if counts.size else 0
        return ClassificationResult(
            language=languages[best],
            match_counts={lang: int(c) for lang, c in zip(languages, counts)},
            ngram_count=int(ngram_count),
        )

    def classify(self, text: str | bytes, source: str | None = None) -> ClassificationResult:
        """Classify one document: :meth:`classify_batch` on a batch of one.

        ``source`` tags the document with its origin; backends that weight
        votes with per-source priors (the ensemble) use it, every other
        backend ignores it.
        """
        return self.classify_batch([text], [source])[0]

    def classify_batch(
        self,
        texts: Iterable[str | bytes],
        sources: str | Sequence[str | None] | None = None,
    ) -> list[ClassificationResult]:
        """Classify several documents with one vectorized pass.

        All documents' packed n-grams are concatenated and handed to the
        backend's batch kernel, which (for the hashed backends) computes the
        hash addresses of the whole batch once and reuses them across every
        document and every language.  Every result is built here, by
        :meth:`_result_from_counts`, unless the backend builds richer ones
        itself (the ensemble's votes).

        ``sources`` is one source tag for the whole batch, or one per document
        (``None`` gaps allowed); only prior-aware backends consume it.
        """
        self._check_trained()
        texts = list(texts)
        extracted = [self.extractor.extract(text) for text in texts]
        if not extracted:
            return []
        if isinstance(sources, str) or sources is None:
            sources = [sources] * len(texts)
        elif len(sources) != len(texts):
            raise ValueError("sources must align with texts (one tag per document)")
        lengths = np.asarray([packed.size for packed in extracted], dtype=np.int64)
        concatenated = (
            np.concatenate(extracted) if lengths.sum() else np.empty(0, dtype=np.uint64)
        )
        rich = self._backend.classify_batch_results(
            concatenated, lengths, texts=texts, sources=sources
        )
        if rich is not None:
            return rich
        counts = self._backend.match_counts_batch(concatenated, lengths)
        return [
            self._result_from_counts(counts[row], lengths[row])
            for row in range(lengths.size)
        ]

    def classify_stream(
        self,
        documents: Iterable[str | bytes],
        batch_size: int | None = None,
        source: str | None = None,
    ) -> Iterator[ClassificationResult]:
        """Lazily classify an unbounded stream of documents.

        Documents are gathered into batches of ``batch_size`` (defaulting to
        the configuration's ``stream_batch_size``) and pushed through the
        vectorized batch path; results are yielded in input order as each
        batch completes, so memory stays bounded by the batch size rather than
        the stream length.  ``source`` tags every document of the stream (a
        stream is one feed).  Argument and trained-state validation happens at
        call time, not at first consumption.
        """
        if batch_size is None:
            batch_size = self.config.stream_batch_size
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self._check_trained()

        def generate():
            pending: list[str | bytes] = []
            for document in documents:
                pending.append(document)
                if len(pending) >= batch_size:
                    yield from self.classify_batch(pending, sources=source)
                    pending = []
            if pending:
                yield from self.classify_batch(pending, sources=source)

        return generate()

    # ------------------------------------------------------------ segmentation

    def segment(self, text: str | bytes, **overrides):
        """Segment a mixed-language document into single-language spans.

        Runs the windowed cumulative-sum scorer + smoothing pipeline of
        :mod:`repro.segment` against this identifier's backend and returns a
        :class:`~repro.segment.types.SegmentationResult` whose spans tile the
        document.  Keyword overrides configure the
        :class:`~repro.segment.segmenter.SegmenterConfig` for this call, e.g.
        ``identifier.segment(text, smoothing="hysteresis")``; the
        default-configured segmenter is cached across calls.
        """
        from repro.segment import Segmenter

        self._check_trained()
        if overrides:
            return Segmenter(self, **overrides).segment(text)
        segmenter = getattr(self, "_default_segmenter", None)
        if segmenter is None or segmenter.identifier is not self:
            segmenter = self._default_segmenter = Segmenter(self)
        return segmenter.segment(text)

    # ------------------------------------------------------------ evaluation

    def evaluate(
        self,
        corpus,
        scenarios=None,
        lengths=None,
        seed: int = 0,
        n_bins: int = 10,
    ):
        """Run the robustness evaluation matrix of :mod:`repro.eval` on ``corpus``.

        Sweeps this identifier over noise scenarios × truncation lengths
        through the vectorized batch path and returns an
        :class:`~repro.eval.matrix.EvaluationMatrix` with per-cell accuracy
        reports, reliability/ECE calibration and degradation curves.
        ``scenarios`` and ``lengths`` default to
        :data:`~repro.eval.scenarios.DEFAULT_SCENARIOS` and
        :data:`~repro.eval.matrix.DEFAULT_LENGTHS`; pass a mapping of
        ``{name: identifier}`` to :func:`repro.eval.matrix.run_matrix` directly
        to compare several backends in one matrix.
        """
        from repro.eval.matrix import DEFAULT_LENGTHS, run_matrix
        from repro.eval.scenarios import DEFAULT_SCENARIOS

        self._check_trained()
        return run_matrix(
            {self.config.backend: self},
            corpus,
            scenarios=DEFAULT_SCENARIOS if scenarios is None else scenarios,
            lengths=DEFAULT_LENGTHS if lengths is None else lengths,
            seed=seed,
            n_bins=n_bins,
        )

    # ------------------------------------------------------------ persistence

    def save(self, path: str | Path, format: str = "npz") -> Path:
        """Write a versioned model artifact (config + profiles + backend state).

        ``format="npz"`` writes the compressed archive; ``format="flat"``
        writes the page-aligned ``model.bin`` container that :meth:`load`
        memory-maps zero-copy (the layout shared-memory replicas use).
        """
        from repro.api.persistence import save_model

        return save_model(self, path, format=format)

    @classmethod
    def load(cls, path: str | Path, backend: str | None = None) -> "LanguageIdentifier":
        """Load a model artifact written by :meth:`save` (either container).

        The container is sniffed from the file's bytes.  ``backend``
        optionally overrides the stored backend name: the model's profiles
        are re-programmed into the requested engine (persisted
        engine-specific state is only reused when the backend matches).
        """
        from repro.api.persistence import load_model

        return load_model(path, backend=backend)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        status = f"{len(self.languages)} languages" if self.is_trained else "untrained"
        return f"LanguageIdentifier(backend={self.config.backend!r}, {status})"
