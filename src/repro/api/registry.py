"""The backend registry: one protocol, many membership engines.

Every classifier flavour in the repository — the Parallel-Bloom-Filter design,
the exact-lookup reference, the cycle-approximate hardware simulator, and the
HAIL / Mguesser baselines — answers the same question: *given a stream of packed
n-grams, how many of them does each language's profile claim?*  The
:class:`Backend` base class pins that contract down (``fit_profiles`` /
``match_counts_batch`` / ``describe``), and the registry maps short names onto
implementations so callers select an engine with a string instead of importing
five different constructors.

Registering a backend::

    @register_backend("my-engine")
    class MyBackend(Backend):
        ...

Backends receive a :class:`~repro.api.config.ClassifierConfig` and must be
deterministic for a given ``(config, profiles)`` pair so that saved models
reload bit-exactly.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping

import numpy as np

from repro.api.config import ClassifierConfig
from repro.core.profile import LanguageProfile

__all__ = [
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "create_backend",
]


class Backend(abc.ABC):
    """A membership engine behind the :class:`~repro.api.identifier.LanguageIdentifier`.

    Subclasses implement :meth:`fit_profiles` (program the engine from
    per-language profiles) and :meth:`match_counts_batch` (per-language counts
    for a concatenated batch of documents).  A single document is a batch of
    one: there is no separate per-document kernel.
    """

    #: registry name; filled in by :func:`register_backend`
    name: str = ""

    def __init__(self, config: ClassifierConfig):
        self.config = config
        self.profiles: dict[str, LanguageProfile] = {}

    # ------------------------------------------------------------ training

    @property
    def languages(self) -> list[str]:
        """Languages the backend has been programmed with, in training order."""
        return list(self.profiles)

    @abc.abstractmethod
    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> None:
        """Program the engine from prebuilt per-language profiles."""

    def _check_trained(self) -> None:
        if not self.profiles:
            raise RuntimeError("backend has not been trained; call fit_profiles() first")

    # ------------------------------------------------------------ classification

    @abc.abstractmethod
    def match_counts_batch(self, packed: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Per-language match counts for a concatenated batch of documents.

        Parameters
        ----------
        packed:
            The batch's packed n-grams, all documents concatenated.
        lengths:
            Number of n-grams contributed by each document (``sum(lengths) ==
            packed.size``; zero-length documents are allowed).

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(len(lengths), len(self.languages))``.
            Backends whose natural score is fractional (e.g. the mguesser
            frequency scorer) return fixed-point integers so every backend
            shares the counter semantics of the hardware.
        """

    def classify_batch_results(
        self,
        packed: np.ndarray,
        lengths: np.ndarray,
        *,
        texts=None,
        sources=None,
    ):
        """Optional rich batch path: full per-document results, or ``None``.

        Backends whose output is more than an argmax over
        :meth:`match_counts_batch` — the ensemble's calibrated votes, priors
        and abstention — override this to build the
        :class:`~repro.core.classifier.ClassificationResult` list themselves.
        ``texts`` (the raw documents, for text-level quality gates) and
        ``sources`` (one source tag per document, for per-source priors) ride
        along when the caller has them; either may be ``None``.

        Returning ``None`` (the default) tells the facade to take the ordinary
        counts-argmax path.
        """
        return None

    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Per-n-gram, per-language scores for one document's packed n-grams.

        The primitive behind windowed segmentation
        (:class:`repro.segment.windows.WindowedScorer`): instead of one count
        per (document, language), every n-gram keeps its own column of
        per-language scores, so sliding-window totals fall out of a cumulative
        sum.  For the membership backends the scores are 0/1 hits and summing
        along the n-gram axis reproduces the document's
        :meth:`match_counts_batch` row exactly; scoring backends
        (``mguesser``) return per-n-gram fixed-point weights whose sum may
        differ from it by rounding.

        Returns
        -------
        numpy.ndarray
            Integer (or boolean) array of shape ``(len(self.languages),
            n_ngrams)``.  The generic fallback reuses
            :meth:`match_counts_batch` with unit-length segments — correct for
            every backend, and already vectorized wherever the batch path is.
        """
        self._check_trained()
        packed = np.asarray(packed, dtype=np.uint64)
        if packed.size == 0:
            return np.zeros((len(self.languages), 0), dtype=np.int64)
        return self.match_counts_batch(packed, np.ones(packed.size, dtype=np.int64)).T

    # ------------------------------------------------------------ persistence hooks

    def export_state(self) -> dict[str, np.ndarray]:
        """Extra arrays to persist beyond the profiles (e.g. Bloom bit-vectors).

        Backends that are cheap and deterministic to rebuild from profiles
        return an empty mapping (the default).
        """
        return {}

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Restore from persisted profiles plus :meth:`export_state` arrays.

        The default ignores ``state`` and re-fits from the profiles, which is
        bit-exact for every deterministic backend.
        """
        self.fit_profiles(profiles)

    # ------------------------------------------------------------ zero-copy hooks

    def export_shared_state(self) -> dict[str, np.ndarray]:
        """Arrays for the flat/shared-memory artifact layout.

        Backends whose hot-path structures can be rebuilt as *views* over a
        read-only buffer override this pair to export a directly-mappable
        layout (the ``bloom`` backend's unpacked stacked bit-vectors); the
        default reuses the ordinary :meth:`export_state` arrays.
        """
        return self.export_state()

    def import_shared_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Restore from :meth:`export_shared_state` arrays, adopting views zero-copy.

        ``state`` arrays may be read-only views over an ``np.memmap`` or a
        ``multiprocessing.shared_memory`` buffer; overriding backends must not
        copy or mutate them.  The default delegates to :meth:`import_state`.
        """
        self.import_state(profiles, state)

    # ------------------------------------------------------------ introspection

    def describe(self) -> dict:
        """Human/machine-readable description of the engine and its configuration."""
        return {
            "backend": self.name,
            "languages": self.languages,
            "config": self.config.to_dict(),
        }


_REGISTRY: dict[str, type[Backend]] = {}


def register_backend(name: str):
    """Class decorator registering a :class:`Backend` subclass under ``name``."""
    key = name.lower().strip()
    if not key:
        raise ValueError("backend name must be non-empty")

    def decorator(cls: type[Backend]) -> type[Backend]:
        if not (isinstance(cls, type) and issubclass(cls, Backend)):
            raise TypeError(f"{cls!r} is not a Backend subclass")
        existing = _REGISTRY.get(key)
        if existing is not None and existing is not cls:
            raise ValueError(f"backend name {key!r} is already registered to {existing.__name__}")
        cls.name = key
        _REGISTRY[key] = cls
        return cls

    return decorator


def available_backends() -> list[str]:
    """Sorted names of all registered backends."""
    return sorted(_REGISTRY)


def get_backend(name: str) -> type[Backend]:
    """Look up a backend class by registry name."""
    key = str(name).lower().strip()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available backends: {available_backends()}"
        ) from None


def create_backend(config: ClassifierConfig) -> Backend:
    """Instantiate the backend named by ``config.backend``."""
    return get_backend(config.backend)(config)
