"""The backend registry: one protocol, many membership engines.

Every classifier flavour in the repository — the Parallel-Bloom-Filter design,
the exact-lookup reference, the cycle-approximate hardware simulator, and the
HAIL / Mguesser baselines — answers the same question: *given a stream of packed
n-grams, how many of them does each language's profile claim?*  The
:class:`Backend` base class pins that contract down (``fit_profiles`` /
``ngram_hits`` / ``match_counts_batch`` / ``decide_batch`` / ``describe``), and the registry maps
short names onto implementations so callers select an engine with a string
instead of importing five different constructors.

Registering a backend::

    @register_backend("my-engine")
    class MyBackend(Backend):
        ...

Backends receive a :class:`~repro.api.config.ClassifierConfig` and must be
deterministic for a given configuration, profiles and
:meth:`Backend.export_state` arrays, so that saved models reload bit-exactly.
"""

from __future__ import annotations

import abc
from collections.abc import Mapping, Sequence

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
    per-language profiles), :meth:`ngram_hits` (per-n-gram scores) and
    :meth:`match_counts_batch` (per-language counts for each document of a
    batch stream).  The table backends in :mod:`repro.api.backends` share
    one batch kernel, whose counts are the sums of :meth:`ngram_hits`' scores;
    only ``hw-sim`` and ``ensemble`` keep a batch kernel of their own.  A single
    document is a batch of one: there is no separate per-document kernel.
    Every backend but the ensemble inherits :meth:`decide_batch`.
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
    def match_counts_batch(
        self, packed: np.ndarray, starts: np.ndarray, lengths: np.ndarray
    ) -> np.ndarray:
        """Per-language match counts for each document of a batch stream.

        Parameters
        ----------
        packed:
            The batch's packed n-grams as
            :meth:`~repro.core.ngram.NGramExtractor.extract_batch` returns
            them: one stream, with the windows that cross a boundary between
            two documents left in it.
        starts, lengths:
            Each document's range of ``packed``: the index of its first
            n-gram and its n-gram count.  The ranges are in order and do not
            overlap; only they are counted, never the gaps between them.
            Zero-length documents are allowed, and count zero.  A batch
            packed back to back passes ``starts = cumsum(lengths) -
            lengths``.

        Returns
        -------
        numpy.ndarray
            Integer array of shape ``(len(lengths), len(self.languages))``.
            Backends whose natural score is fractional (e.g. the mguesser
            frequency scorer) return fixed-point integers so every backend
            shares the counter semantics of the hardware.
        """

    def decide_batch(
        self,
        packed: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        texts: Sequence[str | bytes],
        sources: Sequence[str | None],
    ) -> tuple[np.ndarray, np.ndarray, tuple[list, list, list] | None]:
        """Each document's counts and language, for the facade's results.

        Takes :meth:`match_counts_batch`'s arguments plus the raw ``texts``
        and one source tag (or ``None``) per document.  Returns the counts,
        each document's language index (``-1`` for ``und``), and ``None`` or
        the ensemble's ``(calibrated_confidence, abstain_reason,
        member_votes)`` columns.  The default is the first maximum of each
        row, the priority encoder's tie rule.
        """
        counts = self.match_counts_batch(packed, starts, lengths)
        return counts, counts.argmax(axis=1), None

    @abc.abstractmethod
    def ngram_hits(self, packed: np.ndarray) -> np.ndarray:
        """Per-n-gram, per-language integer scores for one document's packed n-grams.

        The primitive behind windowed segmentation
        (:class:`repro.segment.windows.WindowedScorer`): instead of one count
        per (document, language), every n-gram keeps its own column of
        per-language scores, so sliding-window totals are sums of these
        columns between the window edges.  For the table backends
        (``bloom``, ``exact``, ``hail``, ``mguesser``) summing along the
        n-gram axis reproduces a document's :meth:`match_counts_batch`
        counts exactly: 0/1 hits for the membership backends, fixed-point
        weights for ``mguesser``.

        Returns
        -------
        numpy.ndarray
            Integer (or boolean) array of shape ``(len(self.languages),
            n_ngrams)``.
        """

    # ------------------------------------------------------------ persistence hooks

    def export_state(self) -> dict[str, np.ndarray]:
        """Arrays to persist beyond the profiles, in the layout the engine probes.

        Backends whose hot-path structures can be views over a read-only
        buffer export that layout directly (the ``bloom`` backend's unpacked
        stacked bit-vectors), so a loaded model answers without
        re-programming.  Backends that are cheap and deterministic to rebuild
        from profiles return an empty mapping (the default).
        """
        return {}

    def import_state(
        self, profiles: Mapping[str, LanguageProfile], state: Mapping[str, np.ndarray]
    ) -> None:
        """Restore from persisted profiles plus :meth:`export_state` arrays.

        ``state`` arrays may be read-only views over an ``np.memmap`` of the
        model file; overriding backends adopt them without copying or
        mutating them.  The default ignores ``state``
        and re-fits from the profiles, which is bit-exact for every
        deterministic backend.
        """
        self.fit_profiles(profiles)

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
