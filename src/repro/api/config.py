"""Classifier configuration: one frozen object captures a full pipeline setup.

Every classifier flavour in this repository is parameterised by the same small
set of knobs — n-gram order, profile size, Bloom geometry, hash family, seed,
subsampling and which membership backend to use.  :class:`ClassifierConfig`
captures them once, validates them eagerly, and round-trips through plain
dictionaries so a trained model can be persisted next to the exact
configuration that produced it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.ngram import DEFAULT_N
from repro.core.profile import DEFAULT_PROFILE_SIZE

__all__ = [
    "ClassifierConfig",
    "EnsembleConfig",
    "KNOWN_HASH_FAMILIES",
    "DEFAULT_BACKEND",
    "DEFAULT_ENSEMBLE_MEMBERS",
    "DEFAULT_STREAM_BATCH_SIZE",
]

#: hash families accepted by :func:`repro.hashes.families.make_hash_family`
KNOWN_HASH_FAMILIES: tuple[str, ...] = ("h3", "multiply-shift", "fnv1a", "tabulation")

#: backend used when none is specified (the paper's Parallel Bloom Filter design)
DEFAULT_BACKEND = "bloom"

#: documents gathered per vectorized step by batch/stream classification
DEFAULT_STREAM_BATCH_SIZE = 64

#: bits per character code of the 5-bit alphabet (Section 3 of the paper)
_CODE_BITS = 5

#: member backends the ensemble fans out to when none are specified
DEFAULT_ENSEMBLE_MEMBERS: tuple[str, ...] = ("bloom", "exact", "mguesser")


@dataclass(frozen=True)
class EnsembleConfig:
    """Immutable configuration of the ``ensemble`` backend's voting policy.

    Attributes
    ----------
    members:
        Registry names of the member backends the ensemble fans each document
        out to.  Every member shares the surrounding
        :class:`ClassifierConfig`'s pipeline knobs (n, t, Bloom geometry, …).
    min_ngrams:
        Quality gate: documents contributing fewer packed n-grams abstain with
        ``und`` instead of voting (1 reproduces the facade's existing
        empty-document behaviour).
    min_alpha_rate:
        Quality gate: documents whose Unicode-letter fraction falls below this
        threshold abstain (0.0 disables the gate; it only applies on code
        paths that still hold the raw text).
    tie_margin:
        Two leading vote scores within this absolute margin count as a tie and
        abstain (0.0 = exact ties only).
    """

    members: tuple[str, ...] = DEFAULT_ENSEMBLE_MEMBERS
    min_ngrams: int = 1
    min_alpha_rate: float = 0.0
    tie_margin: float = 0.0

    def __post_init__(self) -> None:
        members = tuple(self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("ensemble needs at least one member backend")
        if any(not isinstance(member, str) or not member for member in members):
            raise ValueError("ensemble members must be non-empty backend names")
        if "ensemble" in members:
            raise ValueError("an ensemble cannot contain itself as a member")
        if len(set(members)) != len(members):
            raise ValueError(f"duplicate ensemble members: {list(members)}")
        if self.min_ngrams < 0:
            raise ValueError("min_ngrams must be non-negative")
        if not 0.0 <= self.min_alpha_rate <= 1.0:
            raise ValueError("min_alpha_rate must be within [0, 1]")
        if self.tie_margin < 0.0:
            raise ValueError("tie_margin must be non-negative")

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form (JSON friendly)."""
        payload = dataclasses.asdict(self)
        payload["members"] = list(self.members)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EnsembleConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys so artifact drift is loud."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown ensemble configuration keys: {sorted(unknown)}")
        data = dict(payload)
        if "members" in data:
            data["members"] = tuple(data["members"])
        return cls(**data)


@dataclass(frozen=True)
class ClassifierConfig:
    """Immutable configuration of a language-identification pipeline.

    Attributes
    ----------
    n:
        N-gram order (4 in the paper).  Each window packs into one 64-bit key
        of 5-bit codes, so ``n`` is at most 12.
    t:
        Profile size: top-``t`` most frequent n-grams per language (5 000).
    m_bits:
        Per-hash Bloom bit-vector length; must be a power of two.
    k:
        Number of hash functions / bit-vectors per language.
    hash_family:
        Name of the hash family shared by all languages (``"h3"`` by default).
    seed:
        Seed for hash-function construction; identical seeds give bit-identical
        filters across processes, which is what makes saved models reproducible.
    subsample_stride:
        HAIL-style n-gram subsampling applied at classification time (1 = off).
    backend:
        Registry name of the membership backend (``"bloom"``, ``"exact"``,
        ``"hw-sim"``, ``"mguesser"``, ``"hail"`` or ``"ensemble"``).
    ensemble:
        Voting policy of the ``ensemble`` backend (:class:`EnsembleConfig`);
        ``None`` means the defaults.  Ignored by every other backend and
        omitted from :meth:`to_dict` when unset, so existing artifacts and
        fingerprints are unaffected.
    stream_batch_size:
        Documents gathered per vectorized step by
        :meth:`~repro.api.identifier.LanguageIdentifier.classify_stream`
        (and the CLI's ``--batch-size`` flag); larger batches amortise the
        hashing cost better at the price of more buffered memory.
    """

    n: int = DEFAULT_N
    t: int = DEFAULT_PROFILE_SIZE
    m_bits: int = 16 * 1024
    k: int = 4
    hash_family: str = "h3"
    seed: int = 0
    subsample_stride: int = 1
    backend: str = DEFAULT_BACKEND
    stream_batch_size: int = DEFAULT_STREAM_BATCH_SIZE
    ensemble: EnsembleConfig | None = None

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.n * _CODE_BITS > 64:
            raise ValueError(f"{self.n}-grams of {_CODE_BITS}-bit codes do not fit in 64 bits")
        if self.t <= 0:
            raise ValueError("t must be positive")
        if self.m_bits <= 0 or self.m_bits & (self.m_bits - 1):
            raise ValueError(f"m_bits must be a positive power of two (got {self.m_bits})")
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.hash_family not in KNOWN_HASH_FAMILIES:
            raise ValueError(
                f"unknown hash family {self.hash_family!r}; "
                f"choose from {sorted(KNOWN_HASH_FAMILIES)}"
            )
        if self.subsample_stride <= 0:
            raise ValueError("subsample_stride must be positive")
        if not self.backend or not isinstance(self.backend, str):
            raise ValueError("backend must be a non-empty string")
        if self.stream_batch_size <= 0:
            raise ValueError("stream_batch_size must be positive")
        if self.ensemble is not None and not isinstance(self.ensemble, EnsembleConfig):
            raise ValueError("ensemble must be an EnsembleConfig (or None)")

    # ------------------------------------------------------------ derived

    @property
    def key_bits(self) -> int:
        """Width of the packed n-gram keys this configuration produces (``n * 5``)."""
        return self.n * _CODE_BITS

    @property
    def m_kbits(self) -> int:
        """Per-hash bit-vector length in Kbits (the unit used by the paper)."""
        return self.m_bits // 1024

    @property
    def memory_bits_per_language(self) -> int:
        """Embedded-RAM bits one language's Bloom filters occupy (``k * m_bits``)."""
        return self.k * self.m_bits

    # ------------------------------------------------------------ serialisation

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form (JSON friendly).

        The ``ensemble`` key is omitted while unset so that pre-ensemble
        artifacts, fingerprints and goldens are byte-identical to before the
        field existed.
        """
        payload = dataclasses.asdict(self)
        if self.ensemble is None:
            del payload["ensemble"]
        else:
            payload["ensemble"] = self.ensemble.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ClassifierConfig":
        """Inverse of :meth:`to_dict`; rejects unknown keys so artifact drift is loud."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
        data = dict(payload)
        nested = data.get("ensemble")
        if isinstance(nested, Mapping):
            data["ensemble"] = EnsembleConfig.from_dict(nested)
        return cls(**data)

    def replace(self, **changes: Any) -> "ClassifierConfig":
        """A copy of this configuration with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)
