"""repro.api — the unified language-identification surface.

This subsystem wraps every classifier flavour in the repository behind one
facade so that later scaling work (sharding, async serving, multi-backend
routing) plugs into a single API:

:class:`~repro.api.config.ClassifierConfig`
    Frozen, validated configuration object with ``to_dict``/``from_dict``.
:mod:`repro.api.registry`
    The :class:`~repro.api.registry.Backend` contract and the
    ``@register_backend`` registry mapping names to engines.
:mod:`repro.api.backends`
    Adapters for the five built-in engines: ``bloom``, ``exact``, ``hw-sim``,
    ``mguesser`` and ``hail``.
:class:`~repro.api.identifier.LanguageIdentifier`
    ``train`` / ``classify`` / ``classify_batch`` / ``classify_stream`` /
    ``save`` / ``load``.
:mod:`repro.api.persistence`
    The versioned flat ``model.bin`` artifact behind ``save``/``load``; a
    mapped file and an in-memory copy parse the same way.
"""

from __future__ import annotations

from repro.api import backends as _backends  # noqa: F401 - registers the built-in backends
from repro.api.config import (
    DEFAULT_BACKEND,
    KNOWN_HASH_FAMILIES,
    ClassifierConfig,
    EnsembleConfig,
)
from repro.api.ensemble import EnsembleBackend, load_priors
from repro.api.identifier import DEFAULT_STREAM_BATCH_SIZE, LanguageIdentifier
from repro.api.persistence import (
    ARTIFACT_FORMAT,
    ARTIFACT_VERSION,
    ModelFormatError,
    load_model,
    save_model,
)
from repro.api.registry import (
    Backend,
    available_backends,
    create_backend,
    get_backend,
    register_backend,
)

__all__ = [
    "ClassifierConfig",
    "EnsembleConfig",
    "EnsembleBackend",
    "load_priors",
    "KNOWN_HASH_FAMILIES",
    "DEFAULT_BACKEND",
    "DEFAULT_STREAM_BATCH_SIZE",
    "LanguageIdentifier",
    "Backend",
    "register_backend",
    "get_backend",
    "available_backends",
    "create_backend",
    "save_model",
    "load_model",
    "ModelFormatError",
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
]
