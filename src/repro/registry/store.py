"""Versioned on-disk model registry: publish, resolve, list, gc.

The paper's FPGA host reprograms Bloom tables offline; a production service
retrains continuously and must be able to say exactly which model answered a
request.  The registry is the source of truth for that: an append-only store
of flat ``model.bin`` artifacts (the zero-copy container of
:mod:`repro.api.persistence`) under monotonically increasing versions, each
with a JSON manifest recording the model fingerprint, languages,
configuration, parent version and training-corpus statistics.

Layout on disk::

    <root>/
        LATEST                  # the active version name, updated atomically
        versions/
            v000001/
                model.bin       # flat artifact (memory-mapped zero-copy)
                manifest.json
            v000002/
                ...

Durability contract:

* ``publish`` stages the artifact + manifest in a hidden temp directory and
  installs it with one ``os.replace`` — a crash mid-publish leaves at most a
  ``.tmp-*`` directory that the next ``gc`` sweeps, never a half-written
  version;
* the ``LATEST`` pointer is a one-line file replaced atomically, so readers
  always see a complete version name;
* version directories are immutable once installed — retraining publishes a
  *child* version (``parent`` in the manifest), it never rewrites history.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from repro.api.persistence import load_model, model_fingerprint, save_model

__all__ = ["ModelRegistry", "ModelVersion", "RegistryError", "MANIFEST_SCHEMA"]

#: manifest schema revision (bump when the manifest shape changes)
MANIFEST_SCHEMA = 1

#: version directory name shape: zero-padded so lexical order == numeric order
_VERSION_RE = re.compile(r"^v(\d{6})$")
_ARTIFACT_NAME = "model.bin"
_MANIFEST_NAME = "manifest.json"
_LATEST_NAME = "LATEST"
_TMP_PREFIX = ".tmp-"


class RegistryError(RuntimeError):
    """A registry operation failed: unknown version, corrupt manifest,
    publish collision that survived retries, or an invalid argument."""


def _version_name(number: int) -> str:
    return f"v{number:06d}"


def _parse_version(spec: "int | str") -> int:
    """Normalise ``3`` / ``"3"`` / ``"v000003"`` to the integer version number."""
    if isinstance(spec, int):
        number = spec
    else:
        text = str(spec).strip()
        match = _VERSION_RE.match(text)
        if match:
            number = int(match.group(1))
        else:
            try:
                number = int(text)
            except ValueError:
                raise RegistryError(
                    f"invalid version spec {spec!r}; use an integer, 'vNNNNNN', or 'latest'"
                ) from None
    if number <= 0:
        raise RegistryError(f"version numbers start at 1, got {number}")
    return number


@dataclass(frozen=True)
class ModelVersion:
    """One immutable published model version (directory + parsed manifest)."""

    version: int
    path: Path
    manifest: dict

    @property
    def name(self) -> str:
        return _version_name(self.version)

    @property
    def fingerprint(self) -> str:
        """Hex model fingerprint (see :func:`repro.api.persistence.model_fingerprint`)."""
        return self.manifest["fingerprint"]

    @property
    def languages(self) -> list[str]:
        return list(self.manifest["languages"])

    @property
    def parent(self) -> str | None:
        return self.manifest.get("parent")

    @property
    def artifact_path(self) -> Path:
        return self.path / _ARTIFACT_NAME

    def to_json(self) -> dict:
        """Wire/CLI form: the manifest plus the resolved on-disk location."""
        return {"name": self.name, "path": str(self.path), **self.manifest}


class ModelRegistry:
    """A directory of versioned flat model artifacts with an atomic latest pointer.

    Parameters
    ----------
    root:
        Registry directory; created (with the ``versions/`` subdirectory) if
        missing.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.versions_dir = self.root / "versions"
        self.versions_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------ publishing

    def publish(
        self,
        model,
        parent: "int | str | None" = None,
        corpus_stats: dict | None = None,
        activate: bool = True,
    ) -> ModelVersion:
        """Store a trained model as the next version; returns its record.

        ``model`` is a trained :class:`~repro.api.identifier.LanguageIdentifier`
        or a path to an existing ``model.bin`` artifact (loaded, then written
        into the new version directory).  ``parent`` records lineage for
        incremental retraining; ``corpus_stats`` is an arbitrary JSON-able
        dict (document/byte counts, accumulator telemetry).
        ``activate=False`` publishes without moving the ``LATEST`` pointer
        (e.g. to validate a candidate before cutting traffic over).
        """
        from repro.api.identifier import LanguageIdentifier

        if isinstance(model, (str, Path)):
            model = load_model(model)
        if not isinstance(model, LanguageIdentifier) or not model.is_trained:
            raise RegistryError("publish needs a trained LanguageIdentifier or artifact path")
        parent_name = None
        if parent is not None:
            parent_name = self.resolve(parent).name  # must exist; normalises the spec

        # Retry on version-number collisions: two concurrent publishers both
        # compute next==N, one os.replace wins, the loser re-reads and retries.
        for _ in range(32):
            number = self._next_version_number()
            staging = self.versions_dir / f"{_TMP_PREFIX}{_version_name(number)}-{os.getpid()}"
            staging.mkdir(parents=True)
            try:
                artifact = save_model(model, staging / _ARTIFACT_NAME)
                manifest = {
                    "schema": MANIFEST_SCHEMA,
                    "version": number,
                    "fingerprint": model_fingerprint(model).hex(),
                    "created_at": time.time(),
                    "languages": model.languages,
                    "config": model.config.to_dict(),
                    "parent": parent_name,
                    "artifact": {
                        "file": _ARTIFACT_NAME,
                        "bytes": artifact.stat().st_size,
                    },
                    "corpus_stats": corpus_stats,
                }
                (staging / _MANIFEST_NAME).write_text(
                    json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
                )
                final = self.versions_dir / _version_name(number)
                try:
                    os.replace(staging, final)
                except OSError:
                    # someone else installed this number first; retry with the next
                    shutil.rmtree(staging, ignore_errors=True)
                    continue
            except Exception:
                shutil.rmtree(staging, ignore_errors=True)
                raise
            record = ModelVersion(version=number, path=final, manifest=manifest)
            if activate:
                self.set_latest(record)
            return record
        raise RegistryError("could not allocate a version number (publish contention)")

    def set_latest(self, version: "ModelVersion | int | str") -> ModelVersion:
        """Atomically repoint ``LATEST`` at an existing version."""
        record = version if isinstance(version, ModelVersion) else self.resolve(version)
        pointer = self.root / _LATEST_NAME
        staging = self.root / f"{_TMP_PREFIX}{_LATEST_NAME}-{os.getpid()}"
        staging.write_text(record.name + "\n", encoding="utf-8")
        os.replace(staging, pointer)
        return record

    # ------------------------------------------------------------ resolution

    def _next_version_number(self) -> int:
        numbers = [v.version for v in self.list()]
        return (max(numbers) + 1) if numbers else 1

    def _read(self, number: int) -> ModelVersion:
        path = self.versions_dir / _version_name(number)
        manifest_path = path / _MANIFEST_NAME
        if not manifest_path.is_file():
            raise RegistryError(f"no published version {_version_name(number)} in {self.root}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"{manifest_path} is unreadable or corrupt: {exc}") from exc
        if not isinstance(manifest, dict) or "fingerprint" not in manifest:
            raise RegistryError(f"{manifest_path} is missing required manifest fields")
        return ModelVersion(version=number, path=path, manifest=manifest)

    def resolve(self, spec: "int | str" = "latest") -> ModelVersion:
        """Resolve ``"latest"``, an integer, ``"3"`` or ``"v000003"`` to a record."""
        if isinstance(spec, str) and spec.strip().lower() == "latest":
            pointer = self.root / _LATEST_NAME
            try:
                name = pointer.read_text(encoding="utf-8").strip()
            except FileNotFoundError:
                raise RegistryError(f"registry {self.root} has no published versions") from None
            return self._read(_parse_version(name))
        return self._read(_parse_version(spec))

    def latest(self) -> ModelVersion:
        """The version ``LATEST`` points at (:class:`RegistryError` when empty)."""
        return self.resolve("latest")

    def list(self) -> list[ModelVersion]:
        """Every installed version, oldest first (skips staging debris)."""
        records = []
        for entry in sorted(self.versions_dir.iterdir()):
            match = _VERSION_RE.match(entry.name)
            if match and entry.is_dir():
                records.append(self._read(int(match.group(1))))
        return records

    def load(self, spec: "int | str" = "latest", backend: str | None = None):
        """Load a published version's identifier (flat artifact, memmap-backed)."""
        return load_model(self.resolve(spec).artifact_path, backend=backend)

    # ------------------------------------------------------------ garbage collection

    def gc(self, keep: int = 3, dry_run: bool = False) -> list[str]:
        """Delete old versions, keeping the newest ``keep`` plus ``LATEST``.

        The active version is never deleted even when it is older than the
        retention window (a rolled-back deployment keeps serving).  Abandoned
        ``.tmp-*`` staging directories from crashed publishes are always
        swept.  Returns the names of the removed (or, under ``dry_run``, the
        would-be-removed) versions.
        """
        if keep < 1:
            raise RegistryError("gc must keep at least one version")
        try:
            active = self.latest().version
        except RegistryError:
            active = None
        records = self.list()
        survivors = {record.version for record in records[-keep:]}
        if active is not None:
            survivors.add(active)
        removed = []
        for record in records:
            if record.version in survivors:
                continue
            removed.append(record.name)
            if not dry_run:
                shutil.rmtree(record.path)
        if not dry_run:
            for entry in self.versions_dir.iterdir():
                if entry.name.startswith(_TMP_PREFIX):
                    shutil.rmtree(entry, ignore_errors=True)
        return removed

    def describe(self) -> dict:
        """Registry summary (CLI ``models list`` header, admin introspection)."""
        records = self.list()
        try:
            active = self.latest().name
        except RegistryError:
            active = None
        return {
            "root": str(self.root),
            "versions": len(records),
            "latest": active,
            "total_bytes": sum(
                record.manifest.get("artifact", {}).get("bytes", 0) for record in records
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ModelRegistry(root={str(self.root)!r})"
