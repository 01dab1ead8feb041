"""Versioned model artifacts: save/load a trained :class:`LanguageIdentifier`.

One container, the flat ``model.bin``: a page-aligned, ``np.memmap``-able
layout built for zero-copy sharing.  An 8-byte magic, a little-endian uint64
header length, a JSON header (metadata + array table + payload CRC32), zero
padding to the next page boundary, then every array's raw bytes with each
array starting on a :data:`FLAT_ALIGN` boundary.  Array offsets are relative to
the payload start, so the header can be generated before the payload is laid
out.  The payload holds

* ``profiles/<lang>/ngrams`` and ``profiles/<lang>/counts`` — the
  per-language profile arrays (packed n-gram values + training counts);
* ``state/<key>`` — backend-specific arrays from
  :meth:`~repro.api.registry.Backend.export_state`.  The ``bloom`` backend
  stores its bit-vectors *unpacked* (one byte per bit, the ``(k, languages,
  m_bits)`` stacked hot-path layout), so a read-only ``np.memmap`` backs the
  live bit store directly: N processes that map one file share one physical
  copy of the model through the page cache (the process replica pool of
  :mod:`repro.serve.process_pool` serves its workers this way).

Nothing is pickled: metadata is JSON, so artifacts are safe to exchange.  Every
reader goes through the one parser, :func:`load_model_from_buffer`, which
:func:`load_model` calls on the mapped file, and every load checks the
payload CRC32.
"""

from __future__ import annotations

import hashlib
import json
import os
import secrets
import zlib
from pathlib import Path

import numpy as np

from repro.api.config import ClassifierConfig
from repro.core.profile import LanguageProfile

__all__ = [
    "ARTIFACT_FORMAT",
    "ARTIFACT_VERSION",
    "FLAT_MAGIC",
    "FLAT_ALIGN",
    "ModelFormatError",
    "model_fingerprint",
    "save_model",
    "load_model",
    "flat_model_bytes",
    "load_model_from_buffer",
]


class ModelFormatError(ValueError):
    """A model artifact is corrupt, truncated, foreign, or from the future.

    Subclasses :class:`ValueError` so existing ``except ValueError`` call
    sites keep working; raised for every malformed-artifact path in
    :func:`load_model` (wrong magic, missing metadata or arrays, wrong format
    tag, unsupported version, undecodable configuration, corruption caught by
    bounds checks or the payload checksum) instead of letting NumPy's
    ``KeyError``/``ValueError``/OS internals leak through.
    """

ARTIFACT_FORMAT = "repro-langid-model"
ARTIFACT_VERSION = 1

#: leading bytes of the flat container (8 bytes, includes the layout revision)
FLAT_MAGIC = b"RLIDFLT1"
#: alignment (bytes) of the flat header block and of every array's offset;
#: one page, so memmap'd arrays start page-aligned
FLAT_ALIGN = 4096

#: dtypes a flat artifact may carry; anything else (most importantly object
#: arrays) is rejected at load time
_FLAT_DTYPES = frozenset({"<u8", "<i8", "<u4", "<i4", "<f8", "<f4", "|u1", "|b1", "|i1"})

_PROFILE_PREFIX = "profiles/"
_STATE_PREFIX = "state/"


# --------------------------------------------------------------------- metadata


def model_fingerprint(identifier) -> bytes:
    """128-bit digest identifying a trained model's exact behaviour.

    Covers the full :class:`~repro.api.config.ClassifierConfig` (n-gram order,
    Bloom geometry, hash family, seed, backend, ...), every language's
    profile arrays in training order, and every array of the backend's
    :meth:`~repro.api.registry.Backend.export_state` (key, dtype, shape and
    bytes, keys sorted).  Profiles alone do not fix a backend's answers — an
    ensemble's priors and calibrators live only in its state — so two
    identifiers with equal fingerprints return identical results for every
    document.  This is the identity the serving cache keys on and the
    versioned model registry records in its manifests.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(identifier.config.to_dict(), sort_keys=True).encode("utf-8"))
    for language in identifier.languages:
        profile = identifier.profiles[language]
        digest.update(language.encode("utf-8", "surrogatepass"))
        digest.update(np.ascontiguousarray(profile.ngrams).tobytes())
        digest.update(np.ascontiguousarray(profile.counts).tobytes())
    state = identifier.backend.export_state()
    for key in sorted(state):
        array = np.asarray(state[key])
        digest.update(json.dumps([key, array.dtype.str, array.shape]).encode("utf-8"))
        # hashed in place: a copy of the bloom bit store would be a
        # half-megabyte temporary per call
        digest.update(np.ascontiguousarray(array))
    return digest.digest()


def _build_meta(identifier) -> dict:
    return {
        "format": ARTIFACT_FORMAT,
        "version": ARTIFACT_VERSION,
        "config": identifier.config.to_dict(),
        "languages": identifier.languages,
        "profile_params": {
            language: {"n": profile.n, "t": profile.t}
            for language, profile in identifier.profiles.items()
        },
    }


def _validate_meta(meta, source: str) -> ClassifierConfig:
    """Check the artifact metadata and decode its configuration."""
    if not isinstance(meta, dict) or meta.get("format") != ARTIFACT_FORMAT:
        fmt = meta.get("format") if isinstance(meta, dict) else meta
        raise ModelFormatError(
            f"{source} is not a {ARTIFACT_FORMAT} artifact (format={fmt!r})"
        )
    try:
        version = int(meta.get("version", 0))
    except (TypeError, ValueError) as exc:
        raise ModelFormatError(
            f"{source} has a malformed artifact version {meta.get('version')!r}"
        ) from exc
    if version > ARTIFACT_VERSION:
        raise ModelFormatError(
            f"artifact version {meta.get('version')} is newer than supported "
            f"version {ARTIFACT_VERSION}; upgrade the library to load {source}"
        )
    try:
        return ClassifierConfig.from_dict(meta.get("config"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{source} has an invalid stored configuration: {exc}") from exc


def _profiles_from(meta, get_array, source: str) -> dict[str, LanguageProfile]:
    """Rebuild the per-language profiles through a ``name -> array`` accessor."""
    profiles: dict[str, LanguageProfile] = {}
    try:
        for language in meta["languages"]:
            params = meta["profile_params"][language]
            profiles[language] = LanguageProfile(
                language=language,
                ngrams=get_array(f"{_PROFILE_PREFIX}{language}/ngrams"),
                counts=get_array(f"{_PROFILE_PREFIX}{language}/counts"),
                n=int(params["n"]),
                t=int(params["t"]),
            )
    except KeyError as exc:
        raise ModelFormatError(
            f"{source} is missing profile data for key {exc.args[0]!r} "
            "(truncated or hand-edited artifact?)"
        ) from exc
    except (TypeError, ValueError) as exc:
        # wrong-typed JSON values (profile_params not a dict of dicts,
        # non-numeric n/t, mismatched array lengths, ...)
        raise ModelFormatError(
            f"{source} has malformed profile metadata: {exc}"
        ) from exc
    return profiles


def _assemble_identifier(config, backend, profiles, state):
    """Build the identifier, adopting persisted backend state when it still applies."""
    from repro.api.identifier import LanguageIdentifier

    stored_backend = config.backend
    if backend is not None and backend != stored_backend:
        config = config.replace(backend=backend)
    identifier = LanguageIdentifier(config)
    if state and config.backend == stored_backend:
        identifier.backend.import_state(profiles, state)
    else:
        identifier.train_profiles(profiles)
    return identifier


# --------------------------------------------------------------------- saving


def save_model(identifier, path: str | Path) -> Path:
    """Write ``identifier`` to ``path`` as a flat artifact; the path is used verbatim.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` in one rename.  Models loaded from ``path`` map its old
    file, so saving over the artifact a server is answering from (retrain,
    then hot-swap) never rewrites or truncates the pages they read.
    """
    blob = flat_model_bytes(identifier)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(staging, "xb") as handle:
            handle.write(blob)
        os.replace(staging, path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    return path


def _align(value: int) -> int:
    return (value + FLAT_ALIGN - 1) // FLAT_ALIGN * FLAT_ALIGN


def flat_model_bytes(identifier) -> bytearray:
    """The complete flat-container serialisation of a trained identifier.

    This is exactly what :func:`save_model` writes to disk, and
    :func:`load_model_from_buffer` parses these bytes without a file.

    The bloom state is deliberately unpacked (one byte per bit), so the
    serialisation avoids transient copies: the CRC is computed over the array
    buffers directly and every array is written straight into the one output
    buffer, which is returned without a final ``bytes()`` copy.
    """
    if not identifier.is_trained:
        raise RuntimeError("cannot save an untrained identifier; call train() first")
    arrays: dict[str, np.ndarray] = {}
    for language, profile in identifier.profiles.items():
        arrays[f"{_PROFILE_PREFIX}{language}/ngrams"] = profile.ngrams
        arrays[f"{_PROFILE_PREFIX}{language}/counts"] = profile.counts
    for key, value in identifier.backend.export_state().items():
        arrays[f"{_STATE_PREFIX}{key}"] = np.asarray(value)

    # Lay the payload out first (offsets relative to the payload start, each
    # array page-aligned) so the header can simply describe it.
    table: dict[str, dict] = {}
    cursor = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        arrays[name] = array
        cursor = _align(cursor)
        table[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": cursor,
            "nbytes": int(array.nbytes),
        }
        cursor += array.nbytes
    payload_size = cursor

    # CRC over the payload exactly as it will be laid out (alignment gaps are
    # zero) without materialising a separate payload buffer.
    crc = 0
    cursor = 0
    zeros = bytes(FLAT_ALIGN)
    for name, array in arrays.items():
        entry = table[name]
        gap = entry["offset"] - cursor
        if gap:
            crc = zlib.crc32(zeros[:gap], crc)
        if array.nbytes:
            crc = zlib.crc32(memoryview(array).cast("B"), crc)
        cursor = entry["offset"] + entry["nbytes"]

    header = {
        "format": ARTIFACT_FORMAT,
        "container": "flat",
        "version": ARTIFACT_VERSION,
        "meta": _build_meta(identifier),
        "arrays": table,
        "payload_size": payload_size,
        "payload_crc32": crc,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    preamble = FLAT_MAGIC + len(header_bytes).to_bytes(8, "little")
    payload_start = _align(len(preamble) + len(header_bytes))
    blob = bytearray(payload_start + payload_size)
    blob[: len(preamble)] = preamble
    blob[len(preamble) : len(preamble) + len(header_bytes)] = header_bytes
    for name, array in arrays.items():
        entry = table[name]
        if array.nbytes:
            start = payload_start + entry["offset"]
            blob[start : start + entry["nbytes"]] = memoryview(array).cast("B")
    return blob


# --------------------------------------------------------------------- loading


def load_model(path: str | Path, backend: str | None = None):
    """Load an artifact written by :func:`save_model`, memory-mapped zero-copy.

    Parameters
    ----------
    path:
        Artifact file path.
    backend:
        Optional backend-name override; the stored profiles are re-programmed
        into the requested engine.  Persisted backend state is only reused when
        the stored and requested backends match.

    Raises
    ------
    FileNotFoundError
        If no artifact exists at ``path``.
    ModelFormatError
        If the file is not a valid artifact (see :func:`load_model_from_buffer`),
        including ``.npz`` archives and configurations with retired keys from
        earlier releases; the README says how to migrate them.
    """
    try:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"{path} is not a readable flat model artifact: {exc}") from exc
    return load_model_from_buffer(buffer, source=str(path), backend=backend)


def load_model_from_buffer(buffer, source: str = "<buffer>", backend: str | None = None):
    """Open a flat-container artifact held in any byte buffer, zero-copy.

    ``buffer`` is anything :func:`np.frombuffer` accepts — a read-only
    ``np.memmap`` of ``model.bin`` or the output of :func:`flat_model_bytes`.
    Arrays inside the returned identifier are read-only *views* of that
    buffer: for the ``bloom`` backend, the live bit-vectors address the
    buffer's bytes directly, so every process that maps the same file shares
    one physical model copy.  The buffer must outlive the identifier.

    Raises :class:`ModelFormatError` for every malformed input: short or
    truncated buffers, wrong magic, undecodable or mismatched headers, array
    table entries out of bounds, unsupported dtypes, or a payload that fails
    its CRC32.
    """
    data = np.frombuffer(buffer, dtype=np.uint8)
    if data.flags.writeable:
        data = data.view()
        data.flags.writeable = False
    preamble = len(FLAT_MAGIC) + 8
    if data.size < preamble:
        raise ModelFormatError(f"{source} is too short to be a flat model artifact")
    if data[: len(FLAT_MAGIC)].tobytes() != FLAT_MAGIC:
        raise ModelFormatError(f"{source} does not start with the flat artifact magic")
    header_len = int.from_bytes(data[len(FLAT_MAGIC) : preamble].tobytes(), "little")
    if header_len <= 0 or preamble + header_len > data.size:
        raise ModelFormatError(f"{source} has a truncated or corrupt header (len={header_len})")
    try:
        header = json.loads(data[preamble : preamble + header_len].tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{source} has an undecodable flat header: {exc}") from exc
    if not isinstance(header, dict) or header.get("container") != "flat":
        raise ModelFormatError(f"{source} flat header is malformed (no container tag)")
    meta = header.get("meta")
    config = _validate_meta(meta if isinstance(meta, dict) else {}, source)

    payload_start = _align(preamble + header_len)
    table = header.get("arrays")
    payload_size = header.get("payload_size")
    if not isinstance(table, dict) or not isinstance(payload_size, int):
        raise ModelFormatError(f"{source} flat header is missing its array table")
    # Trailing bytes beyond the declared payload are tolerated (but excluded
    # from the CRC), so a buffer may be larger than the artifact it holds.
    if payload_start + payload_size > data.size:
        raise ModelFormatError(
            f"{source} payload is {max(data.size - payload_start, 0)} bytes, header "
            f"claims {payload_size} (truncated artifact?)"
        )
    payload = data[payload_start : payload_start + payload_size]
    if zlib.crc32(payload) != header.get("payload_crc32"):
        raise ModelFormatError(f"{source} payload failed its CRC32 check (corrupt artifact)")

    arrays: dict[str, np.ndarray] = {}
    for name, entry in table.items():
        try:
            dtype_str = entry["dtype"]
            shape = tuple(int(dim) for dim in entry["shape"])
            offset = int(entry["offset"])
            nbytes = int(entry["nbytes"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ModelFormatError(f"{source} array table entry {name!r} is malformed") from exc
        if dtype_str not in _FLAT_DTYPES:
            raise ModelFormatError(
                f"{source} array {name!r} has unsupported dtype {dtype_str!r}"
            )
        dtype = np.dtype(dtype_str)
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        if any(dim < 0 for dim in shape) or nbytes != expected:
            raise ModelFormatError(f"{source} array {name!r} shape/nbytes mismatch")
        if offset < 0 or offset + nbytes > payload_size:
            raise ModelFormatError(f"{source} array {name!r} extends past the payload")
        arrays[name] = payload[offset : offset + nbytes].view(dtype).reshape(shape)

    profiles = _profiles_from(meta, lambda name: arrays[name], source)
    state = {
        key[len(_STATE_PREFIX) :]: value
        for key, value in arrays.items()
        if key.startswith(_STATE_PREFIX)
    }
    return _assemble_identifier(config, backend, profiles, state)
