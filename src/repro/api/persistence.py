"""Versioned model artifacts: save/load a trained :class:`LanguageIdentifier`.

Two containers carry the same logical payload (metadata + per-language profile
arrays + backend state):

``.npz`` (``format="npz"``)
    A compressed NumPy archive holding

    * ``meta`` — a JSON document with the artifact format name and version, the
      full :class:`~repro.api.config.ClassifierConfig`, and the language order;
    * ``profiles/<lang>/ngrams`` and ``profiles/<lang>/counts`` — the
      per-language profile arrays (packed n-gram values + training counts);
    * ``state/<key>`` — backend-specific arrays from
      :meth:`~repro.api.registry.Backend.export_state` (for the ``bloom``
      backend, the packed per-language bit-vectors, so loading needs no
      re-programming).

``flat`` (``model.bin``, ``format="flat"``)
    A flat, page-aligned, ``np.memmap``-able container built for zero-copy
    sharing: an 8-byte magic, a little-endian uint64 header length, a JSON
    header (metadata + array table + payload CRC32), zero padding to the next
    page boundary, then every array's raw bytes with each array starting on a
    :data:`FLAT_ALIGN` boundary.  Array offsets are relative to the payload
    start, so the header can be generated before the payload is laid out.  The
    ``bloom`` backend stores its bit-vectors *unpacked* (one byte per bit, the
    ``(k, languages, m_bits)`` stacked hot-path layout), so a read-only
    ``np.memmap`` — or a ``multiprocessing.shared_memory`` segment holding the
    same bytes — can back the live filters directly: N worker processes share
    one physical copy of the model (see :class:`repro.serve.shared_model.SharedModel`).

Nothing is pickled: metadata is JSON in both containers, so artifacts are
loadable with ``allow_pickle=False`` and are safe to exchange.
:func:`load_model` sniffs the container from the file's leading bytes, so
callers never need to say which format they were handed.
"""

from __future__ import annotations

import hashlib
import json
import zipfile
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
    :func:`load_model` (bad zip container, missing metadata or arrays, wrong
    format tag, unsupported version, undecodable configuration, flat-container
    corruption caught by bounds checks or the payload checksum) instead of
    letting NumPy's ``KeyError``/``ValueError``/OS internals leak through.
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


# --------------------------------------------------------------------- shared pieces


def model_fingerprint(identifier) -> bytes:
    """128-bit digest identifying a trained model's exact behaviour.

    Covers the full :class:`~repro.api.config.ClassifierConfig` (n-gram order,
    Bloom geometry, hash family, seed, backend, ...) and every language's
    profile arrays in training order.  Backends are deterministic functions of
    ``(config, profiles)``, so two identifiers with equal fingerprints return
    identical results for every document.  This is the identity the serving
    cache keys on and the versioned model registry records in its manifests.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(json.dumps(identifier.config.to_dict(), sort_keys=True).encode("utf-8"))
    for language in identifier.languages:
        profile = identifier.profiles[language]
        digest.update(language.encode("utf-8", "surrogatepass"))
        digest.update(np.ascontiguousarray(profile.ngrams).tobytes())
        digest.update(np.ascontiguousarray(profile.counts).tobytes())
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
    stored = meta.get("config")
    if isinstance(stored, dict) and "hash_mode" in stored:
        # artifacts written before rolling keys were removed carry a key mode;
        # "auto" and "packed" both meant today's packed keys
        stored = dict(stored)
        mode = stored.pop("hash_mode")
        if mode not in ("auto", "packed"):
            raise ModelFormatError(
                f"{source} uses hash_mode={mode!r}; rolling n-gram keys are no longer supported"
            )
    try:
        return ClassifierConfig.from_dict(stored)
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


def _assemble_identifier(config, stored_backend, backend, profiles, state, shared: bool):
    """Build the identifier, reusing persisted backend state when it still applies."""
    from repro.api.identifier import LanguageIdentifier

    if backend is not None and backend != stored_backend:
        config = config.replace(backend=backend)
    identifier = LanguageIdentifier(config)
    if state and config.backend == stored_backend:
        if shared:
            identifier.backend.import_shared_state(profiles, state)
        else:
            identifier.backend.import_state(profiles, state)
    else:
        identifier.train_profiles(profiles)
    return identifier


# --------------------------------------------------------------------- saving


def save_model(identifier, path: str | Path, format: str = "npz") -> Path:
    """Serialise a trained identifier to ``path``.

    ``format="npz"`` writes the compressed archive (``.npz`` appended if the
    path has no matching suffix); ``format="flat"`` writes the page-aligned
    memmap-able container (``.bin`` appended likewise).  Both carry the same
    logical payload and round-trip bit-exactly through :func:`load_model`.
    """
    if not identifier.is_trained:
        raise RuntimeError("cannot save an untrained identifier; call train() first")
    if format == "npz":
        return _save_npz(identifier, Path(path))
    if format == "flat":
        return _save_flat(identifier, Path(path))
    raise ValueError(f"unknown artifact format {format!r}; choose 'npz' or 'flat'")


def _save_npz(identifier, path: Path) -> Path:
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    arrays: dict[str, np.ndarray] = {"meta": np.asarray(json.dumps(_build_meta(identifier)))}
    for language, profile in identifier.profiles.items():
        arrays[f"{_PROFILE_PREFIX}{language}/ngrams"] = profile.ngrams
        arrays[f"{_PROFILE_PREFIX}{language}/counts"] = profile.counts
    for key, value in identifier.backend.export_state().items():
        arrays[f"{_STATE_PREFIX}{key}"] = np.asarray(value)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    return path


def _save_flat(identifier, path: Path) -> Path:
    if path.suffix != ".bin":
        path = path.with_suffix(path.suffix + ".bin")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(flat_model_bytes(identifier))
    return path


def _align(value: int) -> int:
    return (value + FLAT_ALIGN - 1) // FLAT_ALIGN * FLAT_ALIGN


def flat_model_bytes(identifier) -> bytearray:
    """The complete flat-container serialisation of a trained identifier.

    This is exactly what ``save_model(..., format="flat")`` writes to disk;
    :class:`repro.serve.shared_model.SharedModel` copies the same bytes into a
    ``multiprocessing.shared_memory`` segment, so the one parser
    (:func:`load_model_from_buffer`) serves files and segments alike.

    The bloom state is deliberately unpacked (8x the ``.npz`` size), so the
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
    for key, value in identifier.backend.export_shared_state().items():
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
    """Load an artifact written by :func:`save_model` (either container).

    Parameters
    ----------
    path:
        Artifact file path.  The container is sniffed from the file's leading
        bytes: :data:`FLAT_MAGIC` selects the flat memmap parser, anything
        else goes through the ``.npz`` reader.
    backend:
        Optional backend-name override; the stored profiles are re-programmed
        into the requested engine.  Persisted backend state is only reused when
        the stored and requested backends match.

    Raises
    ------
    FileNotFoundError
        If no artifact exists at ``path``.
    ModelFormatError
        If the file is not a valid artifact: corrupt/truncated container,
        missing metadata or profile arrays, foreign format tag, version newer
        than this library supports, failed payload checksum, or undecodable
        configuration.
    """
    path = Path(path)
    # save_model appends .npz/.bin to suffix-less paths; accept the same
    # spellings here so save("model") / load("model") round-trips.
    if not path.exists() and path.suffix not in (".npz", ".bin"):
        for suffix in (".npz", ".bin"):
            candidate = path.with_suffix(path.suffix + suffix)
            if candidate.exists():
                path = candidate
                break
    try:
        with path.open("rb") as handle:
            leading = handle.read(len(FLAT_MAGIC))
    except IsADirectoryError as exc:
        raise ModelFormatError(f"{path} is a directory, not a model artifact") from exc
    if leading == FLAT_MAGIC:
        return _load_flat(path, backend=backend)
    return _load_npz(path, backend=backend)


def _load_npz(path: Path, backend: str | None):
    try:
        with np.load(path, allow_pickle=False) as archive:
            if "meta" not in archive:
                raise ModelFormatError(
                    f"{path} is not a {ARTIFACT_FORMAT} artifact (no metadata)"
                )
            try:
                meta = json.loads(str(archive["meta"]))
            except json.JSONDecodeError as exc:
                raise ModelFormatError(f"{path} has undecodable metadata: {exc}") from exc
            config = _validate_meta(meta, str(path))
            profiles = _profiles_from(meta, lambda name: archive[name], str(path))
            state = {
                key[len(_STATE_PREFIX) :]: archive[key]
                for key in archive.files
                if key.startswith(_STATE_PREFIX)
            }
    except ModelFormatError:
        raise
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, EOFError, OSError, ValueError, KeyError) as exc:
        # np.load and lazy member reads surface container corruption through a
        # grab-bag of exception types; normalise them all.
        raise ModelFormatError(f"{path} is not a readable .npz model artifact: {exc}") from exc
    return _assemble_identifier(config, config.backend, backend, profiles, state, shared=False)


def _load_flat(path: Path, backend: str | None):
    try:
        buffer = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise ModelFormatError(f"{path} is not a readable flat model artifact: {exc}") from exc
    return load_model_from_buffer(buffer, source=str(path), backend=backend)


def load_model_from_buffer(
    buffer,
    source: str = "<buffer>",
    backend: str | None = None,
    verify: bool = True,
):
    """Open a flat-container artifact held in any byte buffer, zero-copy.

    ``buffer`` is anything :func:`np.frombuffer` accepts — a read-only
    ``np.memmap`` of ``model.bin``, or the ``buf`` of a
    ``multiprocessing.shared_memory`` segment.  Arrays inside the returned
    identifier are read-only *views* of that buffer: for the ``bloom``
    backend, the live bit-vectors address the buffer's bytes directly, so
    every process that maps the same bytes shares one physical model copy.
    The buffer must outlive the identifier.

    ``verify=False`` skips the payload CRC32 pass (header and bounds checks
    still run).  File loads keep the default — corruption detection is the
    point — but trusted re-opens of bytes this process tree just wrote and
    checked (N workers attaching one shared-memory segment) use it to avoid N
    redundant full passes over the unpacked bit-vectors, and to keep an mmap
    load lazy instead of paging the whole artifact in up front.

    Raises :class:`ModelFormatError` for every malformed input: short or
    truncated buffers, wrong magic, undecodable or mismatched headers, array
    table entries out of bounds, unsupported dtypes, or (when verifying) a
    payload that fails its CRC32.
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
    # from the CRC): shared-memory segments are page-rounded on some
    # platforms, so the buffer may be slightly larger than the artifact.
    if payload_start + payload_size > data.size:
        raise ModelFormatError(
            f"{source} payload is {max(data.size - payload_start, 0)} bytes, header "
            f"claims {payload_size} (truncated artifact?)"
        )
    payload = data[payload_start : payload_start + payload_size]
    if verify and zlib.crc32(payload) != header.get("payload_crc32"):
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
    return _assemble_identifier(config, config.backend, backend, profiles, state, shared=True)
