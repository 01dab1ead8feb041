"""Fuzz/robustness tests for the flat ``model.bin`` artifact.

Every malformed input must surface as :class:`ModelFormatError` (which also
``isinstance``-checks as ``ValueError``), never as a raw NumPy / OS internal
error: zero-length files, truncations at arbitrary offsets, random bit-flips
anywhere in ``model.bin`` (header *or* payload — the payload CRC32 catches the
latter), hand-corrupted headers (bad magic, absurd header lengths, foreign
format tags, future versions, invalid configurations, broken array tables,
arrays pointing past EOF, unsupported dtypes), and ``.npz`` archives written
by earlier releases.

Round-trip identity: save → load → save → load must be bit-exact on the
persisted state (profiles and Bloom bit-vectors).
"""

import io
import json

import numpy as np
import pytest

from repro.api import ClassifierConfig, LanguageIdentifier
from repro.api.persistence import (
    FLAT_MAGIC,
    ModelFormatError,
    flat_model_bytes,
    load_model,
    load_model_from_buffer,
    save_model,
)
from repro.corpus.corpus import build_jrc_acquis_like


@pytest.fixture(scope="module")
def identifier():
    corpus = build_jrc_acquis_like(
        ["en", "fr", "es"], docs_per_language=8, words_per_document=150, seed=5
    )
    config = ClassifierConfig(m_bits=4 * 1024, k=4, t=900, seed=2)
    return LanguageIdentifier(config).train(corpus)


@pytest.fixture(scope="module")
def flat_blob(identifier):
    return flat_model_bytes(identifier)


def _expect_format_error(tmp_path, blob: bytes, name="model.bin", match=None):
    path = tmp_path / name
    path.write_bytes(blob)
    with pytest.raises(ModelFormatError, match=match):
        load_model(path)


# ------------------------------------------------------------------- round trips


class TestRoundTrips:
    def test_save_load_save_load_is_bit_exact(self, identifier, tmp_path):
        once = load_model(save_model(identifier, tmp_path / "a.bin"))
        twice_path = save_model(once, tmp_path / "b.bin")
        twice = load_model(twice_path)
        assert twice_path.read_bytes() == (tmp_path / "a.bin").read_bytes()

        reference = identifier.backend.export_state()
        for restored in (once, twice):
            state = restored.backend.export_state()
            assert np.array_equal(state["stacked_bits"], reference["stacked_bits"])
            assert np.array_equal(state["n_items"], reference["n_items"])
            for language, profile in identifier.profiles.items():
                assert np.array_equal(restored.profiles[language].ngrams, profile.ngrams)
                assert np.array_equal(restored.profiles[language].counts, profile.counts)

    def test_saving_over_a_loaded_artifact_leaves_it_intact(self, identifier, tmp_path):
        # the loaded model maps its file; a model of the same size saved to the
        # same path must not change the bytes it reads
        path = save_model(identifier, tmp_path / "model.bin")
        loaded = load_model(path)
        texts = [
            document.text
            for document in build_jrc_acquis_like(
                ["en", "fr", "es"], docs_per_language=2, words_per_document=60, seed=9
            ).documents
        ]
        before = [result.match_counts for result in loaded.classify_batch(texts)]
        bits_before = np.array(loaded.backend.export_state()["stacked_bits"])

        other = LanguageIdentifier(identifier.config.replace(seed=7))
        other.train_profiles(identifier.profiles)
        save_model(other, path)

        assert [result.match_counts for result in loaded.classify_batch(texts)] == before
        assert np.array_equal(loaded.backend.export_state()["stacked_bits"], bits_before)
        reloaded = load_model(path).backend.export_state()["stacked_bits"]
        assert np.array_equal(reloaded, other.backend.export_state()["stacked_bits"])
        assert not np.array_equal(reloaded, bits_before)
        assert [entry.name for entry in tmp_path.iterdir()] == ["model.bin"]

    def test_suffixless_save_load_round_trip(self, identifier, tmp_path):
        path = save_model(identifier, tmp_path / "noext")
        assert path == tmp_path / "noext"  # written verbatim, no suffix added
        assert load_model(tmp_path / "noext").languages == identifier.languages

    def test_unknown_format_rejected(self, identifier, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact format"):
            identifier.save(tmp_path / "x", format="tar")
        assert not (tmp_path / "x").exists()


# ------------------------------------------------------------------- flat fuzzing


class TestFlatCorruption:
    def test_zero_length_file(self, tmp_path):
        _expect_format_error(tmp_path, b"")

    def test_magic_only_file(self, tmp_path):
        _expect_format_error(tmp_path, FLAT_MAGIC)

    @pytest.mark.parametrize("fraction", [0.001, 0.01, 0.2, 0.5, 0.9, 0.999])
    def test_truncation_at_any_offset(self, flat_blob, tmp_path, fraction):
        cut = max(len(FLAT_MAGIC) + 1, int(len(flat_blob) * fraction))
        _expect_format_error(tmp_path, flat_blob[:cut], name=f"cut{fraction}.bin")

    def test_bit_flips_anywhere_raise_model_format_error(self, flat_blob, tmp_path):
        """Flip one bit at seeded offsets across the whole file — header bytes
        break parsing/validation, payload bytes break the CRC32."""
        rng = np.random.default_rng(77)
        offsets = sorted(int(o) for o in rng.integers(0, len(flat_blob), size=24))
        flipped_but_loaded = 0
        for offset in offsets:
            corrupt = bytearray(flat_blob)
            corrupt[offset] ^= 1 << int(rng.integers(8))
            path = tmp_path / f"flip{offset}.bin"
            path.write_bytes(bytes(corrupt))
            try:
                load_model(path)
                flipped_but_loaded += 1
            except ModelFormatError:
                pass
            except FileNotFoundError:
                raise
        # Every single-bit corruption must be caught (magic/header checks or CRC).
        assert flipped_but_loaded == 0

    def test_trailing_padding_is_tolerated(self, flat_blob, tmp_path):
        """Bytes past the declared payload must be ignored, so a buffer may be
        larger than the artifact it holds.  The CRC covers only the real
        payload."""
        path = tmp_path / "padded.bin"
        path.write_bytes(flat_blob + b"\x00" * 4096)
        assert load_model(path).is_trained
        # page-rounded buffer through the zero-copy loader too
        padded = memoryview(flat_blob + b"\xcc" * 512)
        assert load_model_from_buffer(padded).is_trained


def _rewrite_header(blob: bytes, mutate) -> bytes:
    """Apply ``mutate(header_dict)`` and re-serialise with a fixed-up preamble."""
    preamble = len(FLAT_MAGIC) + 8
    header_len = int.from_bytes(blob[len(FLAT_MAGIC) : preamble], "little")
    header = json.loads(blob[preamble : preamble + header_len].decode())
    payload_start = (preamble + header_len + 4095) // 4096 * 4096
    payload = blob[payload_start:]
    mutate(header)
    new_header = json.dumps(header, sort_keys=True).encode()
    new_start = (preamble + len(new_header) + 4095) // 4096 * 4096
    out = bytearray(new_start + len(payload))
    out[: len(FLAT_MAGIC)] = FLAT_MAGIC
    out[len(FLAT_MAGIC) : preamble] = len(new_header).to_bytes(8, "little")
    out[preamble : preamble + len(new_header)] = new_header
    out[new_start:] = payload
    return bytes(out)


class TestMismatchedHeaders:
    def test_wrong_magic(self, flat_blob, tmp_path):
        blob = b"NOTMAGIC" + flat_blob[len(FLAT_MAGIC) :]
        path = tmp_path / "magic.bin"
        path.write_bytes(blob)
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_absurd_header_length(self, flat_blob, tmp_path):
        blob = bytearray(flat_blob)
        blob[len(FLAT_MAGIC) : len(FLAT_MAGIC) + 8] = (1 << 40).to_bytes(8, "little")
        _expect_format_error(tmp_path, bytes(blob), name="len.bin")

    def test_header_not_json(self, flat_blob, tmp_path):
        preamble = len(FLAT_MAGIC) + 8
        blob = bytearray(flat_blob)
        blob[preamble : preamble + 4] = b"\xff\xfe\x00{"
        _expect_format_error(tmp_path, bytes(blob), name="json.bin")

    @pytest.mark.parametrize(
        "mutate, match",
        [
            pytest.param(
                lambda h: h["meta"].__setitem__("format", "other-model"),
                "format=",
                id="foreign-format",
            ),
            pytest.param(
                lambda h: h["meta"].__setitem__("version", 99),
                "newer than supported",
                id="future-version",
            ),
            pytest.param(
                lambda h: h["meta"]["config"].__setitem__("nonsense_key", 1),
                "unknown configuration keys",
                id="unknown-config-key",
            ),
            pytest.param(
                # artifacts from before rolling keys were removed stored a key mode
                lambda h: h["meta"]["config"].__setitem__("hash_mode", "packed"),
                "unknown configuration keys",
                id="hash-mode-config-key",
            ),
            pytest.param(
                lambda h: h["meta"]["config"].__setitem__("m_bits", 12345),  # not a power of 2
                "configuration",
                id="invalid-config-value",
            ),
            pytest.param(
                lambda h: h["meta"]["config"].__setitem__("k", 0),
                "configuration",
                id="invalid-stored-config",
            ),
            pytest.param(
                lambda h: h["arrays"].pop(f"profiles/{h['meta']['languages'][0]}/ngrams"),
                "profile",
                id="missing-profile-ngrams",
            ),
            pytest.param(
                lambda h: h.__setitem__("arrays", "not-a-table"), None, id="broken-array-table"
            ),
            pytest.param(lambda h: h.pop("container"), None, id="missing-container-tag"),
            pytest.param(lambda h: h["meta"].pop("languages"), None, id="missing-languages"),
        ],
    )
    def test_header_mutations_raise_model_format_error(
        self, flat_blob, tmp_path, mutate, match
    ):
        _expect_format_error(
            tmp_path, _rewrite_header(flat_blob, mutate), name="mut2.bin", match=match
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            # wrong-typed JSON values must not leak raw TypeError
            lambda h: h["meta"].__setitem__("version", [1]),
            lambda h: h["meta"].__setitem__("profile_params", {"en": "oops"}),
            lambda h: h["meta"].__setitem__("languages", 17),
            lambda h: h["meta"].__setitem__(
                "profile_params",
                {lang: {"n": "four", "t": 5} for lang in h["meta"]["languages"]},
            ),
        ],
        ids=["version-list", "profile-params-string", "languages-int", "n-not-numeric"],
    )
    def test_header_mutations(self, flat_blob, tmp_path, mutate):
        _expect_format_error(tmp_path, _rewrite_header(flat_blob, mutate), name="mut.bin")

    def test_array_extending_past_payload(self, flat_blob, tmp_path):
        def mutate(header):
            name = next(iter(header["arrays"]))
            header["arrays"][name]["offset"] = header["payload_size"]

        _expect_format_error(tmp_path, _rewrite_header(flat_blob, mutate), name="oob.bin")

    def test_unsupported_dtype_rejected(self, flat_blob, tmp_path):
        def mutate(header):
            name = next(iter(header["arrays"]))
            header["arrays"][name]["dtype"] = "|O"

        _expect_format_error(tmp_path, _rewrite_header(flat_blob, mutate), name="dtype.bin")

    def test_shape_nbytes_mismatch_rejected(self, flat_blob, tmp_path):
        def mutate(header):
            name = next(iter(header["arrays"]))
            header["arrays"][name]["shape"] = [1]

        _expect_format_error(tmp_path, _rewrite_header(flat_blob, mutate), name="shape.bin")

    def test_crc_must_cover_payload(self, flat_blob, tmp_path):
        # a header whose CRC field is "fixed up" after a payload edit must be
        # caught by the recomputation (sanity check on the test helper itself)
        def mutate(header):
            header["payload_crc32"] = (header["payload_crc32"] + 1) % (1 << 32)

        _expect_format_error(tmp_path, _rewrite_header(flat_blob, mutate), name="crc.bin")

    def test_buffer_loader_rejects_short_buffers(self):
        with pytest.raises(ModelFormatError):
            load_model_from_buffer(memoryview(b"tiny"))

    def test_buffer_loader_validates_crc(self, flat_blob):
        corrupt = bytearray(flat_blob)
        corrupt[-1] ^= 0xFF
        with pytest.raises(ModelFormatError):
            load_model_from_buffer(memoryview(bytes(corrupt)))


# ------------------------------------------------------------------- legacy .npz inputs


def _npz_archive(identifier) -> bytes:
    """An ``np.savez`` archive shaped like the ``.npz`` artifacts of earlier releases."""
    buffer = io.BytesIO()
    arrays = {"meta": np.asarray(json.dumps({"format": "repro-langid-model", "version": 1}))}
    for language, profile in identifier.profiles.items():
        arrays[f"profiles/{language}/ngrams"] = profile.ngrams
        arrays[f"profiles/{language}/counts"] = profile.counts
    np.savez(buffer, **arrays)
    return buffer.getvalue()


class TestNpzCorruption:
    """``.npz`` files — earlier releases' container — fail cleanly, never as a zip error."""

    def test_zero_length_npz(self, tmp_path):
        _expect_format_error(tmp_path, b"", name="empty.npz")

    def test_npz_archive_rejected(self, identifier, tmp_path):
        _expect_format_error(tmp_path, _npz_archive(identifier), name="old.npz", match="magic")

    def test_truncated_npz(self, identifier, tmp_path):
        blob = _npz_archive(identifier)
        _expect_format_error(tmp_path, blob[: len(blob) // 2], name="trunc.npz")

    def test_random_bytes_npz(self, tmp_path):
        rng = np.random.default_rng(3)
        _expect_format_error(tmp_path, rng.bytes(4096), name="rand.npz")

    def test_model_format_error_is_a_value_error(self):
        assert issubclass(ModelFormatError, ValueError)
