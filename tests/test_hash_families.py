"""Unit tests for the alternative hash families and the family factory."""

import numpy as np
import pytest

from repro.hashes.families import (
    FNV1aHash,
    MultiplyShiftHash,
    TabulationHash,
    make_hash_family,
)
from repro.hashes.h3 import H3Family, H3Hash

ALL_CLASSES = [MultiplyShiftHash, FNV1aHash, TabulationHash]


@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestCommonBehaviour:
    def test_output_range(self, cls):
        h = cls(key_bits=20, out_bits=14, seed=3)
        keys = np.arange(5000, dtype=np.uint64)
        assert int(h.hash_array(keys).max()) < (1 << 14)

    def test_deterministic(self, cls):
        keys = np.arange(256, dtype=np.uint64)
        assert np.array_equal(
            cls(20, 12, seed=5).hash_array(keys), cls(20, 12, seed=5).hash_array(keys)
        )

    def test_seed_sensitivity(self, cls):
        keys = np.arange(256, dtype=np.uint64)
        assert not np.array_equal(
            cls(20, 12, seed=1).hash_array(keys), cls(20, 12, seed=2).hash_array(keys)
        )

    def test_scalar_matches_array(self, cls):
        h = cls(20, 12, seed=9)
        keys = np.asarray([0, 1, 77, (1 << 20) - 1], dtype=np.uint64)
        values = h.hash_array(keys)
        for key, value in zip(keys, values):
            assert h.hash_scalar(int(key)) == int(value)

    def test_rejects_oversized_keys(self, cls):
        h = cls(key_bits=10, out_bits=8, seed=0)
        with pytest.raises(ValueError):
            h.hash_array(np.asarray([1 << 12], dtype=np.uint64))

    def test_reasonable_spread(self, cls):
        h = cls(20, 10, seed=17)
        keys = np.arange(1 << 14, dtype=np.uint64)
        values = h.hash_array(keys)
        distinct = np.unique(values).size
        assert distinct > (1 << 10) * 0.6


@pytest.mark.parametrize("cls", [H3Hash, *ALL_CLASSES])
@pytest.mark.parametrize("block_bits", [0, 5, 12, 20])
def test_key_space_enumeration_hashes_every_key_in_order(cls, block_bits):
    h = cls(key_bits=12, out_bits=10, seed=4)
    blocks = list(h.hash_key_space(block_bits))
    assert len(blocks) == 1 << (12 - min(block_bits, 12))
    np.testing.assert_array_equal(
        np.concatenate(blocks), h.hash_array(np.arange(1 << 12, dtype=np.uint64))
    )


class TestMakeHashFamily:
    def test_h3_family(self):
        family = make_hash_family("h3", k=4, key_bits=20, out_bits=14, seed=1)
        assert isinstance(family, H3Family)
        assert family.k == 4

    @pytest.mark.parametrize("name", ["multiply-shift", "fnv1a", "tabulation"])
    def test_other_families(self, name):
        family = make_hash_family(name, k=3, key_bits=20, out_bits=12, seed=2)
        assert family.k == 3
        keys = np.arange(100, dtype=np.uint64)
        assert family.hash_all(keys).shape == (3, 100)

    def test_family_members_differ(self):
        family = make_hash_family("tabulation", k=2, key_bits=20, out_bits=12, seed=0)
        keys = np.arange(512, dtype=np.uint64)
        assert not np.array_equal(family[0].hash_array(keys), family[1].hash_array(keys))

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown hash family"):
            make_hash_family("sha256", k=2, key_bits=20, out_bits=12)

    def test_case_insensitive_names(self):
        family = make_hash_family("FNV1A", k=2, key_bits=20, out_bits=10, seed=0)
        assert family.k == 2
