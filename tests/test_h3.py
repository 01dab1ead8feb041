"""Unit tests for the H3 hash family."""

import tracemalloc

import numpy as np
import pytest

from repro.hashes.base import HashFamily
from repro.hashes.h3 import H3Family, H3Hash


class TestH3Hash:
    def test_output_range(self):
        h = H3Hash(key_bits=20, out_bits=14, seed=1)
        keys = np.arange(1000, dtype=np.uint64)
        values = h.hash_array(keys)
        assert int(values.max()) < (1 << 14)

    def test_deterministic_for_same_seed(self):
        a = H3Hash(20, 12, seed=7)
        b = H3Hash(20, 12, seed=7)
        keys = np.arange(500, dtype=np.uint64)
        assert np.array_equal(a.hash_array(keys), b.hash_array(keys))

    def test_different_seeds_differ(self):
        a = H3Hash(20, 12, seed=1)
        b = H3Hash(20, 12, seed=2)
        keys = np.arange(500, dtype=np.uint64)
        assert not np.array_equal(a.hash_array(keys), b.hash_array(keys))

    def test_zero_key_hashes_to_zero(self):
        # XOR of no matrix rows is 0 — a defining property of H3
        h = H3Hash(20, 14, seed=3)
        assert h.hash_scalar(0) == 0

    def test_linearity_over_xor(self):
        # H3 is linear: h(x ^ y) == h(x) ^ h(y)
        h = H3Hash(20, 14, seed=5)
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 1 << 20, size=50, dtype=np.uint64)
        ys = rng.integers(0, 1 << 20, size=50, dtype=np.uint64)
        left = h.hash_array(xs ^ ys)
        right = h.hash_array(xs) ^ h.hash_array(ys)
        assert np.array_equal(left, right)

    def test_single_bit_keys_return_matrix_rows(self):
        h = H3Hash(20, 14, seed=11)
        matrix = h.matrix
        for bit in range(20):
            assert h.hash_scalar(1 << bit) == int(matrix[bit])

    def test_chunked_matches_bit_serial_reference(self):
        h = H3Hash(key_bits=20, out_bits=14, seed=21, chunk_bits=8)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 1 << 20, size=200, dtype=np.uint64)
        vectorized = h.hash_array(keys)
        reference = np.asarray([h.hash_scalar_reference(int(k)) for k in keys], dtype=np.uint64)
        assert np.array_equal(vectorized, reference)

    def test_keys_with_the_top_bit_set_match_the_bit_serial_reference(self):
        # chunks are shifted as int64, whose shift fills the top with ones;
        # the mask must drop every filled bit, down to a one-bit last chunk
        h = H3Hash(key_bits=64, out_bits=14, seed=21, chunk_bits=7)
        keys = np.random.default_rng(3).integers(0, 2**64 - 1, 200, np.uint64, endpoint=True)
        keys[:3] = [2**64 - 1, 2**63, 2**63 - 1]
        reference = [h.hash_scalar_reference(int(key)) for key in keys]
        assert h.hash_array(keys).tolist() == reference

    def test_hash_array_holds_two_key_sized_arrays(self):
        # the result and one reused index buffer, which the gather overwrites
        h = H3Hash(key_bits=20, out_bits=14, seed=5)
        keys = np.random.default_rng(2).integers(0, 1 << 20, 200_000, dtype=np.uint64)
        tracemalloc.start()
        try:
            h.hash_array(keys)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * keys.nbytes

    def test_chunk_width_does_not_change_results(self):
        keys = np.arange(2048, dtype=np.uint64)
        h4 = H3Hash(20, 13, seed=9, chunk_bits=4)
        h8 = H3Hash(20, 13, seed=9, chunk_bits=8)
        h16 = H3Hash(20, 13, seed=9, chunk_bits=16)
        assert np.array_equal(h4.hash_array(keys), h8.hash_array(keys))
        assert np.array_equal(h8.hash_array(keys), h16.hash_array(keys))

    def test_scalar_matches_array(self):
        h = H3Hash(20, 12, seed=2)
        keys = np.asarray([13, 77, 1 << 19], dtype=np.uint64)
        array_values = h.hash_array(keys)
        for key, value in zip(keys, array_values):
            assert h.hash_scalar(int(key)) == int(value)

    def test_call_operator(self):
        h = H3Hash(20, 12, seed=2)
        assert h(123) == h.hash_scalar(123)

    def test_rejects_key_out_of_range(self):
        h = H3Hash(key_bits=8, out_bits=8, seed=0)
        with pytest.raises(ValueError):
            h.hash_array(np.asarray([256], dtype=np.uint64))

    def test_distribution_is_roughly_uniform(self):
        h = H3Hash(20, 10, seed=42)
        keys = np.arange(1 << 16, dtype=np.uint64)
        values = h.hash_array(keys)
        counts = np.bincount(values.astype(np.int64), minlength=1 << 10)
        # every bucket of the 1024-bucket space should be hit for 65536 uniform keys
        assert counts.min() > 0
        assert counts.max() < 4 * counts.mean()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            H3Hash(0, 10, seed=1)
        with pytest.raises(ValueError):
            H3Hash(20, 0, seed=1)
        with pytest.raises(ValueError):
            H3Hash(20, 64, seed=1)
        with pytest.raises(ValueError):
            H3Hash(20, 10, seed=1, chunk_bits=0)

    def test_out_size(self):
        assert H3Hash(20, 14, seed=0).out_size == 1 << 14


class TestH3Family:
    def test_family_size(self):
        family = H3Family(k=4, key_bits=20, out_bits=14, seed=0)
        assert len(family) == 4
        assert family.k == 4

    def test_members_are_independent(self):
        family = H3Family(k=3, key_bits=20, out_bits=14, seed=5)
        keys = np.arange(1000, dtype=np.uint64)
        h0 = family[0].hash_array(keys)
        h1 = family[1].hash_array(keys)
        assert not np.array_equal(h0, h1)

    def test_hash_all_shape(self):
        family = H3Family(k=5, key_bits=20, out_bits=12, seed=1)
        keys = np.arange(64, dtype=np.uint64)
        assert family.hash_all(keys).shape == (5, 64)

    def test_hash_all_matches_members(self):
        family = H3Family(k=3, key_bits=20, out_bits=12, seed=1)
        keys = np.arange(64, dtype=np.uint64)
        stacked = family.hash_all(keys)
        for i, member in enumerate(family):
            assert np.array_equal(stacked[i], member.hash_array(keys))

    def test_deterministic_family(self):
        keys = np.arange(128, dtype=np.uint64)
        a = H3Family(k=4, key_bits=20, out_bits=14, seed=99).hash_all(keys)
        b = H3Family(k=4, key_bits=20, out_bits=14, seed=99).hash_all(keys)
        assert np.array_equal(a, b)

    def test_requires_positive_k(self):
        with pytest.raises(ValueError):
            H3Family(k=0, key_bits=20, out_bits=14)

    def test_family_validates_widths(self):
        a = H3Hash(20, 14, seed=0)
        b = H3Hash(20, 12, seed=1)
        with pytest.raises(ValueError):
            HashFamily([a, b])

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            HashFamily([])
