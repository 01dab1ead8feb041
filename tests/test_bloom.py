"""Unit tests for the classic and Parallel Bloom filters."""

import numpy as np
import pytest

from repro.core.bloom import BloomFilter, ParallelBloomFilter
from repro.hashes.h3 import H3Family


def _keys(count: int, seed: int = 0, key_bits: int = 20) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 1 << key_bits, size=count, dtype=np.uint64)


@pytest.mark.parametrize("cls", [BloomFilter, ParallelBloomFilter])
class TestCommonFilterBehaviour:
    def test_no_false_negatives(self, cls):
        filt = cls(m_bits=4096, k=3, seed=1)
        keys = np.unique(_keys(2000, seed=2))
        filt.add_many(keys)
        assert filt.contains_many(keys).all()

    def test_empty_filter_rejects_everything(self, cls):
        filt = cls(m_bits=4096, k=3, seed=1)
        assert not filt.contains_many(_keys(500, seed=3)).any()

    def test_scalar_add_and_contains(self, cls):
        filt = cls(m_bits=1024, k=2, seed=0)
        filt.add(12345)
        assert filt.contains(12345)
        assert 12345 in filt

    def test_len_counts_programmed_items(self, cls):
        filt = cls(m_bits=1024, k=2, seed=0)
        filt.add_many(np.asarray([1, 2, 3], dtype=np.uint64))
        assert len(filt) == 3

    def test_clear_resets(self, cls):
        filt = cls(m_bits=1024, k=2, seed=0)
        filt.add_many(_keys(100, seed=4))
        filt.clear()
        assert len(filt) == 0
        assert filt.fill_ratio == 0.0
        assert not filt.contains_many(_keys(100, seed=4)).all()

    def test_empty_query(self, cls):
        filt = cls(m_bits=1024, k=2, seed=0)
        assert filt.contains_many(np.empty(0, dtype=np.uint64)).size == 0

    def test_add_empty_is_noop(self, cls):
        filt = cls(m_bits=1024, k=2, seed=0)
        filt.add_many(np.empty(0, dtype=np.uint64))
        assert len(filt) == 0

    def test_m_bits_must_be_power_of_two(self, cls):
        with pytest.raises(ValueError):
            cls(m_bits=1000, k=2)

    def test_k_must_be_positive(self, cls):
        with pytest.raises(ValueError):
            cls(m_bits=1024, k=0)

    def test_deterministic_across_instances(self, cls):
        keys = _keys(300, seed=9)
        probes = _keys(300, seed=10)
        a = cls(m_bits=2048, k=3, seed=5)
        b = cls(m_bits=2048, k=3, seed=5)
        a.add_many(keys)
        b.add_many(keys)
        assert np.array_equal(a.contains_many(probes), b.contains_many(probes))

    def test_fill_ratio_grows(self, cls):
        filt = cls(m_bits=2048, k=3, seed=5)
        filt.add_many(_keys(50, seed=1))
        low = filt.fill_ratio
        filt.add_many(_keys(500, seed=2))
        assert filt.fill_ratio > low

    def test_rejects_mismatched_hash_family(self, cls):
        family = H3Family(k=3, key_bits=20, out_bits=10, seed=0)  # addresses 1024 bits
        with pytest.raises(ValueError):
            cls(m_bits=4096, k=3, hashes=family)

    def test_rejects_wrong_k_hash_family(self, cls):
        family = H3Family(k=2, key_bits=20, out_bits=12, seed=0)
        with pytest.raises(ValueError):
            cls(m_bits=4096, k=3, hashes=family)


class TestParallelBloomFilter:
    def test_bit_vectors_shape(self):
        filt = ParallelBloomFilter(m_bits=2048, k=5, seed=0)
        assert filt.bit_vectors.shape == (5, 2048)

    def test_total_bits(self):
        filt = ParallelBloomFilter(m_bits=4096, k=6, seed=0)
        assert filt.total_bits == 6 * 4096
        assert filt.memory_kbits == 24.0

    def test_each_insert_sets_at_most_k_bits(self):
        filt = ParallelBloomFilter(m_bits=4096, k=4, seed=0)
        filt.add(777)
        assert filt.bit_vectors.sum() <= 4
        # one bit per vector
        assert (filt.bit_vectors.sum(axis=1) == 1).all()

    def test_match_requires_all_vectors(self):
        filt = ParallelBloomFilter(m_bits=4096, k=4, seed=3)
        filt.add(100)
        bits = filt._bits
        address = int(filt.hashes[0].hash_scalar(100))
        bits[0, address] = False  # knock out one vector's bit
        assert not filt.contains(100)

    def test_match_count(self):
        filt = ParallelBloomFilter(m_bits=8192, k=4, seed=1)
        members = np.unique(_keys(100, seed=5))
        filt.add_many(members)
        stream = np.concatenate([members, members])  # duplicates counted with multiplicity
        assert filt.match_count(stream) >= 2 * members.size

    def test_measured_fpr_close_to_model(self):
        filt = ParallelBloomFilter(m_bits=4096, k=2, seed=7)
        members = np.unique(_keys(3000, seed=11))
        filt.add_many(members)
        probes = _keys(30000, seed=13)
        probes = probes[~np.isin(probes, members)]
        measured = float(filt.contains_many(probes).mean())
        expected = filt.expected_fpr(members.size)
        assert measured == pytest.approx(expected, rel=0.15)

    def test_fill_ratios_per_vector(self):
        filt = ParallelBloomFilter(m_bits=1024, k=3, seed=0)
        filt.add_many(np.unique(_keys(200, seed=1)))
        ratios = filt.fill_ratios
        assert ratios.shape == (3,)
        assert (ratios > 0).all()

    def test_from_items_deduplicates(self):
        keys = np.asarray([5, 5, 5, 9], dtype=np.uint64)
        filt = ParallelBloomFilter.from_items(keys, m_bits=1024, k=2, seed=0)
        assert len(filt) == 2

    def test_expected_fpr_uses_programmed_count_by_default(self):
        filt = ParallelBloomFilter(m_bits=4096, k=3, seed=0)
        filt.add_many(np.unique(_keys(500, seed=3)))
        assert filt.expected_fpr() == pytest.approx(filt.expected_fpr(len(filt)))


class TestClassicBloomFilter:
    def test_single_shared_vector(self):
        filt = BloomFilter(m_bits=2048, k=4, seed=0)
        assert filt.bit_vector.shape == (2048,)
        assert filt.total_bits == 2048

    def test_insert_sets_up_to_k_bits_in_shared_vector(self):
        filt = BloomFilter(m_bits=4096, k=4, seed=0)
        filt.add(4242)
        assert 1 <= filt.bit_vector.sum() <= 4

    def test_higher_fill_than_parallel_for_same_m(self):
        keys = np.unique(_keys(2000, seed=6))
        classic = BloomFilter(m_bits=4096, k=4, seed=1)
        parallel = ParallelBloomFilter(m_bits=4096, k=4, seed=1)
        classic.add_many(keys)
        parallel.add_many(keys)
        assert classic.fill_ratio > parallel.fill_ratio

    def test_to_arrays_kind(self):
        assert BloomFilter(m_bits=1024, k=2).to_arrays()["kind"] == "classic"
