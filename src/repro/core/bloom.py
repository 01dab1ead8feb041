"""Bloom filters: the classic single-vector filter and the Parallel Bloom Filter.

Section 3.1 of the paper.  The *Parallel Bloom Filter* (Krishnamurthy et al.) gives
each of the ``k`` hash functions its own independent ``m``-bit vector, which maps
directly onto distributed embedded RAM blocks on the FPGA: every vector can be
probed in the same clock cycle because it lives in its own physical memory.

Both filters share the same public interface:

* :meth:`add` / :meth:`add_many` — program items ("set" operation in the paper),
* :meth:`contains` / :meth:`contains_many` — membership test ("test" operation),
* :meth:`clear` — reset the bit-vector(s),
* ``in`` operator support and introspection helpers (fill ratio, expected FPR).

Keys are integers (packed n-grams); hashing is delegated to a
:class:`repro.hashes.base.HashFamily`, H3 by default.

Every filter owns its writable bit-vectors.  These classes are the Section 3.1
reference: tests compare the ``bloom`` backend's stacked bit store
(:attr:`repro.api.backends.BloomBackend.bits`) against independently programmed
filters, and the ``hw-sim`` engine is programmed from them.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import fpr as fpr_model
from repro.hashes.base import HashFamily
from repro.hashes.h3 import H3Family

__all__ = ["BloomFilter", "ParallelBloomFilter"]


def _check_power_of_two(m_bits: int) -> int:
    if m_bits <= 0:
        raise ValueError("m_bits must be positive")
    if m_bits & (m_bits - 1):
        raise ValueError(
            f"m_bits must be a power of two so hash outputs can address it directly "
            f"(got {m_bits})"
        )
    return m_bits


class _BloomBase:
    """Shared plumbing for both filter organisations."""

    def __init__(
        self,
        m_bits: int,
        k: int,
        key_bits: int,
        hashes: HashFamily | None,
        seed: int,
    ):
        self.m_bits = _check_power_of_two(int(m_bits))
        self.out_bits = int(math.log2(self.m_bits))
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self.key_bits = int(key_bits)
        if hashes is None:
            hashes = H3Family(k=self.k, key_bits=self.key_bits, out_bits=self.out_bits, seed=seed)
        if len(hashes) != self.k:
            raise ValueError(f"hash family has {len(hashes)} functions, expected k={self.k}")
        if hashes.out_bits != self.out_bits:
            raise ValueError(
                f"hash family produces {hashes.out_bits}-bit addresses but the bit-vector "
                f"needs {self.out_bits}-bit addresses"
            )
        if hashes.key_bits != self.key_bits:
            raise ValueError(
                f"hash family expects {hashes.key_bits}-bit keys, filter configured "
                f"for {self.key_bits}-bit keys"
            )
        self.hashes = hashes
        self.n_items = 0

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        """Number of items programmed since the last :meth:`clear`."""
        return self.n_items

    def __contains__(self, key: int) -> bool:
        return self.contains(int(key))

    def contains(self, key: int) -> bool:
        """Test a single key (scalar convenience around :meth:`contains_many`)."""
        return bool(self.contains_many(np.asarray([key], dtype=np.uint64))[0])

    def add(self, key: int) -> None:
        """Program a single key (scalar convenience around :meth:`add_many`)."""
        self.add_many(np.asarray([key], dtype=np.uint64))

    # subclasses implement: add_many, contains_many, clear, fill_ratio, expected_fpr


class BloomFilter(_BloomBase):
    """Classic Bloom filter: one shared ``m``-bit vector addressed by all ``k`` hashes.

    Included for completeness and for the organisation-comparison ablation; the
    paper's hardware uses :class:`ParallelBloomFilter`.
    """

    def __init__(
        self,
        m_bits: int,
        k: int,
        key_bits: int = 20,
        hashes: HashFamily | None = None,
        seed: int = 0,
    ):
        super().__init__(m_bits=m_bits, k=k, key_bits=key_bits, hashes=hashes, seed=seed)
        self._bits = np.zeros(self.m_bits, dtype=bool)

    @property
    def bit_vector(self) -> np.ndarray:
        """Copy of the underlying bit-vector (boolean array of length ``m_bits``)."""
        return self._bits.copy()

    def clear(self) -> None:
        """Reset the bit-vector to all zeros and forget the programmed count."""
        self._bits[:] = False
        self.n_items = 0

    def add_many(self, keys: np.ndarray) -> None:
        """Program an array of keys."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        addresses = self.hashes.hash_all(keys)
        self._bits[addresses.reshape(-1)] = True
        self.n_items += int(keys.size)

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test; returns a boolean array."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.empty(0, dtype=bool)
        addresses = self.hashes.hash_all(keys)
        hits = self._bits[addresses]  # shape (k, n)
        return hits.all(axis=0)

    @property
    def fill_ratio(self) -> float:
        """Fraction of bits set in the shared vector."""
        return float(self._bits.mean()) if self.m_bits else 0.0

    def expected_fpr(self, n_items: int | None = None) -> float:
        """Analytical false-positive rate for ``n_items`` distinct programmed keys."""
        n = self.n_items if n_items is None else n_items
        return fpr_model.false_positive_rate_classic(n, self.m_bits, self.k)

    @property
    def total_bits(self) -> int:
        """Total memory footprint in bits."""
        return self.m_bits

    def to_arrays(self) -> dict:
        """Serialise the filter state (for checkpointing or moving onto the hardware model)."""
        return {
            "kind": "classic",
            "m_bits": self.m_bits,
            "k": self.k,
            "key_bits": self.key_bits,
            "bits": np.packbits(self._bits),
            "n_items": self.n_items,
        }


class ParallelBloomFilter(_BloomBase):
    """Parallel Bloom Filter: ``k`` hash functions, each with its own ``m``-bit vector.

    This is the organisation the paper implements in hardware (Section 3.1): every
    bit-vector is held in its own embedded-RAM block(s), so all ``k`` lookups happen
    in a single clock cycle, and dual-ported RAMs allow two keys to be tested per
    cycle.

    Parameters
    ----------
    m_bits:
        Length of *each* per-hash bit-vector (a power of two).  The paper explores
        16 Kbit, 8 Kbit and 4 Kbit.
    k:
        Number of hash functions / bit-vectors.
    key_bits:
        Width of the packed n-gram keys (20 for 4-grams over the 5-bit alphabet).
    hashes:
        Optional explicit hash family; an :class:`~repro.hashes.h3.H3Family` seeded
        with ``seed`` is created when omitted.
    seed:
        Seed for the default hash family.
    """

    def __init__(
        self,
        m_bits: int,
        k: int,
        key_bits: int = 20,
        hashes: HashFamily | None = None,
        seed: int = 0,
    ):
        super().__init__(m_bits=m_bits, k=k, key_bits=key_bits, hashes=hashes, seed=seed)
        self._bits = np.zeros((self.k, self.m_bits), dtype=bool)

    @property
    def bit_vectors(self) -> np.ndarray:
        """Copy of the ``(k, m_bits)`` boolean matrix of bit-vectors."""
        return self._bits.copy()

    def clear(self) -> None:
        """Reset all bit-vectors to zero (the paper's preprocessing step)."""
        self._bits[:] = False
        self.n_items = 0

    def add_many(self, keys: np.ndarray) -> None:
        """Program an array of keys: set ``H_i(key)`` in vector ``i`` for every hash."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return
        addresses = self.hashes.hash_all(keys)  # (k, n)
        for i in range(self.k):
            self._bits[i, addresses[i]] = True
        self.n_items += int(keys.size)

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized membership test: bitwise AND over the ``k`` per-vector lookups."""
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size == 0:
            return np.empty(0, dtype=bool)
        return self.test_addresses(self.hashes.hash_all(keys))

    def test_addresses(self, addresses: np.ndarray) -> np.ndarray:
        """Membership test on precomputed hash addresses.

        When many filters share one hash family, the addresses can be computed
        once with ``hashes.hash_all(keys)`` and tested against every filter
        through this method — the same sharing the hardware gets by
        broadcasting the hashed addresses to every language's bit-vectors.

        Parameters
        ----------
        addresses:
            Integer array of shape ``(k, n_keys)`` as produced by
            :meth:`repro.hashes.base.HashFamily.hash_all`.

        Returns
        -------
        numpy.ndarray
            Boolean array of length ``n_keys``: the AND over the ``k``
            per-vector lookups.
        """
        addresses = np.asarray(addresses)
        if addresses.ndim != 2 or addresses.shape[0] != self.k:
            raise ValueError(
                f"addresses must have shape (k={self.k}, n_keys); got {addresses.shape}"
            )
        hits = np.ones(addresses.shape[1], dtype=bool)
        for i in range(self.k):
            hits &= self._bits[i, addresses[i]]
        return hits

    def match_count(self, keys: np.ndarray) -> int:
        """Number of keys (with multiplicity) that test positive — the hardware counter."""
        return int(self.contains_many(keys).sum())

    @property
    def fill_ratio(self) -> float:
        """Mean fraction of bits set across the ``k`` vectors."""
        return float(self._bits.mean()) if self.m_bits else 0.0

    @property
    def fill_ratios(self) -> np.ndarray:
        """Per-vector fill ratios (length-``k`` float array)."""
        return self._bits.mean(axis=1)

    def expected_fpr(self, n_items: int | None = None) -> float:
        """Analytical false-positive rate ``(1 - e^{-N/m})^k`` for this configuration."""
        n = self.n_items if n_items is None else n_items
        return fpr_model.false_positive_rate(n, self.m_bits, self.k)

    @property
    def total_bits(self) -> int:
        """Total memory footprint in bits (``k * m_bits``); 24 Kbit for the k=6/m=4K config."""
        return self.k * self.m_bits

    @property
    def memory_kbits(self) -> float:
        """Total memory footprint in Kbits (the unit used by the paper)."""
        return self.total_bits / 1024.0

    @classmethod
    def from_items(
        cls,
        keys: np.ndarray,
        m_bits: int,
        k: int,
        key_bits: int = 20,
        hashes: HashFamily | None = None,
        seed: int = 0,
    ) -> "ParallelBloomFilter":
        """Build and program a filter in one step (deduplicates the keys first)."""
        filt = cls(m_bits=m_bits, k=k, key_bits=key_bits, hashes=hashes, seed=seed)
        unique = np.unique(np.asarray(keys, dtype=np.uint64))
        filt.add_many(unique)
        return filt

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ParallelBloomFilter(m_bits={self.m_bits}, k={self.k}, "
            f"key_bits={self.key_bits}, n_items={self.n_items})"
        )
