"""Common interfaces for hash functions used by the Bloom filters.

All hash functions in this package map fixed-width integer keys (packed n-grams,
at most 64 bits) onto ``out_bits``-wide addresses.  Implementations must be
deterministic for a given seed so that experiments are reproducible and so that
the software classifier and the hardware engine, when built from the same seed,
address exactly the same bit-vector cells.
"""

from __future__ import annotations

import abc
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["KeyHash", "HashFamily"]


class KeyHash(abc.ABC):
    """A single hash function from ``key_bits``-wide keys to ``out_bits``-wide values."""

    #: number of significant bits in the input key
    key_bits: int
    #: number of bits in the output address
    out_bits: int

    @abc.abstractmethod
    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """Hash an array of integer keys.

        Parameters
        ----------
        keys:
            Array of non-negative integers, each representable in ``key_bits`` bits.

        Returns
        -------
        numpy.ndarray
            ``uint64`` array of the same shape with values in ``[0, 2**out_bits)``.
        """

    def hash_key_space(self, block_bits: int) -> Iterator[np.ndarray]:
        """Every key's hash, in key order, ``2 ** block_bits`` keys per block.

        Enumerates the whole ``key_bits``-wide key space, the input of a
        lookup table over every key; each block is a ``hash_array`` of the
        next run of consecutive keys.
        """
        size = 1 << self.key_bits
        block = 1 << min(block_bits, self.key_bits)
        for start in range(0, size, block):
            yield self.hash_array(np.arange(start, start + block, dtype=np.uint64))

    def hash_scalar(self, key: int) -> int:
        """Hash a single integer key."""
        out = self.hash_array(np.asarray([key], dtype=np.uint64))
        return int(out[0])

    def __call__(self, key: int) -> int:
        return self.hash_scalar(key)

    @property
    def out_size(self) -> int:
        """Size of the output address space (``2 ** out_bits``)."""
        return 1 << self.out_bits

    def _validate_keys(self, keys: np.ndarray) -> np.ndarray:
        keys = np.asarray(keys, dtype=np.uint64)
        if keys.size and int(keys.max(initial=0)) >> self.key_bits:
            raise ValueError(
                f"key does not fit in {self.key_bits} bits "
                f"(max value seen: {int(keys.max())})"
            )
        return keys


class HashFamily(Sequence[KeyHash]):
    """An ordered collection of ``k`` independent :class:`KeyHash` functions.

    The Bloom filter implementations take a :class:`HashFamily`; the family also
    offers a fused :meth:`hash_all` that evaluates every member on the same key
    array, which is the hot path of the classifier.
    """

    def __init__(self, hashes: Iterable[KeyHash]):
        self._hashes: list[KeyHash] = list(hashes)
        if not self._hashes:
            raise ValueError("a hash family needs at least one hash function")
        key_bits = {h.key_bits for h in self._hashes}
        out_bits = {h.out_bits for h in self._hashes}
        if len(key_bits) != 1 or len(out_bits) != 1:
            raise ValueError("all hash functions in a family must share key/out widths")
        self.key_bits = key_bits.pop()
        self.out_bits = out_bits.pop()

    def __len__(self) -> int:
        return len(self._hashes)

    def __getitem__(self, index):  # type: ignore[override]
        return self._hashes[index]

    def __iter__(self):
        return iter(self._hashes)

    @property
    def k(self) -> int:
        """Number of hash functions in the family."""
        return len(self._hashes)

    @property
    def out_size(self) -> int:
        return 1 << self.out_bits

    def hash_all(self, keys: np.ndarray) -> np.ndarray:
        """Evaluate every hash function on ``keys``.

        Returns an array of shape ``(k, len(keys))`` and dtype ``uint64``.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        out = np.empty((self.k, keys.size), dtype=np.uint64)
        for i, h in enumerate(self._hashes):
            out[i] = h.hash_array(keys)
        return out
