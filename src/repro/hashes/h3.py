"""The H3 family of hardware-friendly hash functions.

An H3 hash of a ``b``-bit key ``x`` with an output width of ``q`` bits is defined
by a random binary matrix ``Q`` with ``b`` rows of ``q`` bits each:

    ``h(x) = XOR over all set bits i of x of Q[i]``

On an FPGA every output bit is a parity tree over a subset of the input bits,
which makes the family cheap and fast (a single LUT level for 20-bit n-gram
keys), and different rows give statistically independent functions — exactly
what the parallel Bloom filter needs (Section 3.1 of the paper).

The software implementation evaluates the same function *chunk-wise*: the key is
split into ``chunk_bits``-wide chunks and each chunk indexes a precomputed table
whose entries are the XOR of the corresponding matrix rows.  XOR-ing the per-chunk
table entries gives exactly the bit-serial result, but the evaluation becomes a
handful of NumPy fancy-indexing operations over the whole key array, following the
"vectorize the hot loop" guidance of the HPC coding guides.
"""

from __future__ import annotations

import numpy as np

from repro.hashes.base import HashFamily, KeyHash

__all__ = ["H3Hash", "H3Family"]


class H3Hash(KeyHash):
    """A single H3 hash function.

    Parameters
    ----------
    key_bits:
        Width of the input keys in bits (20 for packed 4-grams over the 5-bit alphabet).
    out_bits:
        Width of the output address in bits (``log2`` of the bit-vector length).
    seed:
        Seed for the random matrix ``Q``.  Two instances with the same
        ``(key_bits, out_bits, seed)`` are identical functions.
    chunk_bits:
        Chunk width used for the table-driven evaluation.  Any value between 1 and
        16 produces identical results; 8 is a good trade-off between table size
        (256 entries per chunk) and the number of indexing passes.
    """

    def __init__(self, key_bits: int, out_bits: int, seed: int, chunk_bits: int = 8):
        if key_bits <= 0 or key_bits > 64:
            raise ValueError("key_bits must be in [1, 64]")
        if out_bits <= 0 or out_bits > 63:
            raise ValueError("out_bits must be in [1, 63]")
        if chunk_bits <= 0 or chunk_bits > 16:
            raise ValueError("chunk_bits must be in [1, 16]")
        self.key_bits = int(key_bits)
        self.out_bits = int(out_bits)
        self.chunk_bits = int(chunk_bits)
        self.seed = int(seed)

        rng = np.random.default_rng(seed)
        # One random out_bits-wide word per input bit position.
        self._matrix = rng.integers(0, 1 << out_bits, size=key_bits, dtype=np.uint64)
        self._tables, self._shifts, self._masks = self._build_tables()

    # ------------------------------------------------------------------ setup

    def _build_tables(self) -> tuple[list[np.ndarray], list[int], list[int]]:
        """Precompute per-chunk XOR tables equivalent to the row matrix."""
        tables: list[np.ndarray] = []
        shifts: list[int] = []
        masks: list[int] = []
        for bit in range(0, self.key_bits, self.chunk_bits):
            # entry v is the XOR of the rows of v's set bits: each doubling
            # step's upper half is its lower half XOR the next row
            table = np.zeros(1, dtype=np.uint64)
            for row in self._matrix[bit : bit + self.chunk_bits]:
                table = np.concatenate((table, table ^ row))
            tables.append(table)
            shifts.append(bit)
            masks.append(table.size - 1)
        return tables, shifts, masks

    # ------------------------------------------------------------ evaluation

    @property
    def matrix(self) -> np.ndarray:
        """The underlying random matrix ``Q`` (one ``out_bits``-wide word per key bit)."""
        return self._matrix.copy()

    def hash_array(self, keys: np.ndarray) -> np.ndarray:
        """The chunk tables' XOR, holding two key-sized arrays besides ``keys``.

        Each chunk's table index is shifted and masked into one reused
        ``intp`` buffer, and the gather writes its table values back over
        it (each value replaces the index it was read at).  The keys are
        shifted as ``int64``: an arithmetic shift differs from a logical one
        only above the mask.  A ``uint64`` index would make ``np.take``
        copy it to ``intp``, a third array.
        """
        keys = self._validate_keys(keys)
        signed = keys.view(np.int64)
        result = np.zeros(keys.shape, dtype=np.uint64)
        index = np.empty(keys.shape, dtype=np.intp)
        for table, shift, mask in zip(self._tables, self._shifts, self._masks):
            np.right_shift(signed, shift, out=index)
            np.bitwise_and(index, mask, out=index)
            result ^= np.take(table, index, out=index.view(np.uint64), mode="wrap")
        return result

    def hash_key_space(self, block_bits: int):
        """Every key's hash, in key order, ``2 ** block_bits`` keys per block.

        H3 is linear over XOR, and a block's keys share their high bits, so
        each block is the chunk tables' hashes of the low bits (computed
        once) XOR-ed with the hash of the block's first key.
        """
        block = 1 << min(block_bits, self.key_bits)
        low = self.hash_array(np.arange(block, dtype=np.uint64))
        for high in self.hash_array(np.arange(0, 1 << self.key_bits, block, dtype=np.uint64)):
            yield low ^ high

    def hash_scalar_reference(self, key: int) -> int:
        """Bit-serial reference implementation (used by tests to validate the tables)."""
        if key >> self.key_bits:
            raise ValueError(f"key does not fit in {self.key_bits} bits")
        acc = 0
        for i in range(self.key_bits):
            if (key >> i) & 1:
                acc ^= int(self._matrix[i])
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"H3Hash(key_bits={self.key_bits}, out_bits={self.out_bits}, "
            f"seed={self.seed}, chunk_bits={self.chunk_bits})"
        )


class H3Family(HashFamily):
    """A family of ``k`` independent H3 hash functions derived from one seed."""

    def __init__(self, k: int, key_bits: int, out_bits: int, seed: int = 0, chunk_bits: int = 8):
        if k <= 0:
            raise ValueError("k must be positive")
        seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=k)
        hashes = [
            H3Hash(key_bits=key_bits, out_bits=out_bits, seed=int(s), chunk_bits=chunk_bits)
            for s in seeds
        ]
        super().__init__(hashes)
        self.seed = int(seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"H3Family(k={self.k}, key_bits={self.key_bits}, "
            f"out_bits={self.out_bits}, seed={self.seed})"
        )
