"""HAIL: the competing FPGA design (Kastner et al., FPL 2005).

HAIL stores the n-gram profiles of up to 255 languages as a direct-lookup hash table
in **off-chip SRAM**: each table word holds a bitmap over languages, so a single
SRAM read answers "which languages contain this n-gram?".  Parallelism is limited by
the number of SRAM devices on the board — the source of the scalability contrast the
paper draws (Section 2 and 5.5).

Two models are provided:

:class:`HailClassifier`
    A functional model of the SRAM table: a direct-mapped hash table over packed
    n-grams with per-bucket language bitmaps (served as the ``hail`` backend).  Collisions behave like the real table (they can
    only *add* spurious language matches, never remove true ones), so the accuracy
    impact of table sizing can be studied, mirroring how Bloom filter false
    positives are studied for our design.
:class:`HailTimingModel`
    An analytical throughput/scalability model: ``throughput = frequency × SRAM
    lookups per cycle`` with the published 324 MB/s operating point as default, plus
    helpers contrasting its scaling against the Bloom-filter design (Table 4 and the
    1.45×/4.4× claims).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.alphabet import CODE_BITS
from repro.core.ngram import DEFAULT_N
from repro.core.profile import LanguageProfile
from repro.hashes.h3 import H3Hash

__all__ = [
    "HailClassifier",
    "HailTimingModel",
    "HAIL_PAPER_THROUGHPUT_MB_S",
    "HAIL_MAX_LANGUAGES",
]

#: Table 4: throughput of the HAIL design (Xilinx XCV2000E-8 FPGA)
HAIL_PAPER_THROUGHPUT_MB_S = 324.0
#: HAIL supports up to 255 languages (bitmap width of the SRAM table entries)
HAIL_MAX_LANGUAGES = 255


class HailClassifier:
    """Functional model of HAIL's off-chip-SRAM direct-lookup table.

    Parameters
    ----------
    table_bits:
        log2 of the number of hash-table buckets held in SRAM.  The real design's
        SRAM (megabytes) gives it a generously sized table; smaller tables introduce
        collision-induced spurious matches, which the ablation benchmark explores.
    n:
        N-gram order; the table is indexed by packed ``n * 5``-bit keys.
    seed:
        Seed of the table's index hash.

    Classification runs through the ``hail`` backend of
    :class:`repro.api.identifier.LanguageIdentifier`, which turns each
    :meth:`lookup` word into per-language hits.
    """

    def __init__(self, table_bits: int = 20, n: int = DEFAULT_N, seed: int = 0):
        if table_bits <= 0 or table_bits > 30:
            raise ValueError("table_bits must be in [1, 30]")
        self.table_bits = int(table_bits)
        self.n = int(n)
        self.index_hash = H3Hash(key_bits=self.n * CODE_BITS, out_bits=self.table_bits, seed=seed)
        self.languages: list[str] = []
        self._table: np.ndarray | None = None  # uint64 bitmap per bucket

    def fit_profiles(self, profiles: Mapping[str, LanguageProfile]) -> "HailClassifier":
        """Program the SRAM lookup table from prebuilt profiles."""
        if not profiles:
            raise ValueError("at least one language profile is required")
        if len(profiles) > HAIL_MAX_LANGUAGES:
            raise ValueError(f"HAIL supports at most {HAIL_MAX_LANGUAGES} languages")
        if len(profiles) > 64:
            raise ValueError("this model packs language bitmaps into 64-bit words")
        self.languages = list(profiles)
        table = np.zeros(1 << self.table_bits, dtype=np.uint64)
        for index, (language, profile) in enumerate(profiles.items()):
            buckets = self.index_hash.hash_array(profile.ngrams)
            np.bitwise_or.at(table, buckets, np.uint64(1 << index))
        self._table = table
        return self

    def lookup(self, packed: np.ndarray) -> np.ndarray:
        """One SRAM read per n-gram: the bucket's language bitmap (bit ``i`` = language ``i``)."""
        if self._table is None:
            raise RuntimeError("table has not been programmed; call fit_profiles() first")
        return self._table[self.index_hash.hash_array(np.asarray(packed, dtype=np.uint64))]

    @property
    def table_fill_ratio(self) -> float:
        """Fraction of table buckets with at least one language bit set."""
        if self._table is None:
            return 0.0
        return float((self._table != 0).mean())


@dataclass(frozen=True)
class HailTimingModel:
    """Analytical throughput/scalability model for the HAIL architecture.

    Parameters
    ----------
    frequency_mhz:
        Clock frequency of the SRAM lookup pipeline.
    sram_devices:
        Number of independent off-chip SRAM devices (each answers one lookup per
        cycle).  The published design reaches 324 MB/s, i.e. 4 lookups per cycle at
        81 MHz; adding SRAM devices is the only way to scale throughput, which is
        the contrast the paper draws with on-chip Bloom filters.
    subsample_stride:
        HAIL subsamples the n-gram stream (tests every other n-gram) to double the
        supported language count; a stride of 2 doubles effective byte throughput
        per lookup.
    """

    frequency_mhz: float = 81.0
    sram_devices: int = 4
    subsample_stride: int = 1

    def __post_init__(self) -> None:
        if self.frequency_mhz <= 0 or self.sram_devices <= 0 or self.subsample_stride <= 0:
            raise ValueError("all parameters must be positive")

    @property
    def ngrams_per_second(self) -> float:
        """SRAM lookups (tested n-grams) per second."""
        return self.frequency_mhz * 1e6 * self.sram_devices

    @property
    def throughput_mb_s(self) -> float:
        """Input throughput in MB/s (one byte per n-gram, times the subsample stride)."""
        return self.ngrams_per_second * self.subsample_stride / 1_000_000

    @property
    def max_languages(self) -> int:
        """Languages supported (bitmap width of the SRAM word), independent of throughput."""
        return HAIL_MAX_LANGUAGES

    def speedup_vs(self, other_throughput_mb_s: float) -> float:
        """Ratio of another system's throughput to HAIL's (the paper's 1.45× / 4.4×)."""
        if other_throughput_mb_s <= 0:
            raise ValueError("other_throughput_mb_s must be positive")
        return other_throughput_mb_s / self.throughput_mb_s
