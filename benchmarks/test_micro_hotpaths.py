"""Micro-benchmarks of the library's hot paths (pytest-benchmark timings).

These are the only benchmarks whose *timings* are about this repository rather than
the modelled hardware: they track the cost of alphabet conversion, n-gram packing,
H3 hashing, Bloom-filter probing and end-to-end classification so that regressions
in the vectorized implementations are visible.
"""

import numpy as np
import pytest

from repro.api import LanguageIdentifier
from repro.core.alphabet import encode_bytes
from repro.core.bloom import ParallelBloomFilter
from repro.core.ngram import pack_ngrams
from repro.hashes.h3 import H3Family


@pytest.fixture(scope="module")
def document_bytes(bench_test):
    text = " ".join(doc.text for doc in bench_test.documents[:40])
    return text.encode("latin-1", errors="replace")


@pytest.fixture(scope="module")
def packed_ngrams(document_bytes):
    return pack_ngrams(encode_bytes(document_bytes), n=4)


def test_micro_alphabet_conversion(benchmark, document_bytes):
    codes = benchmark(lambda: encode_bytes(document_bytes))
    assert codes.size == len(document_bytes)


def test_micro_ngram_packing(benchmark, document_bytes):
    codes = encode_bytes(document_bytes)
    packed = benchmark(lambda: pack_ngrams(codes, n=4))
    assert packed.size == codes.size - 3


def test_micro_h3_hashing(benchmark, packed_ngrams):
    family = H3Family(k=4, key_bits=20, out_bits=14, seed=0)
    addresses = benchmark(lambda: family.hash_all(packed_ngrams))
    assert addresses.shape == (4, packed_ngrams.size)


def test_micro_bloom_probe(benchmark, packed_ngrams):
    filt = ParallelBloomFilter(m_bits=16 * 1024, k=4, seed=0)
    filt.add_many(np.unique(packed_ngrams)[:5000])
    hits = benchmark(lambda: filt.contains_many(packed_ngrams))
    assert hits.size == packed_ngrams.size


def test_micro_end_to_end_classification(benchmark, bench_profiles, bench_test):
    identifier = LanguageIdentifier(m_bits=16 * 1024, k=4, t=5000, seed=0)
    identifier.train_profiles(bench_profiles)
    document = bench_test.documents[0]
    result = benchmark(lambda: identifier.classify(document.text))
    assert result.language == document.language

    # report the software classification throughput this corresponds to (MB/s);
    # stats are only collected when timings are enabled (--benchmark-only / default mode)
    if benchmark.stats is not None:
        seconds_per_byte = benchmark.stats.stats.mean / max(1, document.size_bytes)
        print(f"\nPython software classifier throughput: {1.0 / seconds_per_byte / 1e6:.2f} MB/s "
              f"(paper's C baseline: 5.5 MB/s; paper's FPGA: 470 MB/s)")
