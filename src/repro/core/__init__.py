"""Core contribution of the paper: Bloom-filter based n-gram language classification.

The sub-modules mirror the stages of the hardware datapath described in Section 3
of the paper:

``alphabet``
    8-bit extended ASCII (ISO-8859-1) to 5-bit code conversion (Section 3.3).
``ngram``
    Sliding-window n-gram extraction and packing into integer keys.
``profile``
    Language profiles: the top-*t* most frequent n-grams of a training set.
``bloom``
    Classic and Parallel Bloom filters (Section 3.1).
``classifier``
    The per-document classification result every backend returns (the backends
    themselves live in :mod:`repro.api.backends`).
``fpr``
    The analytical false-positive model ``f = (1 - e^{-N/m})^k`` and sizing helpers
    (Section 5.2).
"""

from repro.core.alphabet import (
    AlphabetConverter,
    CODE_BITS,
    NUM_CODES,
    SPACE_CODE,
    decode_codes,
    encode_bytes,
    encode_text,
)
from repro.core.bloom import BloomFilter, ParallelBloomFilter
from repro.core.classifier import (
    ClassificationResult,
    UNDETERMINED_LANGUAGE,
    undetermined_result,
)
from repro.core.fpr import (
    expected_matches,
    false_positive_rate,
    false_positive_rate_classic,
    false_positives_per_thousand,
    optimal_k,
    required_bits_per_vector,
)
from repro.core.ngram import (
    DEFAULT_N,
    NGramExtractor,
    count_ngrams,
    ngram_to_string,
    ngrams_from_text,
    pack_ngrams,
    subsample,
    top_ngrams,
    unpack_ngram,
)
from repro.core.profile import LanguageProfile, build_profiles

__all__ = [
    "AlphabetConverter",
    "CODE_BITS",
    "NUM_CODES",
    "SPACE_CODE",
    "decode_codes",
    "encode_bytes",
    "encode_text",
    "BloomFilter",
    "ParallelBloomFilter",
    "ClassificationResult",
    "UNDETERMINED_LANGUAGE",
    "undetermined_result",
    "expected_matches",
    "false_positive_rate",
    "false_positive_rate_classic",
    "false_positives_per_thousand",
    "optimal_k",
    "required_bits_per_vector",
    "DEFAULT_N",
    "NGramExtractor",
    "count_ngrams",
    "ngram_to_string",
    "ngrams_from_text",
    "pack_ngrams",
    "subsample",
    "top_ngrams",
    "unpack_ngram",
    "LanguageProfile",
    "build_profiles",
]
