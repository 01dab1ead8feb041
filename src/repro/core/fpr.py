"""Analytical false-positive model for the Parallel Bloom Filter.

Sections 3.1 and 5.2 of the paper: *"The rate f of false positives of the Parallel
Bloom Filter is determined by the number N of n-grams programmed, the number k of
hash functions used, and the length m of its bit-vector, and is given by
f = (1 − e^{−N/m})^k."*

Note that in the *parallel* Bloom filter every hash function owns its own m-bit
vector, so each vector receives N insertions (not k·N as in the classic single
vector filter).  Both formulas are provided; the classic one is used by the ablation
that compares the two organisations.

The module also records the paper's Table 1 expectations so that tests and the
benchmark harness can check the model reproduces the published "false positives per
thousand" column exactly.
"""

from __future__ import annotations

import math

__all__ = [
    "false_positive_rate",
    "false_positive_rate_classic",
    "false_positives_per_thousand",
    "optimal_k",
    "required_bits_per_vector",
    "expected_matches",
    "memory_bits_per_language",
    "PAPER_TABLE1_FP_PER_THOUSAND",
    "PAPER_PROFILE_SIZE",
]

#: profile size used throughout the paper (top-5000 n-grams per language)
PAPER_PROFILE_SIZE = 5000

#: Table 1 of the paper: (m in Kbits, k) -> expected false positives per thousand
PAPER_TABLE1_FP_PER_THOUSAND = {
    (16, 4): 5,
    (16, 3): 18,
    (16, 2): 69,
    (8, 4): 44,
    (8, 3): 95,
    (8, 2): 209,
    (4, 6): 123,
    (4, 5): 174,
}


def false_positive_rate(n_items: int, m_bits: int, k_hashes: int) -> float:
    """False-positive probability of a *parallel* Bloom filter.

    ``f = (1 - exp(-N/m)) ** k`` where each of the ``k`` hash functions addresses
    its own ``m``-bit vector holding ``N`` programmed items.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if m_bits <= 0:
        raise ValueError("m_bits must be positive")
    if k_hashes <= 0:
        raise ValueError("k_hashes must be positive")
    fill = 1.0 - math.exp(-n_items / m_bits)
    return fill**k_hashes


def false_positive_rate_classic(n_items: int, m_bits: int, k_hashes: int) -> float:
    """False-positive probability of a classic single-vector Bloom filter.

    ``f = (1 - exp(-k*N/m)) ** k`` — every insertion sets ``k`` bits in one
    shared ``m``-bit vector.
    """
    if n_items < 0:
        raise ValueError("n_items must be non-negative")
    if m_bits <= 0:
        raise ValueError("m_bits must be positive")
    if k_hashes <= 0:
        raise ValueError("k_hashes must be positive")
    fill = 1.0 - math.exp(-k_hashes * n_items / m_bits)
    return fill**k_hashes


def false_positives_per_thousand(n_items: int, m_bits: int, k_hashes: int) -> float:
    """The paper's Table 1 unit: expected false positives per thousand negative tests."""
    return 1000.0 * false_positive_rate(n_items, m_bits, k_hashes)


def optimal_k(n_items: int, m_bits: int) -> int:
    """Number of hash functions minimising the parallel-filter false-positive rate.

    For the parallel organisation the rate ``(1 - e^{-N/m})^k`` decreases
    monotonically in ``k`` (each extra hash function brings its own vector), so the
    "optimum" is bounded by the memory budget rather than by the formula.  For the
    classic organisation the familiar ``k* = (m/N) ln 2`` applies; this helper
    returns that value (at least 1) since it is the one designers actually use when
    trading hash functions against a fixed total memory budget.
    """
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if m_bits <= 0:
        raise ValueError("m_bits must be positive")
    return max(1, round(m_bits / n_items * math.log(2)))


def required_bits_per_vector(n_items: int, k_hashes: int, target_fpr: float) -> int:
    """Smallest per-vector size ``m`` (bits) achieving ``target_fpr`` with ``k`` hashes.

    Inverts ``f = (1 - e^{-N/m})^k``.
    """
    if not 0.0 < target_fpr < 1.0:
        raise ValueError("target_fpr must be in (0, 1)")
    if n_items <= 0:
        raise ValueError("n_items must be positive")
    if k_hashes <= 0:
        raise ValueError("k_hashes must be positive")
    fill = target_fpr ** (1.0 / k_hashes)
    if fill >= 1.0:  # pragma: no cover - unreachable for valid inputs
        raise ValueError("target_fpr not achievable")
    m = -n_items / math.log(1.0 - fill)
    return int(math.ceil(m))


def expected_matches(
    n_tests: int,
    true_membership_rate: float,
    n_items: int,
    m_bits: int,
    k_hashes: int,
) -> float:
    """Expected number of positive filter responses out of ``n_tests`` probes.

    ``true_membership_rate`` is the fraction of probes that are genuinely in the
    programmed set; the remainder may still match with the false-positive
    probability.  Used to reason about how false positives inflate match counters
    (Section 5.1 observes the margin between the top two languages usually dwarfs
    this inflation).
    """
    if not 0.0 <= true_membership_rate <= 1.0:
        raise ValueError("true_membership_rate must be in [0, 1]")
    if n_tests < 0:
        raise ValueError("n_tests must be non-negative")
    fpr = false_positive_rate(n_items, m_bits, k_hashes)
    true_hits = n_tests * true_membership_rate
    false_hits = n_tests * (1.0 - true_membership_rate) * fpr
    return true_hits + false_hits


def memory_bits_per_language(m_bits: int, k_hashes: int) -> int:
    """Total embedded-RAM bits one language profile occupies (k independent vectors).

    The paper's most space-efficient configuration (k=6, m=4 Kbit) uses
    ``6 * 4096 = 24 576`` bits ≈ 24 Kbit per language (Section 5.2).
    """
    if m_bits <= 0 or k_hashes <= 0:
        raise ValueError("m_bits and k_hashes must be positive")
    return m_bits * k_hashes
