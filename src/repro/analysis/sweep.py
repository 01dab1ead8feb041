"""Parameter sweeps: the Table 1 grid and the ablation studies.

Every sweep returns a list of plain dataclass rows so that benchmarks, examples and
the CLI can render them uniformly with :mod:`repro.analysis.reporting`.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.analysis.accuracy import AccuracyReport, evaluate_classifier_batch
from repro.api.config import ClassifierConfig
from repro.api.identifier import LanguageIdentifier
from repro.core.fpr import false_positives_per_thousand
from repro.corpus.corpus import Corpus

__all__ = [
    "BloomSweepRow",
    "PAPER_TABLE1_GRID",
    "sweep_bloom_parameters",
    "sweep_hash_families",
    "sweep_profile_size",
    "sweep_ngram_order",
    "sweep_subsampling",
]

#: the (m in Kbits, k) grid of Table 1, in the paper's row order
PAPER_TABLE1_GRID: tuple[tuple[int, int], ...] = (
    (16, 4),
    (16, 3),
    (16, 2),
    (8, 4),
    (8, 3),
    (8, 2),
    (4, 6),
    (4, 5),
)


@dataclass(frozen=True)
class BloomSweepRow:
    """One row of a Bloom-parameter sweep (the shape of Table 1)."""

    m_kbits: int
    k: int
    expected_fp_per_thousand: float
    measured_fp_per_thousand: float
    average_accuracy: float
    min_accuracy: float
    max_accuracy: float
    report: AccuracyReport

    def as_table_row(self) -> tuple:
        """The columns printed by the Table 1 benchmark."""
        return (
            self.m_kbits,
            self.k,
            round(self.expected_fp_per_thousand, 1),
            round(self.measured_fp_per_thousand, 1),
            f"{100 * self.average_accuracy:.2f}%",
        )


def _fit_and_evaluate(identifier: LanguageIdentifier, train: Corpus, test: Corpus) -> AccuracyReport:
    identifier.train(train)
    return evaluate_classifier_batch(identifier, test)


def _measured_fpr(identifier: LanguageIdentifier, sample_size: int, seed: int) -> dict[str, float]:
    """Empirical per-language false-positive rate of a trained identifier.

    Probes the backend with random non-member n-grams (each language's
    non-members of one shared uniform sample), which works for any backend
    whose match counts are membership counts (``bloom``, ``exact``,
    ``hw-sim``, ``hail``).  For score-based backends (``mguesser``) the column
    is structurally zero: non-member n-grams carry no profile weight, so they
    cannot score.
    """
    rng = np.random.default_rng(seed)
    key_space = 1 << identifier.config.key_bits
    probes = rng.integers(0, key_space, size=sample_size, dtype=np.uint64)
    rates: dict[str, float] = {}
    for index, (language, profile) in enumerate(identifier.profiles.items()):
        non_members = probes[~profile.contains_many(probes)]
        if non_members.size == 0:
            rates[language] = 0.0
            continue
        counts = identifier.backend.match_counts_batch(non_members, [0], [non_members.size])
        rates[language] = float(counts[0, index]) / float(non_members.size)
    return rates


def sweep_bloom_parameters(
    train: Corpus,
    test: Corpus,
    grid: Sequence[tuple[int, int]] = PAPER_TABLE1_GRID,
    n: int = 4,
    t: int = 5000,
    seed: int = 0,
    hash_family: str = "h3",
    fpr_sample_size: int = 20000,
    backend: str = "bloom",
) -> list[BloomSweepRow]:
    """Reproduce the Table 1 experiment: accuracy vs (m, k) on a train/test split."""
    rows: list[BloomSweepRow] = []
    for m_kbits, k in grid:
        identifier = LanguageIdentifier(
            ClassifierConfig(
                n=n, t=t, m_bits=m_kbits * 1024, k=k,
                hash_family=hash_family, seed=seed, backend=backend,
            )
        )
        report = _fit_and_evaluate(identifier, train, test)
        profile_size = max(len(p) for p in identifier.profiles.values())
        measured = _measured_fpr(identifier, sample_size=fpr_sample_size, seed=seed + 17)
        rows.append(
            BloomSweepRow(
                m_kbits=m_kbits,
                k=k,
                expected_fp_per_thousand=false_positives_per_thousand(
                    profile_size, m_kbits * 1024, k
                ),
                measured_fp_per_thousand=1000.0 * float(np.mean(list(measured.values()))),
                average_accuracy=report.average_accuracy,
                min_accuracy=report.min_accuracy,
                max_accuracy=report.max_accuracy,
                report=report,
            )
        )
    return rows


@dataclass(frozen=True)
class AblationRow:
    """One row of an ablation sweep."""

    label: str
    average_accuracy: float
    overall_accuracy: float
    detail: dict


def sweep_hash_families(
    train: Corpus,
    test: Corpus,
    families: Sequence[str] = ("h3", "multiply-shift", "fnv1a", "tabulation"),
    m_kbits: int = 8,
    k: int = 4,
    t: int = 5000,
    seed: int = 0,
) -> list[AblationRow]:
    """Ablation: does the hash family matter at fixed (m, k)?  (It should not.)"""
    rows = []
    for family in families:
        identifier = LanguageIdentifier(
            m_bits=m_kbits * 1024, k=k, t=t, seed=seed, hash_family=family
        )
        report = _fit_and_evaluate(identifier, train, test)
        rows.append(
            AblationRow(
                label=family,
                average_accuracy=report.average_accuracy,
                overall_accuracy=report.overall_accuracy,
                detail={"m_kbits": m_kbits, "k": k},
            )
        )
    return rows


def sweep_profile_size(
    train: Corpus,
    test: Corpus,
    sizes: Sequence[int] = (500, 1000, 2500, 5000, 10000),
    m_kbits: int = 16,
    k: int = 4,
    seed: int = 0,
) -> list[AblationRow]:
    """Ablation: profile size t (the paper fixes t = 5000, citing HAIL's >99 % accuracy)."""
    rows = []
    for size in sizes:
        identifier = LanguageIdentifier(m_bits=m_kbits * 1024, k=k, t=size, seed=seed)
        report = _fit_and_evaluate(identifier, train, test)
        rows.append(
            AblationRow(
                label=f"t={size}",
                average_accuracy=report.average_accuracy,
                overall_accuracy=report.overall_accuracy,
                detail={"t": size, "expected_fp_per_thousand": false_positives_per_thousand(size, m_kbits * 1024, k)},
            )
        )
    return rows


def sweep_ngram_order(
    train: Corpus,
    test: Corpus,
    orders: Sequence[int] = (2, 3, 4, 5),
    m_kbits: int = 16,
    k: int = 4,
    t: int = 5000,
    seed: int = 0,
) -> list[AblationRow]:
    """Ablation: n-gram order (the paper uses 4-grams)."""
    rows = []
    for order in orders:
        identifier = LanguageIdentifier(m_bits=m_kbits * 1024, k=k, n=order, t=t, seed=seed)
        report = _fit_and_evaluate(identifier, train, test)
        rows.append(
            AblationRow(
                label=f"n={order}",
                average_accuracy=report.average_accuracy,
                overall_accuracy=report.overall_accuracy,
                detail={"n": order},
            )
        )
    return rows


def sweep_subsampling(
    train: Corpus,
    test: Corpus,
    strides: Sequence[int] = (1, 2, 4),
    m_kbits: int = 16,
    k: int = 4,
    t: int = 5000,
    seed: int = 0,
) -> list[AblationRow]:
    """Ablation: HAIL-style n-gram subsampling of the test stream (Section 5.2's
    "test only every other n-gram" option that doubles the supported languages)."""
    rows = []
    for stride in strides:
        identifier = LanguageIdentifier(
            m_bits=m_kbits * 1024, k=k, t=t, seed=seed, subsample_stride=stride
        )
        report = _fit_and_evaluate(identifier, train, test)
        rows.append(
            AblationRow(
                label=f"stride={stride}",
                average_accuracy=report.average_accuracy,
                overall_accuracy=report.overall_accuracy,
                detail={"stride": stride},
            )
        )
    return rows
